package data

import (
	"fmt"

	"poiesis/internal/etl"
)

// Defects configures the data-quality defects injected into a generated
// rowset. Rates are probabilities in [0,1] applied per row.
type Defects struct {
	// NullRate is the probability that each nullable attribute of a row is
	// NULL.
	NullRate float64
	// DupRate is the probability that a row is emitted twice (an exact
	// duplicate of the previous row).
	DupRate float64
	// ErrorRate is the probability that a row carries an erroneous value
	// (out-of-domain number or corrupted string) in one non-key attribute.
	ErrorRate float64
}

// SourceSpec describes one synthetic data source: its schema, cardinality,
// defect profile and freshness behaviour.
type SourceSpec struct {
	Name   string
	Schema etl.Schema
	// Rows is the number of logical rows (before duplication defects).
	Rows int
	// Defects configures injected quality problems.
	Defects Defects
	// UpdatesPerHour is how often the source is refreshed upstream; the
	// data-quality "frequency of updates" measure reads it.
	UpdatesPerHour float64
	// Seed isolates this source's random stream.
	Seed uint64
}

// RowSet is a generated batch of rows plus bookkeeping about the injected
// defects, so tests can assert that cleaning operations find them.
type RowSet struct {
	Schema etl.Schema
	Rows   []etl.Row

	// Injected defect counts (ground truth).
	Nulls      int
	Duplicates int
	Errors     int
}

// ErrMarker is the sentinel corrupted-string prefix used for injected
// erroneous values; the crosscheck operation detects it.
const ErrMarker = "\x01ERR:"

// Generate produces the rowset for the spec. Generation is deterministic in
// the seed: the same spec yields byte-identical data.
func Generate(spec SourceSpec) *RowSet {
	rng := NewRNG(spec.Seed | 1)
	rs := &RowSet{Schema: spec.Schema}
	rs.Rows = make([]etl.Row, 0, spec.Rows+spec.Rows/8)
	for i := 0; i < spec.Rows; i++ {
		row := genRow(rng, spec.Schema, int64(i))
		// Inject an erroneous value into a non-key attribute.
		if rng.Bool(spec.Defects.ErrorRate) {
			if j := pickNonKey(rng, spec.Schema); j >= 0 {
				row[j] = corrupt(rng, spec.Schema.Attrs[j])
				rs.Errors++
			}
		}
		// Inject NULLs into nullable attributes.
		rowNulls := 0
		for j, a := range spec.Schema.Attrs {
			if a.Nullable && rng.Bool(spec.Defects.NullRate) {
				row[j] = nil
				rowNulls++
			}
		}
		rs.Nulls += rowNulls
		rs.Rows = append(rs.Rows, row)
		if rng.Bool(spec.Defects.DupRate) {
			rs.Rows = append(rs.Rows, row.Clone())
			rs.Duplicates++
			// The duplicate physically repeats the row's null cells.
			rs.Nulls += rowNulls
		}
	}
	return rs
}

// genRow synthesises one clean row. Key integer attributes carry the row
// ordinal so keys are unique before defect injection.
func genRow(rng *RNG, s etl.Schema, ordinal int64) etl.Row {
	row := make(etl.Row, s.Len())
	for i, a := range s.Attrs {
		switch a.Type {
		case etl.TypeInt:
			if a.Key {
				row[i] = ordinal
			} else {
				row[i] = int64(rng.Intn(100000))
			}
		case etl.TypeFloat:
			row[i] = rng.Float64() * 1000
		case etl.TypeString:
			if a.Key {
				row[i] = fmt.Sprintf("%s-%08d", a.Name, ordinal)
			} else {
				row[i] = randomWord(rng)
			}
		case etl.TypeDate:
			// days since epoch within ~3 years
			row[i] = int64(17000 + rng.Intn(1100))
		case etl.TypeBool:
			row[i] = rng.Bool(0.5)
		default:
			row[i] = nil
		}
	}
	return row
}

var words = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
	"hotel", "india", "juliet", "kilo", "lima", "mike", "november",
	"oscar", "papa", "quebec", "romeo", "sierra", "tango",
}

func randomWord(rng *RNG) string {
	return words[rng.Zipf(len(words), 1.2)]
}

func pickNonKey(rng *RNG, s etl.Schema) int {
	var candidates []int
	for i, a := range s.Attrs {
		// Booleans have no out-of-domain value to corrupt into.
		if !a.Key && a.Type != etl.TypeBool {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[rng.Intn(len(candidates))]
}

func corrupt(rng *RNG, a etl.Attribute) etl.Value {
	switch a.Type {
	case etl.TypeInt:
		return int64(-1_000_000 - int64(rng.Intn(1000)))
	case etl.TypeFloat:
		return -1e9 - rng.Float64()
	case etl.TypeDate:
		return int64(-1)
	default:
		return ErrMarker + randomWord(rng)
	}
}

// IsErroneous reports whether a value looks like an injected defect. The
// crosscheck/cleaning simulation uses it as its ground-truth oracle.
func IsErroneous(v etl.Value) bool {
	switch x := v.(type) {
	case int64:
		return x <= -1_000_000 || x == -1
	case float64:
		return x <= -1e9
	case string:
		return len(x) >= len(ErrMarker) && x[:len(ErrMarker)] == ErrMarker
	}
	return false
}

// Stats summarises the observed defect rates of a rowset, measured rather
// than taken from the injection bookkeeping.
type Stats struct {
	Rows       int
	NullCells  int
	Duplicates int
	Errors     int
}
