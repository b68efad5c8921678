package data

import "poiesis/internal/etl"

// Measure scans rows and counts observable defects against the schema. It is
// the row-wise reference the generator tests measure injected defects with;
// the simulator measures its columnar sink outputs itself.
func Measure(schema etl.Schema, rows []etl.Row) Stats {
	st := Stats{Rows: len(rows)}
	keyPos := keyPositions(schema)
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		for i := range schema.Attrs {
			if r.IsNullAt(i) {
				st.NullCells++
			}
		}
		for _, v := range r {
			if IsErroneous(v) {
				st.Errors++
				break
			}
		}
		if len(keyPos) > 0 {
			k := r.KeyString(keyPos)
			if seen[k] {
				st.Duplicates++
			}
			seen[k] = true
		}
	}
	return st
}

func keyPositions(s etl.Schema) []int {
	var out []int
	for i, a := range s.Attrs {
		if a.Key {
			out = append(out, i)
		}
	}
	return out
}
