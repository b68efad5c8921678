// Package etl models ETL processes as directed acyclic flow graphs, following
// the process perspective used by POIESIS (Theodorou et al., EDBT 2015): each
// node is an ETL flow operation and each directed edge is a transition from an
// operation to a successor one.
//
// The package provides the operation taxonomy, attribute schemata, graph
// construction and validation, the graph algorithms that the quality measures
// need (topological order, longest path, coupling), and the mutation
// primitives used by Flow Component Patterns (insertion on an edge,
// replacement of a node by a sub-flow, graph merge).
package etl

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
)

// AttrType is the data type of a schema attribute.
type AttrType int

// Attribute types supported by the flow model. They deliberately mirror the
// coarse types that logical ETL models (xLM, PDI) expose.
const (
	TypeUnknown AttrType = iota
	TypeInt
	TypeFloat
	TypeString
	TypeDate
	TypeBool
)

var attrTypeNames = [...]string{
	TypeUnknown: "unknown",
	TypeInt:     "int",
	TypeFloat:   "float",
	TypeString:  "string",
	TypeDate:    "date",
	TypeBool:    "bool",
}

// String returns the lower-case name of the type.
func (t AttrType) String() string {
	if t < 0 || int(t) >= len(attrTypeNames) {
		return "invalid"
	}
	return attrTypeNames[t]
}

// ParseAttrType converts a type name (as found in xLM or PDI files) to an
// AttrType. Unrecognised names map to TypeUnknown.
func ParseAttrType(s string) AttrType {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "integer", "bigint", "smallint", "long":
		return TypeInt
	case "float", "double", "decimal", "number", "numeric", "real":
		return TypeFloat
	case "string", "varchar", "char", "text":
		return TypeString
	case "date", "timestamp", "datetime", "time":
		return TypeDate
	case "bool", "boolean", "bit":
		return TypeBool
	default:
		return TypeUnknown
	}
}

// IsNumeric reports whether the type is numeric. Several pattern
// prerequisites (e.g. derive-value parallelisation) require numeric fields.
func (t AttrType) IsNumeric() bool { return t == TypeInt || t == TypeFloat }

// ValueKind is the physical Go representation that cells of an attribute
// type use inside a Row. Execution engines that lay rows out column-wise use
// it as the typed-storage hint for each attribute: TypeDate values are
// int64 days-since-epoch, so dates share the int64 kind.
type ValueKind uint8

// Physical value kinds. KindAny is the fallback for attributes whose cells
// have no single Go representation (TypeUnknown, mixed data).
const (
	KindAny ValueKind = iota
	KindInt64
	KindFloat64
	KindString
	KindBool
)

// ValueKind maps the attribute type to its physical cell representation.
func (t AttrType) ValueKind() ValueKind {
	switch t {
	case TypeInt, TypeDate:
		return KindInt64
	case TypeFloat:
		return KindFloat64
	case TypeString:
		return KindString
	case TypeBool:
		return KindBool
	default:
		return KindAny
	}
}

// ValueKinds returns the per-attribute physical kinds in schema order — the
// typed-storage hint a columnar engine uses to build one slice per attribute.
func (s Schema) ValueKinds() []ValueKind {
	out := make([]ValueKind, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = a.Type.ValueKind()
	}
	return out
}

// Attribute is a single named, typed field of an operation schema.
type Attribute struct {
	Name     string
	Type     AttrType
	Nullable bool
	// Key marks attributes that participate in the logical key of the rowset;
	// duplicate detection and crosschecking patterns bind to key attributes.
	Key bool
}

// String renders the attribute as name:type with nullable/key markers.
func (a Attribute) String() string {
	s := a.Name + ":" + a.Type.String()
	if a.Nullable {
		s += "?"
	}
	if a.Key {
		s += "!"
	}
	return s
}

// Schema is an ordered list of attributes describing the rowset that flows
// along an edge of the graph.
type Schema struct {
	Attrs []Attribute
}

// NewSchema builds a schema from the given attributes.
func NewSchema(attrs ...Attribute) Schema {
	return Schema{Attrs: append([]Attribute(nil), attrs...)}
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	return Schema{Attrs: append([]Attribute(nil), s.Attrs...)}
}

// Len returns the number of attributes.
func (s Schema) Len() int { return len(s.Attrs) }

// IsEmpty reports whether the schema has no attributes.
func (s Schema) IsEmpty() bool { return len(s.Attrs) == 0 }

// Index returns the position of the attribute with the given name, or -1.
func (s Schema) Index(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// distinctNames reports whether no two attributes share a name.
func (s Schema) distinctNames() bool {
	for i := 1; i < len(s.Attrs); i++ {
		for j := 0; j < i; j++ {
			if s.Attrs[i].Name == s.Attrs[j].Name {
				return false
			}
		}
	}
	return true
}

// Has reports whether the schema contains an attribute with the given name.
func (s Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Attr returns the attribute with the given name.
func (s Schema) Attr(name string) (Attribute, bool) {
	if i := s.Index(name); i >= 0 {
		return s.Attrs[i], true
	}
	return Attribute{}, false
}

// Names returns the attribute names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = a.Name
	}
	return out
}

// HasNullable reports whether any attribute is nullable. The
// FilterNullValues pattern is only applicable where nullable fields exist.
func (s Schema) HasNullable() bool {
	for _, a := range s.Attrs {
		if a.Nullable {
			return true
		}
	}
	return false
}

// HasNumeric reports whether any attribute is numeric.
func (s Schema) HasNumeric() bool {
	for _, a := range s.Attrs {
		if a.Type.IsNumeric() {
			return true
		}
	}
	return false
}

// HasKey reports whether any attribute is marked as key.
func (s Schema) HasKey() bool {
	for _, a := range s.Attrs {
		if a.Key {
			return true
		}
	}
	return false
}

// Project returns a schema restricted to the named attributes, in the order
// given. Unknown names are skipped.
func (s Schema) Project(names ...string) Schema {
	var out Schema
	for _, n := range names {
		if a, ok := s.Attr(n); ok {
			out.Attrs = append(out.Attrs, a)
		}
	}
	return out
}

// Union merges two schemata: attributes of s first, then attributes of other
// whose names are not already present.
func (s Schema) Union(other Schema) Schema {
	out := s.Clone()
	for _, a := range other.Attrs {
		if !out.Has(a.Name) {
			out.Attrs = append(out.Attrs, a)
		}
	}
	return out
}

// With returns a copy of the schema with the attribute appended (or replaced
// in place when an attribute of the same name already exists).
func (s Schema) With(a Attribute) Schema {
	out := s.Clone()
	if i := out.Index(a.Name); i >= 0 {
		out.Attrs[i] = a
		return out
	}
	out.Attrs = append(out.Attrs, a)
	return out
}

// WithoutNullability returns a copy in which every attribute is non-nullable.
// Cleaning operations that remove rows with nulls produce such schemata.
func (s Schema) WithoutNullability() Schema {
	out := s.Clone()
	for i := range out.Attrs {
		out.Attrs[i].Nullable = false
	}
	return out
}

// Equal reports whether two schemata have identical attribute lists.
func (s Schema) Equal(other Schema) bool {
	if len(s.Attrs) != len(other.Attrs) {
		return false
	}
	for i := range s.Attrs {
		if s.Attrs[i] != other.Attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as (a:int, b:string?, ...).
func (s Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// appendCanonical appends the deterministic rendering fingerprinting uses:
// the attributes' String forms, sorted bytewise and joined by commas, so
// that attribute order does not affect identity. The renderings are built
// in a stack scratch buffer and sorted by span, so a schema of up to 32
// attributes whose renderings fit 512 bytes costs no allocation beyond
// growing b.
func (s Schema) appendCanonical(b []byte) []byte {
	type span struct{ lo, hi int }
	var scratch [512]byte
	var spans [32]span
	buf, sp := scratch[:0], spans[:0]
	for _, a := range s.Attrs {
		lo := len(buf)
		buf = append(append(append(buf, a.Name...), ':'), a.Type.String()...)
		if a.Nullable {
			buf = append(buf, '?')
		}
		if a.Key {
			buf = append(buf, '!')
		}
		sp = append(sp, span{lo, len(buf)})
	}
	slices.SortFunc(sp, func(x, y span) int { return bytes.Compare(buf[x.lo:x.hi], buf[y.lo:y.hi]) })
	for i, x := range sp {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, buf[x.lo:x.hi]...)
	}
	return b
}

// appendOrdered appends a binary encoding of the schema in attribute order:
// each attribute's name, type, key and nullability. Unlike canonical it
// keeps the order, which decides the column positions kernels read.
func (s Schema) appendOrdered(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		var flags byte
		if a.Key {
			flags |= 1
		}
		if a.Nullable {
			flags |= 2
		}
		b = append(appendString(b, a.Name), byte(a.Type), flags)
	}
	return b
}

// Value is a single cell of a row. A nil Value models SQL NULL.
type Value any

// Row is one tuple flowing through the pipeline. Positions correspond to
// schema attributes.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }
