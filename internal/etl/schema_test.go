package etl

import (
	"testing"
	"testing/quick"
)

func TestParseAttrType(t *testing.T) {
	cases := map[string]AttrType{
		"int": TypeInt, "Integer": TypeInt, "BIGINT": TypeInt, "long": TypeInt,
		"float": TypeFloat, "double": TypeFloat, "Decimal": TypeFloat, "numeric": TypeFloat,
		"string": TypeString, "VARCHAR": TypeString, "text": TypeString,
		"date": TypeDate, "timestamp": TypeDate, "datetime": TypeDate,
		"bool": TypeBool, "Boolean": TypeBool, "bit": TypeBool,
		"blob": TypeUnknown, "": TypeUnknown,
	}
	for in, want := range cases {
		if got := ParseAttrType(in); got != want {
			t.Errorf("ParseAttrType(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestAttrTypeRoundTrip(t *testing.T) {
	for _, typ := range []AttrType{TypeInt, TypeFloat, TypeString, TypeDate, TypeBool} {
		if got := ParseAttrType(typ.String()); got != typ {
			t.Errorf("round trip %v -> %q -> %v", typ, typ.String(), got)
		}
	}
}

func TestAttrTypeString_OutOfRange(t *testing.T) {
	if got := AttrType(99).String(); got != "invalid" {
		t.Errorf("AttrType(99).String() = %q", got)
	}
	if got := AttrType(-1).String(); got != "invalid" {
		t.Errorf("AttrType(-1).String() = %q", got)
	}
}

func TestIsNumeric(t *testing.T) {
	if !TypeInt.IsNumeric() || !TypeFloat.IsNumeric() {
		t.Error("int/float should be numeric")
	}
	if TypeString.IsNumeric() || TypeDate.IsNumeric() || TypeBool.IsNumeric() {
		t.Error("string/date/bool should not be numeric")
	}
}

func testSchema() Schema {
	return NewSchema(
		Attribute{Name: "id", Type: TypeInt, Key: true},
		Attribute{Name: "name", Type: TypeString, Nullable: true},
		Attribute{Name: "price", Type: TypeFloat},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.IsEmpty() {
		t.Fatal("IsEmpty on non-empty schema")
	}
	if s.Index("name") != 1 {
		t.Errorf("Index(name) = %d", s.Index("name"))
	}
	if s.Index("missing") != -1 {
		t.Errorf("Index(missing) = %d", s.Index("missing"))
	}
	if !s.Has("price") || s.Has("qty") {
		t.Error("Has misbehaves")
	}
	a, ok := s.Attr("id")
	if !ok || a.Type != TypeInt || !a.Key {
		t.Errorf("Attr(id) = %+v, %v", a, ok)
	}
	if got := s.Names(); len(got) != 3 || got[0] != "id" || got[2] != "price" {
		t.Errorf("Names = %v", got)
	}
	if keys := s.Keys(); len(keys) != 1 || keys[0].Name != "id" {
		t.Errorf("Keys = %v", keys)
	}
	if !s.HasNullable() || !s.HasNumeric() || !s.HasKey() {
		t.Error("Has* predicates misbehave")
	}
}

func TestSchemaCloneIndependence(t *testing.T) {
	s := testSchema()
	c := s.Clone()
	c.Attrs[0].Name = "changed"
	if s.Attrs[0].Name != "id" {
		t.Error("Clone shares backing array")
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema()
	p := s.Project("price", "id", "bogus")
	if p.Len() != 2 || p.Attrs[0].Name != "price" || p.Attrs[1].Name != "id" {
		t.Errorf("Project = %v", p)
	}
}

func TestSchemaUnion(t *testing.T) {
	s := testSchema()
	other := NewSchema(
		Attribute{Name: "id", Type: TypeInt},
		Attribute{Name: "qty", Type: TypeInt},
	)
	u := s.Union(other)
	if u.Len() != 4 || !u.Has("qty") {
		t.Errorf("Union = %v", u)
	}
	// first occurrence wins
	a, _ := u.Attr("id")
	if !a.Key {
		t.Error("Union did not preserve first occurrence of id")
	}
}

func TestSchemaWith(t *testing.T) {
	s := testSchema()
	s2 := s.With(Attribute{Name: "qty", Type: TypeInt})
	if s2.Len() != 4 || s.Len() != 3 {
		t.Errorf("With should add and not mutate: %v / %v", s2, s)
	}
	s3 := s2.With(Attribute{Name: "qty", Type: TypeFloat})
	a, _ := s3.Attr("qty")
	if s3.Len() != 4 || a.Type != TypeFloat {
		t.Errorf("With should replace in place: %v", s3)
	}
}

func TestSchemaWithoutNullability(t *testing.T) {
	s := testSchema().WithoutNullability()
	if s.HasNullable() {
		t.Error("WithoutNullability left nullable attributes")
	}
}

func TestSchemaEqualAndCompatible(t *testing.T) {
	s := testSchema()
	if !s.Equal(s.Clone()) {
		t.Error("schema not equal to its clone")
	}
	if s.Equal(s.Project("id")) {
		t.Error("different schemata reported equal")
	}
	sub := s.Project("id", "price")
	if !s.Compatible(sub) {
		t.Error("superset schema should be compatible with subset")
	}
	if sub.Compatible(s) {
		t.Error("subset schema should not satisfy superset")
	}
	wrongType := NewSchema(Attribute{Name: "id", Type: TypeString})
	if s.Compatible(wrongType) {
		t.Error("type mismatch should break compatibility")
	}
}

func TestSchemaString(t *testing.T) {
	s := NewSchema(
		Attribute{Name: "a", Type: TypeInt, Key: true},
		Attribute{Name: "b", Type: TypeString, Nullable: true},
	)
	want := "(a:int!, b:string?)"
	if got := s.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSchemaCanonicalOrderIndependent(t *testing.T) {
	s1 := NewSchema(
		Attribute{Name: "a", Type: TypeInt},
		Attribute{Name: "b", Type: TypeString},
	)
	s2 := NewSchema(
		Attribute{Name: "b", Type: TypeString},
		Attribute{Name: "a", Type: TypeInt},
	)
	if s1.canonical() != s2.canonical() {
		t.Error("canonical form should ignore attribute order")
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{int64(1), nil, "x"}
	c := r.Clone()
	c[0] = int64(2)
	if r[0] != int64(1) {
		t.Error("Clone shares storage")
	}
}

// Property: Union is idempotent and its length is bounded by the sum of
// operand lengths.
func TestSchemaUnionProperties(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	mk := func(mask uint8) Schema {
		var s Schema
		for i, n := range names {
			if mask&(1<<i) != 0 {
				s.Attrs = append(s.Attrs, Attribute{Name: n, Type: TypeInt})
			}
		}
		return s
	}
	prop := func(m1, m2 uint8) bool {
		s1, s2 := mk(m1&31), mk(m2&31)
		u := s1.Union(s2)
		if u.Len() > s1.Len()+s2.Len() {
			return false
		}
		if !u.Union(s2).Equal(u) { // idempotence
			return false
		}
		for _, a := range s1.Attrs {
			if !u.Has(a.Name) {
				return false
			}
		}
		for _, a := range s2.Attrs {
			if !u.Has(a.Name) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
