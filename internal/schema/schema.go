package schema

import (
	"fmt"
	"strings"
)

// Field is one named, typed column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// String renders the field as "name:kind".
func (f Field) String() string { return f.Name + ":" + f.Kind.String() }

// Schema is an ordered set of uniquely named fields. Schemas are
// immutable after construction and safe for concurrent use.
type Schema struct {
	fields []Field
	index  map[string]int
}

// New builds a schema from the given fields. It panics on duplicate or
// empty field names; schemas are program constants, so misuse is a bug,
// not a runtime condition.
func New(fields ...Field) *Schema {
	s := &Schema{
		fields: append([]Field(nil), fields...),
		index:  make(map[string]int, len(fields)),
	}
	for i, f := range s.fields {
		if f.Name == "" {
			panic("schema: empty field name")
		}
		if _, dup := s.index[f.Name]; dup {
			panic("schema: duplicate field name " + f.Name)
		}
		s.index[f.Name] = i
	}
	return s
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i'th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field { return append([]Field(nil), s.fields...) }

// Index returns the position of the named field and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex returns the position of the named field, panicking if absent.
// Use for schema-constant lookups where absence indicates a bug.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic("schema: no field named " + name)
	}
	return i
}

// Has reports whether a field with the given name exists.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Equal reports whether two schemas have identical field names and kinds
// in the same order.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || len(s.fields) != len(o.fields) {
		return false
	}
	for i, f := range s.fields {
		if o.fields[i] != f {
			return false
		}
	}
	return true
}

// Extend returns a new schema with extra fields appended. It returns an
// error if any new name collides with an existing one.
func (s *Schema) Extend(extra ...Field) (*Schema, error) {
	for _, f := range extra {
		if s.Has(f.Name) {
			return nil, fmt.Errorf("schema: extend: field %q already exists", f.Name)
		}
	}
	return New(append(s.Fields(), extra...)...), nil
}

// Project returns a new schema containing only the named fields, in the
// given order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	fields := make([]Field, 0, len(names))
	for _, n := range names {
		i, ok := s.Index(n)
		if !ok {
			return nil, fmt.Errorf("schema: project: no field named %q", n)
		}
		fields = append(fields, s.fields[i])
	}
	return New(fields...), nil
}

// String renders the schema as "(a:int, b:string, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is one wide-format record: values positionally aligned with a
// Schema. Rows are plain slices so pipelines can reuse backing arrays.
type Row []Value

// Conforms reports whether every non-null value matches the schema kind.
func (r Row) Conforms(s *Schema) error {
	if len(r) != s.Len() {
		return fmt.Errorf("schema: row has %d values, schema %s has %d fields", len(r), s, s.Len())
	}
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		if v.Kind() != s.Field(i).Kind {
			return fmt.Errorf("schema: field %q expects %v, got %v", s.Field(i).Name, s.Field(i).Kind, v.Kind())
		}
	}
	return nil
}

// Equal reports deep equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the row as "[v1 v2 ...]".
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
