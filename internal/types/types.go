// Package types implements the ESQL type system of the paper's Section 2:
// user-definable abstract data types (ADTs), the generic collection ADTs of
// Figure 1 organised in an inheritance hierarchy rooted at COLLECTION,
// tuple types, object types with identity, enumerations and subtyping.
//
// The ISA relation of this package is exactly the ISA predicate of the
// paper's rule-language constraints (Section 4.1): ISA(x, y) is true if the
// type of x is y or a subtype of y.
package types

import (
	"fmt"
	"strings"

	"lera/internal/value"
)

// Kind discriminates type structure.
type Kind int

// Type kinds. Basic covers the built-in scalar types.
const (
	Basic Kind = iota
	Enum
	Tuple
	Collection
	Any // top type, used by generic function signatures
)

// Field is a named, typed tuple component.
type Field struct {
	Name string
	Type *Type
}

// Type describes an ESQL type. Types are interned in a Registry; pointer
// identity is not significant, Name is.
type Type struct {
	Name string
	Kind Kind

	// Super is the declared supertype (SUBTYPE OF ...), or the implicit
	// supertype for collections (SET OF T isa COLLECTION OF T isa
	// COLLECTION). Nil for roots.
	Super *Type

	// IsObject marks object types: instances carry an object identifier
	// and are referentially shared (Section 2.1).
	IsObject bool

	// Elem is the element type for collections.
	Elem *Type
	// CollKind is the value kind (KSet, KBag, KList, KArray) for concrete
	// collections; KNull for the abstract COLLECTION type.
	CollKind value.Kind

	// Fields are the components of tuple types.
	Fields []Field

	// EnumVals are the values of enumeration types, in declaration order.
	EnumVals []string
}

// String renders the type in ESQL-ish syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Collection:
		if t.Elem == nil {
			return t.Name
		}
		if strings.HasPrefix(t.Name, "_") { // anonymous
			return collName(t.CollKind) + " OF " + t.Elem.String()
		}
		return t.Name
	default:
		return t.Name
	}
}

func collName(k value.Kind) string {
	switch k {
	case value.KSet:
		return "SET"
	case value.KBag:
		return "BAG"
	case value.KList:
		return "LIST"
	case value.KArray:
		return "ARRAY"
	}
	return "COLLECTION"
}

// FieldType returns the type of a named field of a tuple type.
func (t *Type) FieldType(name string) (*Type, bool) {
	if t == nil || t.Kind != Tuple {
		return nil, false
	}
	for _, f := range t.Fields {
		if strings.EqualFold(f.Name, name) {
			return f.Type, true
		}
	}
	// Inherited fields from the supertype chain (Actor SUBTYPE OF Person).
	if t.Super != nil {
		return t.Super.FieldType(name)
	}
	return nil, false
}

// AllFields returns the fields of a tuple type including inherited ones,
// supertype fields first (as subtypes extend their parents).
func (t *Type) AllFields() []Field {
	if t == nil || t.Kind != Tuple {
		return nil
	}
	var out []Field
	if t.Super != nil && t.Super.Kind == Tuple {
		out = append(out, t.Super.AllFields()...)
	}
	return append(out, t.Fields...)
}

// HasEnumValue reports whether v is one of the enumeration's values.
func (t *Type) HasEnumValue(v string) bool {
	if t == nil || t.Kind != Enum {
		return false
	}
	for _, e := range t.EnumVals {
		if e == v {
			return true
		}
	}
	return false
}

// Registry holds all known types and implements name resolution, the
// collection hierarchy of Figure 1 and the ISA relation.
type Registry struct {
	byName map[string]*Type

	// Built-in roots, exposed for convenience.
	Int, Real, Numeric, Char, Bool, AnyT *Type
	CollectionT                          *Type

	anon int // counter for anonymous collection type names
}

// NewRegistry creates a registry pre-populated with the built-in scalar
// types and the generic collection root of Figure 1.
func NewRegistry() *Registry {
	r := &Registry{byName: map[string]*Type{}}
	add := func(t *Type) *Type { r.byName[strings.ToUpper(t.Name)] = t; return t }
	r.Int = add(&Type{Name: "INT", Kind: Basic})
	r.Real = add(&Type{Name: "REAL", Kind: Basic})
	// NUMERIC is the paper's catch-all numeric; INT and REAL are its
	// subtypes so ISA(Salary, NUMERIC) holds for both.
	r.Numeric = add(&Type{Name: "NUMERIC", Kind: Basic})
	r.Int.Super = r.Numeric
	r.Real.Super = r.Numeric
	r.Char = add(&Type{Name: "CHAR", Kind: Basic})
	r.Bool = add(&Type{Name: "BOOLEAN", Kind: Basic})
	r.AnyT = add(&Type{Name: "ANY", Kind: Any})
	r.CollectionT = add(&Type{Name: "COLLECTION", Kind: Collection, CollKind: value.KNull})
	return r
}

// Lookup resolves a type by name, case-insensitively.
func (r *Registry) Lookup(name string) (*Type, bool) {
	t, ok := r.byName[strings.ToUpper(name)]
	return t, ok
}

// MustLookup resolves a type by name or panics; for tests and built-ins.
func (r *Registry) MustLookup(name string) *Type {
	t, ok := r.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("types: unknown type %q", name))
	}
	return t
}

// Declare registers a named type. It fails if the name is already taken.
func (r *Registry) Declare(t *Type) error {
	key := strings.ToUpper(t.Name)
	if _, dup := r.byName[key]; dup {
		return fmt.Errorf("types: type %q already declared", t.Name)
	}
	r.byName[key] = t
	return nil
}

// DeclareEnum registers an enumeration type (TYPE name ENUMERATION OF ...).
func (r *Registry) DeclareEnum(name string, vals []string) (*Type, error) {
	t := &Type{Name: name, Kind: Enum, EnumVals: append([]string(nil), vals...), Super: r.Char}
	if err := r.Declare(t); err != nil {
		return nil, err
	}
	return t, nil
}

// DeclareTuple registers a tuple type (TYPE name TUPLE (...)); object
// reports whether it is an OBJECT TUPLE type; super may be nil or a
// declared supertype (SUBTYPE OF).
func (r *Registry) DeclareTuple(name string, fields []Field, object bool, super *Type) (*Type, error) {
	t := &Type{Name: name, Kind: Tuple, Fields: append([]Field(nil), fields...), IsObject: object, Super: super}
	if err := r.Declare(t); err != nil {
		return nil, err
	}
	return t, nil
}

// DeclareCollection registers a named collection type such as
// TYPE SetCategory SET OF Category.
func (r *Registry) DeclareCollection(name string, kind value.Kind, elem *Type) (*Type, error) {
	if !kind.IsCollection() {
		return nil, fmt.Errorf("types: %s is not a collection kind", kind)
	}
	t := &Type{Name: name, Kind: Collection, CollKind: kind, Elem: elem, Super: r.CollectionT}
	if err := r.Declare(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Collection returns (interning per element type and kind) the anonymous
// collection type "KIND OF elem"; used by type inference.
func (r *Registry) Collection(kind value.Kind, elem *Type) *Type {
	key := "_" + collName(kind) + " OF " + strings.ToUpper(elem.Name)
	if t, ok := r.byName[key]; ok {
		return t
	}
	r.anon++
	t := &Type{Name: key, Kind: Collection, CollKind: kind, Elem: elem, Super: r.CollectionT}
	r.byName[key] = t
	return t
}

// ISA reports whether sub is t or a (transitive) subtype of t. This is the
// ISA predicate of the paper's rule constraints. The collection hierarchy
// of Figure 1 is built in: every SET/BAG/LIST/ARRAY type is a subtype of
// COLLECTION; element types are covariant (SET OF Actor ISA SET OF Person
// when Actor ISA Person). ANY is the top type.
func (r *Registry) ISA(sub, t *Type) bool {
	if sub == nil || t == nil {
		return false
	}
	if t.Kind == Any {
		return true
	}
	if sub == t || strings.EqualFold(sub.Name, t.Name) {
		return true
	}
	// Collection structural subtyping.
	if sub.Kind == Collection && t.Kind == Collection {
		if t.Elem == nil && t.CollKind == value.KNull {
			return true // anything collection-ish ISA COLLECTION
		}
		if t.CollKind != value.KNull && sub.CollKind != t.CollKind {
			return false
		}
		if t.Elem == nil {
			return true
		}
		if sub.Elem == nil {
			return false
		}
		return r.ISA(sub.Elem, t.Elem)
	}
	if sub.Super != nil {
		return r.ISA(sub.Super, t)
	}
	return false
}

// ISAName is ISA by type names; unknown names are never related.
func (r *Registry) ISAName(sub, super string) bool {
	s, ok1 := r.Lookup(sub)
	t, ok2 := r.Lookup(super)
	return ok1 && ok2 && r.ISA(s, t)
}

// TypeOfValue infers the most specific built-in type of a runtime value.
// Declared user types cannot always be recovered from a bare value; this is
// used for literals during type checking.
func (r *Registry) TypeOfValue(v value.Value) *Type {
	switch v.K {
	case value.KBool:
		return r.Bool
	case value.KInt:
		return r.Int
	case value.KReal:
		return r.Real
	case value.KString:
		return r.Char
	case value.KSet, value.KBag, value.KList, value.KArray:
		elem := r.AnyT
		if len(v.Elems) > 0 {
			elem = r.TypeOfValue(v.Elems[0])
		}
		return r.Collection(v.K, elem)
	case value.KTuple:
		names := v.Names()
		fields := make([]Field, len(names))
		for i, n := range names {
			fields[i] = Field{Name: n, Type: r.TypeOfValue(v.Elems[i])}
		}
		return &Type{Name: "_tuple", Kind: Tuple, Fields: fields}
	}
	return r.AnyT
}
