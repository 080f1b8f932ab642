package lera

// Schema inference over LERA terms. The rewriter's external functions
// (REFER, SCHEMA, the type-checking constraints) and the execution engine
// both need to know the output schema of any relational subterm; this file
// computes it from the catalog, handling FIX- and LET-bound names through
// an environment.

import (
	"fmt"
	"strings"

	"lera/internal/catalog"
	"lera/internal/term"
	"lera/internal/types"
	"lera/internal/value"
)

// Schema is the ordered, typed column list of a relational expression.
type Schema struct {
	Cols []catalog.Column
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Cols) }

// Col returns the 1-based column (name, type); ok is false out of range.
func (s *Schema) Col(j int) (catalog.Column, bool) {
	if j < 1 || j > len(s.Cols) {
		return catalog.Column{}, false
	}
	return s.Cols[j-1], true
}

// String renders "name:TYPE, ..." for traces and tests.
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Name + ":" + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Env maps FIX/LET-bound relation names to their schemas during
// inference.
type Env map[string]*Schema

func (e Env) clone() Env {
	ne := Env{}
	for k, v := range e {
		ne[k] = v
	}
	return ne
}

// Infer computes the output schema of a relational LERA term.
func Infer(t *term.Term, cat *catalog.Catalog, env Env) (*Schema, error) {
	if env == nil {
		env = Env{}
	}
	switch {
	case IsOp(t, OpRel):
		name, _ := RelName(t)
		if s, ok := env[strings.ToUpper(name)]; ok {
			return s, nil
		}
		if r, ok := cat.Relation(name); ok {
			return &Schema{Cols: r.Columns}, nil
		}
		if v, ok := cat.View(name); ok {
			return &Schema{Cols: v.Columns}, nil
		}
		return nil, fmt.Errorf("lera: unknown relation %q", name)

	case IsOp(t, OpSearch):
		rels := t.Args[0].Args
		schemas := make([]*Schema, len(rels))
		for i, r := range rels {
			s, err := Infer(r, cat, env)
			if err != nil {
				return nil, err
			}
			schemas[i] = s
		}
		out := &Schema{}
		for k, p := range t.Args[2].Args {
			ty, err := TypeOf(p, schemas, cat)
			if err != nil {
				return nil, err
			}
			out.Cols = append(out.Cols, catalog.Column{Name: exprName(p, schemas, k), Type: ty})
		}
		return out, nil

	case IsOp(t, OpFilter):
		return Infer(t.Args[0], cat, env)

	case IsOp(t, OpJoin):
		a, err := Infer(t.Args[0], cat, env)
		if err != nil {
			return nil, err
		}
		b, err := Infer(t.Args[1], cat, env)
		if err != nil {
			return nil, err
		}
		return &Schema{Cols: append(append([]catalog.Column(nil), a.Cols...), b.Cols...)}, nil

	case IsOp(t, OpUnion), IsOp(t, OpInter):
		members := t.Args[0].Args
		if len(members) == 0 {
			return nil, fmt.Errorf("lera: empty %s", t.Functor)
		}
		first, err := Infer(members[0], cat, env)
		if err != nil {
			return nil, err
		}
		for _, m := range members[1:] {
			s, err := Infer(m, cat, env)
			if err != nil {
				return nil, err
			}
			if s.Arity() != first.Arity() {
				return nil, fmt.Errorf("lera: %s members have arities %d and %d", t.Functor, first.Arity(), s.Arity())
			}
		}
		return first, nil

	case IsOp(t, OpDiff):
		a, err := Infer(t.Args[0], cat, env)
		if err != nil {
			return nil, err
		}
		b, err := Infer(t.Args[1], cat, env)
		if err != nil {
			return nil, err
		}
		if a.Arity() != b.Arity() {
			return nil, fmt.Errorf("lera: DIFF operands have arities %d and %d", a.Arity(), b.Arity())
		}
		return a, nil

	case IsOp(t, OpFix):
		name := strings.ToUpper(t.Args[0].Val.S)
		cols := t.Args[2].Args
		// Provisional schema: declared names, ANY types; refine by
		// inferring the body once.
		prov := &Schema{}
		for _, c := range cols {
			prov.Cols = append(prov.Cols, catalog.Column{Name: c.Val.S, Type: cat.Types.AnyT})
		}
		inner := env.clone()
		inner[name] = prov
		body, err := Infer(t.Args[1], cat, inner)
		if err != nil {
			return nil, err
		}
		if body.Arity() != prov.Arity() {
			return nil, fmt.Errorf("lera: FIX %s body arity %d, declared %d", name, body.Arity(), prov.Arity())
		}
		out := &Schema{}
		for i, c := range prov.Cols {
			out.Cols = append(out.Cols, catalog.Column{Name: c.Name, Type: body.Cols[i].Type})
		}
		return out, nil

	case IsOp(t, OpLet):
		name := strings.ToUpper(t.Args[0].Val.S)
		def, err := Infer(t.Args[1], cat, env)
		if err != nil {
			return nil, err
		}
		inner := env.clone()
		inner[name] = def
		return Infer(t.Args[2], cat, inner)

	case IsOp(t, OpNest):
		in, err := Infer(t.Args[0], cat, env)
		if err != nil {
			return nil, err
		}
		nested := map[int]bool{}
		var nestedCols []catalog.Column
		for _, ix := range t.Args[1].Args {
			j, ok := IntConst(ix)
			if !ok {
				return nil, fmt.Errorf("lera: NEST index %s is not an integer", ix)
			}
			c, ok := in.Col(j)
			if !ok {
				return nil, fmt.Errorf("lera: NEST index %d out of range", j)
			}
			nested[j] = true
			nestedCols = append(nestedCols, c)
		}
		out := &Schema{}
		for j := 1; j <= in.Arity(); j++ {
			if !nested[j] {
				c, _ := in.Col(j)
				out.Cols = append(out.Cols, c)
			}
		}
		var elem *types.Type
		if len(nestedCols) == 1 {
			elem = nestedCols[0].Type
		} else {
			elem = &types.Type{Name: "_nested", Kind: types.Tuple}
			for _, c := range nestedCols {
				elem.Fields = append(elem.Fields, types.Field{Name: c.Name, Type: c.Type})
			}
		}
		out.Cols = append(out.Cols, catalog.Column{
			Name: t.Args[2].Val.S,
			Type: cat.Types.Collection(valueKindSet, elem),
		})
		return out, nil

	case IsOp(t, OpUnnest):
		in, err := Infer(t.Args[0], cat, env)
		if err != nil {
			return nil, err
		}
		j, ok := IntConst(t.Args[1])
		if !ok {
			return nil, fmt.Errorf("lera: UNNEST index %s is not an integer", t.Args[1])
		}
		c, ok := in.Col(j)
		if !ok {
			return nil, fmt.Errorf("lera: UNNEST index %d out of range", j)
		}
		out := &Schema{Cols: append([]catalog.Column(nil), in.Cols...)}
		elem := cat.Types.AnyT
		if c.Type != nil && c.Type.Kind == types.Collection && c.Type.Elem != nil {
			elem = c.Type.Elem
		}
		out.Cols[j-1] = catalog.Column{Name: c.Name, Type: elem}
		return out, nil
	}
	return nil, fmt.Errorf("lera: %s is not a relational operator", t)
}

// TypeOf infers the type of a qualification or projection expression given
// the schemas of the enclosing operator's relation list.
func TypeOf(e *term.Term, rels []*Schema, cat *catalog.Catalog) (*types.Type, error) {
	switch e.Kind {
	case term.Const:
		return cat.Types.TypeOfValue(e.Val), nil
	case term.Var, term.SeqVar:
		return cat.Types.AnyT, nil
	}
	switch e.Functor {
	case EAttr:
		i, j, _ := AttrIdx(e)
		if i < 1 || i > len(rels) {
			return nil, fmt.Errorf("lera: attribute %d.%d: relation index out of range (1..%d)", i, j, len(rels))
		}
		c, ok := rels[i-1].Col(j)
		if !ok {
			return nil, fmt.Errorf("lera: attribute %d.%d: column index out of range (1..%d)", i, j, rels[i-1].Arity())
		}
		return c.Type, nil

	case EValue:
		// VALUE(oid) has the object's tuple type.
		return TypeOf(e.Args[0], rels, cat)

	case EProject:
		base, err := TypeOf(e.Args[0], rels, cat)
		if err != nil {
			return nil, err
		}
		field := e.Args[1].Val.S
		// Broadcast over collections of tuples (§2.2: "the application
		// of the projection function to a set of tuples gives the set of
		// projected tuples").
		if base != nil && base.Kind == types.Collection && base.Elem != nil {
			if ft, ok := base.Elem.FieldType(field); ok {
				return cat.Types.Collection(base.CollKind, ft), nil
			}
		}
		if ft, ok := base.FieldType(field); ok {
			return ft, nil
		}
		return cat.Types.AnyT, nil

	case ECall:
		name, _ := CallName(e)
		// Attribute-as-function: NAME(x) on a tuple- or object-typed x.
		if len(e.Args) == 2 {
			base, err := TypeOf(e.Args[1], rels, cat)
			if err != nil {
				return nil, err
			}
			if base != nil && base.Kind == types.Collection && base.Elem != nil {
				if ft, ok := base.Elem.FieldType(name); ok {
					return cat.Types.Collection(base.CollKind, ft), nil
				}
			}
			if ft, ok := base.FieldType(name); ok {
				return ft, nil
			}
		}
		return builtinResultType(name, e.Args[1:], rels, cat)

	case EAnds, EOrs, ENot, "=", "<>", "<", ">", "<=", ">=":
		return cat.Types.Bool, nil
	case "+", "-", "*", "/", "NEG":
		return cat.Types.Numeric, nil
	}
	return builtinResultType(e.Functor, e.Args, rels, cat)
}

// builtinResultType types the built-in ADT functions that qualifications
// use; unknown functions type as ANY.
func builtinResultType(name string, args []*term.Term, rels []*Schema, cat *catalog.Catalog) (*types.Type, error) {
	switch strings.ToUpper(name) {
	case "MEMBER", "ISEMPTY", "INCLUDE", "EQUAL", "ALL", "EXIST", "OVERLAPS":
		return cat.Types.Bool, nil
	case "COUNT", "LENGTH":
		return cat.Types.Int, nil
	case "CONCAT":
		return cat.Types.Char, nil
	case "UNION", "INTERSECTION", "DIFFERENCE", "INSERT", "REMOVE":
		if len(args) >= 1 {
			return TypeOf(args[0], rels, cat)
		}
		return cat.Types.AnyT, nil
	case "CHOICE", "FIRST", "LAST":
		if len(args) >= 1 {
			t, err := TypeOf(args[0], rels, cat)
			if err != nil {
				return nil, err
			}
			if t != nil && t.Kind == types.Collection && t.Elem != nil {
				return t.Elem, nil
			}
		}
		return cat.Types.AnyT, nil
	case "MAKESET":
		if len(args) >= 1 {
			t, err := TypeOf(args[0], rels, cat)
			if err != nil {
				return nil, err
			}
			return cat.Types.Collection(valueKindSet, t), nil
		}
		return cat.Types.AnyT, nil
	case term.FSet, term.FBag, term.FList, term.FArray:
		elem := cat.Types.AnyT
		if len(args) > 0 {
			t, err := TypeOf(args[0], rels, cat)
			if err == nil {
				elem = t
			}
		}
		return cat.Types.Collection(kindOfConstructor(name), elem), nil
	}
	return cat.Types.AnyT, nil
}

// exprName derives an output column name from a projection expression:
// source column names survive ATTR references, PROJECT/CALL use the field
// or function name, anything else gets a positional name.
func exprName(p *term.Term, rels []*Schema, k int) string {
	if i, j, ok := AttrIdx(p); ok && i >= 1 && i <= len(rels) {
		if c, ok := rels[i-1].Col(j); ok {
			return c.Name
		}
	}
	if IsOp(p, EProject) {
		return p.Args[1].Val.S
	}
	if name, ok := CallName(p); ok {
		return name
	}
	return fmt.Sprintf("col%d", k+1)
}

// valueKindSet avoids importing value in two files for one constant.
const valueKindSet = value.KSet

func kindOfConstructor(name string) value.Kind {
	switch strings.ToUpper(name) {
	case term.FSet:
		return value.KSet
	case term.FBag:
		return value.KBag
	case term.FList:
		return value.KList
	case term.FArray:
		return value.KArray
	}
	return value.KNull
}
