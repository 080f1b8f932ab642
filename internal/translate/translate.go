// Package translate turns ESQL ASTs into catalog declarations and LERA
// terms — the "straightforward translation of an ESQL query into a LERA
// functional expression" that precedes rule-based rewriting (Section 5).
//
// Views are expanded at their use sites; recursive views become the
// fixpoint operator of §3.2; GROUP BY with MakeSet becomes NEST (§3.4).
// Function applications are emitted in raw CALL form; the type-checking
// rule block later "infers types and adds the necessary conversion
// functions" (§3.3).
//
// Every error an exported function returns that no other layer typed is
// guard.ErrInvalid (code INVALID): the statement parsed, and the catalog
// refuses it.
package translate

import (
	"fmt"
	"strings"

	"lera/internal/catalog"
	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/types"
	"lera/internal/value"
)

// DeclareType registers a TYPE declaration in the catalog.
func DeclareType(cat *catalog.Catalog, d *esql.TypeDecl) (err error) {
	defer func() { err = guard.Invalid(err) }()
	switch d.Kind {
	case esql.TypeEnum:
		_, err := cat.Types.DeclareEnum(d.Name, d.EnumVals)
		return err
	case esql.TypeTuple:
		var super *types.Type
		if d.Super != "" {
			s, ok := cat.Types.Lookup(d.Super)
			if !ok {
				return fmt.Errorf("translate: unknown supertype %q", d.Super)
			}
			super = s
		}
		fields := make([]types.Field, len(d.Fields))
		for i, f := range d.Fields {
			ft, err := resolveTypeRef(cat, f.Type)
			if err != nil {
				return err
			}
			fields[i] = types.Field{Name: f.Name, Type: ft}
		}
		_, err := cat.Types.DeclareTuple(d.Name, fields, d.Object, super)
		return err
	case esql.TypeColl:
		elem, err := resolveTypeRef(cat, d.Elem)
		if err != nil {
			return err
		}
		_, err = cat.Types.DeclareCollection(d.Name, d.CollKind, elem)
		return err
	}
	return fmt.Errorf("translate: unknown TYPE declaration kind")
}

func resolveTypeRef(cat *catalog.Catalog, r *esql.TypeRef) (*types.Type, error) {
	if r == nil {
		return cat.Types.AnyT, nil
	}
	if r.Name != "" {
		t, ok := cat.Types.Lookup(r.Name)
		if !ok {
			return nil, fmt.Errorf("translate: unknown type %q", r.Name)
		}
		return t, nil
	}
	if len(r.Fields) > 0 {
		fields := make([]types.Field, len(r.Fields))
		for i, f := range r.Fields {
			ft, err := resolveTypeRef(cat, f.Type)
			if err != nil {
				return nil, err
			}
			fields[i] = types.Field{Name: f.Name, Type: ft}
		}
		return &types.Type{Name: "_tuple", Kind: types.Tuple, Fields: fields}, nil
	}
	elem, err := resolveTypeRef(cat, r.Elem)
	if err != nil {
		return nil, err
	}
	return cat.Types.Collection(r.CollKind, elem), nil
}

// DeclareTable registers a TABLE declaration.
func DeclareTable(cat *catalog.Catalog, d *esql.TableDecl) error {
	cols := make([]catalog.Column, len(d.Cols))
	for i, c := range d.Cols {
		ct, err := resolveTypeRef(cat, c.Type)
		if err != nil {
			return guard.Invalid(err)
		}
		cols[i] = catalog.Column{Name: c.Name, Type: ct}
	}
	_, err := cat.DeclareRelation(d.Name, cols)
	return err
}

// DeclareView translates and registers a view. Recursive views become FIX
// terms (§3.2); their column list is required. Non-recursive views infer
// their schema from the translated body, renamed to declared columns when
// given.
func DeclareView(cat *catalog.Catalog, v *esql.ViewDecl) (_ *catalog.View, err error) {
	defer func() { err = guard.Invalid(err) }()
	recursive := v.Recursive()
	if recursive && len(v.Cols) == 0 {
		return nil, fmt.Errorf("translate: recursive view %s requires a column list", v.Name)
	}
	tr := &translator{cat: cat}
	if recursive {
		// References to the view inside its own body resolve to a
		// fix-bound relation whose schema is the declared column list.
		provisional := make([]catalog.Column, len(v.Cols))
		for i, c := range v.Cols {
			provisional[i] = catalog.Column{Name: c, Type: cat.Types.AnyT}
		}
		tr.selfName = v.Name
		tr.selfCols = provisional
	}
	var arms []*term.Term
	for _, s := range v.Selects {
		t, err := tr.translateSelect(s, v.Cols)
		if err != nil {
			return nil, fmt.Errorf("translate: view %s: %w", v.Name, err)
		}
		arms = append(arms, t)
	}
	var def *term.Term
	if len(arms) == 1 {
		def = arms[0]
	} else {
		def = lera.Union(arms...)
	}
	if recursive {
		def = lera.Fix(v.Name, def, v.Cols)
	}
	schema, err := lera.Infer(def, cat, nil)
	if err != nil {
		return nil, fmt.Errorf("translate: view %s: %w", v.Name, err)
	}
	cols := schema.Cols
	if len(v.Cols) > 0 {
		if len(v.Cols) != len(cols) {
			return nil, fmt.Errorf("translate: view %s declares %d columns, body has %d", v.Name, len(v.Cols), len(cols))
		}
		named := make([]catalog.Column, len(cols))
		for i := range cols {
			named[i] = catalog.Column{Name: v.Cols[i], Type: cols[i].Type}
		}
		cols = named
	}
	view := &catalog.View{Name: v.Name, Columns: cols, Def: def, Recursive: recursive}
	if err := cat.DeclareView(view); err != nil {
		return nil, err
	}
	return view, nil
}

// Select translates a SELECT statement into a LERA term.
func Select(cat *catalog.Catalog, s *esql.Select) (*term.Term, error) {
	tr := &translator{cat: cat}
	t, err := tr.translateSelect(s, nil)
	return t, guard.Invalid(err)
}

// Insert evaluates an INSERT statement's literal rows.
func Insert(cat *catalog.Catalog, ins *esql.InsertStmt) (string, [][]value.Value, error) {
	rows := make([][]value.Value, len(ins.Rows))
	for i, r := range ins.Rows {
		row := make([]value.Value, len(r))
		for j, e := range r {
			v, err := evalLiteral(cat, e)
			if err != nil {
				return "", nil, guard.Invalid(fmt.Errorf("translate: INSERT row %d: %w", i+1, err))
			}
			row[j] = v
		}
		rows[i] = row
	}
	return ins.Table, rows, nil
}

// Literal evaluates a constant expression (literals, collection and
// tuple literals, constant ADT calls and arithmetic) to a value. The
// EXECUTE path uses it to type-check prepared-statement arguments.
func Literal(cat *catalog.Catalog, e esql.Expr) (value.Value, error) {
	v, err := evalLiteral(cat, e)
	return v, guard.Invalid(err)
}

func evalLiteral(cat *catalog.Catalog, e esql.Expr) (value.Value, error) {
	switch x := e.(type) {
	case *esql.Lit:
		return x.Val, nil
	case *esql.CollLit:
		elems := make([]value.Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := evalLiteral(cat, el)
			if err != nil {
				return value.Null, err
			}
			elems[i] = v
		}
		switch x.Kind {
		case value.KSet:
			return value.NewSet(elems...), nil
		case value.KBag:
			return value.NewBag(elems...), nil
		case value.KList:
			return value.NewList(elems...), nil
		default:
			return value.NewArray(elems...), nil
		}
	case *esql.TupleLit:
		elems := make([]value.Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := evalLiteral(cat, el)
			if err != nil {
				return value.Null, err
			}
			elems[i] = v
		}
		return value.NewTuple(x.Names, elems), nil
	case *esql.App:
		// Pure constant folding through the ADT registry (e.g. a
		// MakeSet('a') literal or an OID constructor extension).
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := evalLiteral(cat, a)
			if err != nil {
				return value.Null, err
			}
			args[i] = v
		}
		return cat.ADTs.Call(x.Fn, args)
	case *esql.Bin:
		l, err := evalLiteral(cat, x.L)
		if err != nil {
			return value.Null, err
		}
		r, err := evalLiteral(cat, x.R)
		if err != nil {
			return value.Null, err
		}
		return cat.ADTs.Call(x.Op, []value.Value{l, r})
	}
	return value.Null, fmt.Errorf("non-literal expression in VALUES")
}

// --- SELECT translation ---

type fromItem struct {
	name  string // table/view name
	alias string
	cols  []catalog.Column
	rel   *term.Term // the LERA term for this FROM position
}

type translator struct {
	cat      *catalog.Catalog
	selfName string // recursive view being defined, "" otherwise
	selfCols []catalog.Column
	items    []fromItem
}

func (tr *translator) translateSelect(s *esql.Select, declaredCols []string) (*term.Term, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("empty FROM clause")
	}
	prev := tr.items
	defer func() { tr.items = prev }()
	tr.items = nil
	for _, f := range s.From {
		item, err := tr.resolveFrom(f)
		if err != nil {
			return nil, err
		}
		tr.items = append(tr.items, item)
	}

	var conjuncts []*term.Term
	if s.Where != nil {
		cs, err := tr.translateQual(s.Where)
		if err != nil {
			return nil, err
		}
		conjuncts = cs
	}

	// Partition projections into plain expressions and MakeSet/MakeBag/
	// MakeList nesting calls (GROUP BY handling, Figure 4).
	type projInfo struct {
		expr   *term.Term
		nest   bool
		source esql.Expr
	}
	var projs []projInfo
	for _, pe := range s.Proj {
		if app, ok := pe.(*esql.App); ok && isMakeColl(app.Fn) {
			if len(app.Args) != 1 {
				return nil, fmt.Errorf("%s expects one argument", app.Fn)
			}
			inner, err := tr.translateExpr(app.Args[0])
			if err != nil {
				return nil, err
			}
			projs = append(projs, projInfo{expr: inner, nest: true, source: pe})
			continue
		}
		te, err := tr.translateExpr(pe)
		if err != nil {
			return nil, err
		}
		projs = append(projs, projInfo{expr: te, source: pe})
	}

	if len(s.GroupBy) > 0 {
		// Validate: plain projections must appear in GROUP BY and precede
		// the nesting projections (the paper's Figure 4 shape).
		gb := map[string]bool{}
		for _, ge := range s.GroupBy {
			te, err := tr.translateExpr(ge)
			if err != nil {
				return nil, err
			}
			gb[te.String()] = true
		}
		seenNest := false
		nestCount := 0
		for _, p := range projs {
			if p.nest {
				seenNest = true
				nestCount++
				continue
			}
			if seenNest {
				return nil, fmt.Errorf("grouped projections must precede MakeSet projections")
			}
			if !gb[p.expr.String()] {
				return nil, fmt.Errorf("projection %s is neither grouped nor aggregated", lera.Format(p.expr))
			}
		}
		if nestCount == 0 {
			return nil, fmt.Errorf("GROUP BY without a MakeSet projection is not supported")
		}
	} else {
		for _, p := range projs {
			if p.nest {
				return nil, fmt.Errorf("MakeSet projection requires GROUP BY")
			}
		}
	}

	rels := make([]*term.Term, len(tr.items))
	for i, it := range tr.items {
		rels[i] = it.rel
	}
	var flat []*term.Term
	for _, p := range projs {
		flat = append(flat, p.expr)
	}
	search := lera.Search(rels, lera.Ands(conjuncts...), flat)

	if len(s.GroupBy) == 0 {
		return search, nil
	}
	// Wrap in NEST: the nested column is the trailing MakeSet position
	// (exactly Figure 4's shape; one MakeSet per SELECT).
	plainCount := 0
	for _, p := range projs {
		if !p.nest {
			plainCount++
		}
	}
	if len(projs)-plainCount > 1 {
		return nil, fmt.Errorf("at most one MakeSet projection per SELECT is supported")
	}
	k := len(projs)
	name := fmt.Sprintf("col%d", k)
	if declaredCols != nil && k <= len(declaredCols) {
		name = declaredCols[k-1]
	}
	return lera.Nest(search, []int{plainCount + 1}, name), nil
}

func isMakeColl(fn string) bool {
	switch strings.ToUpper(fn) {
	case "MAKESET", "MAKEBAG", "MAKELIST", "MAKEARRAY":
		return true
	}
	return false
}

func (tr *translator) resolveFrom(f esql.TableRef) (fromItem, error) {
	item := fromItem{name: f.Table, alias: f.Alias}
	if tr.selfName != "" && strings.EqualFold(f.Table, tr.selfName) {
		item.cols = tr.selfCols
		item.rel = lera.Rel(tr.selfName)
		return item, nil
	}
	if r, ok := tr.cat.Relation(f.Table); ok {
		item.cols = r.Columns
		item.rel = lera.Rel(r.Name)
		return item, nil
	}
	if v, ok := tr.cat.View(f.Table); ok {
		item.cols = v.Columns
		item.rel = v.Def // view expansion (query modification)
		return item, nil
	}
	return item, fmt.Errorf("unknown relation or view %q", f.Table)
}

// resolveRef resolves a column reference to ATTR(i, j).
func (tr *translator) resolveRef(r *esql.Ref) (*term.Term, error) {
	if r.Qualifier != "" {
		for i, it := range tr.items {
			if strings.EqualFold(it.alias, r.Qualifier) ||
				(it.alias == "" && strings.EqualFold(it.name, r.Qualifier)) {
				for j, c := range it.cols {
					if strings.EqualFold(c.Name, r.Name) {
						return lera.Attr(i+1, j+1), nil
					}
				}
				return nil, fmt.Errorf("relation %s has no column %q", r.Qualifier, r.Name)
			}
		}
		return nil, fmt.Errorf("unknown relation or alias %q", r.Qualifier)
	}
	var found *term.Term
	for i, it := range tr.items {
		for j, c := range it.cols {
			if strings.EqualFold(c.Name, r.Name) {
				if found != nil {
					return nil, fmt.Errorf("ambiguous column %q", r.Name)
				}
				found = lera.Attr(i+1, j+1)
			}
		}
	}
	if found == nil {
		return nil, fmt.Errorf("unknown column %q", r.Name)
	}
	return found, nil
}

// translateQual flattens a WHERE tree into conjuncts.
func (tr *translator) translateQual(e esql.Expr) ([]*term.Term, error) {
	if b, ok := e.(*esql.Bin); ok && strings.EqualFold(b.Op, "AND") {
		l, err := tr.translateQual(b.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.translateQual(b.R)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	}
	t, err := tr.translateExpr(e)
	if err != nil {
		return nil, err
	}
	return []*term.Term{t}, nil
}

func (tr *translator) translateExpr(e esql.Expr) (*term.Term, error) {
	switch x := e.(type) {
	case *esql.Lit:
		return term.C(x.Val), nil
	case *esql.Param:
		return nil, fmt.Errorf("translate: unbound parameter $%d — bind it with EXECUTE", x.Index)
	case *esql.Ref:
		return tr.resolveRef(x)
	case *esql.App:
		args := make([]*term.Term, len(x.Args))
		for i, a := range x.Args {
			t, err := tr.translateExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = t
		}
		return lera.Call(x.Fn, args...), nil
	case *esql.Bin:
		l, err := tr.translateExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.translateExpr(x.R)
		if err != nil {
			return nil, err
		}
		op := strings.ToUpper(x.Op)
		if op == "AND" {
			return lera.Ands(l, r), nil
		}
		if op == "OR" {
			return lera.Ors(l, r), nil
		}
		if op == "=" {
			l, r = canonicalEqOrder(l, r)
		}
		return term.F(op, l, r), nil
	case *esql.Not:
		a, err := tr.translateExpr(x.Arg)
		if err != nil {
			return nil, err
		}
		return lera.Not(a), nil
	case *esql.Quant:
		a, err := tr.translateExpr(x.Arg)
		if err != nil {
			return nil, err
		}
		if x.All {
			return term.F("ALL", a), nil
		}
		return term.F("EXIST", a), nil
	case *esql.CollLit:
		elems := make([]*term.Term, len(x.Elems))
		for i, el := range x.Elems {
			t, err := tr.translateExpr(el)
			if err != nil {
				return nil, err
			}
			elems[i] = t
		}
		switch x.Kind {
		case value.KSet:
			return term.Set(elems...), nil
		case value.KBag:
			return term.Bag(elems...), nil
		case value.KList:
			return term.List(elems...), nil
		default:
			return term.Array(elems...), nil
		}
	case *esql.TupleLit:
		elems := make([]*term.Term, len(x.Elems))
		allConst := true
		for i, el := range x.Elems {
			t, err := tr.translateExpr(el)
			if err != nil {
				return nil, err
			}
			elems[i] = t
			if t.Kind != term.Const {
				allConst = false
			}
		}
		if allConst {
			// Preserve field names: a literal tuple becomes a constant
			// value, so EVALUATE folding and field access see lo/hi.
			vals := make([]value.Value, len(elems))
			for i, e := range elems {
				vals[i] = e.Val
			}
			return term.C(value.NewTuple(x.Names, vals)), nil
		}
		return term.TupleT(elems...), nil
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

// canonicalEqOrder orders the operands of the symmetric '=' so that
// equivalent qualifications print identically: applications before
// variables before constants, ties broken by the term order. This yields
// the paper's 1.1=2.1 regardless of which side the query wrote first.
func canonicalEqOrder(l, r *term.Term) (*term.Term, *term.Term) {
	rank := func(t *term.Term) int {
		switch t.Kind {
		case term.Fun:
			return 0
		case term.Var, term.SeqVar:
			return 1
		default:
			return 2
		}
	}
	if rank(l) > rank(r) || (rank(l) == rank(r) && term.Compare(l, r) > 0) {
		return r, l
	}
	return l, r
}
