// Package catalog implements the database schema catalog: base relations,
// views (including recursive deductive views, stored as translated LERA
// terms), declared integrity constraints (compiled to rewrite rules, per
// Section 6.1) and the type and ADT-function registries. The catalog is
// the "context" of a rule: "a rule has a context, which is the query and
// the database on which it is applied" (Section 4.1).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"lera/internal/adt"
	"lera/internal/guard"
	"lera/internal/rules"
	"lera/internal/term"
	"lera/internal/types"
)

// Column is a named, typed relation attribute.
type Column struct {
	Name string
	Type *types.Type
}

// Relation describes a base relation (TABLE ...).
type Relation struct {
	Name    string
	Columns []Column
}

// View describes a (possibly recursive) view. Def is the translated LERA
// term: for recursive views, a FIX term (Section 3.2); Columns carry the
// inferred output schema.
type View struct {
	Name      string
	Columns   []Column
	Def       *term.Term
	Recursive bool
}

// Catalog is the schema catalog.
type Catalog struct {
	Types *types.Registry
	ADTs  *adt.Registry

	rels  map[string]*Relation
	views map[string]*View

	// constraints are the integrity-constraint rules declared by the
	// database administrator, in declaration order.
	constraints []*rules.Rule

	// schemaVersion counts schema mutations (relations, views,
	// constraints), the plan cache's key (docs/PLANCACHE.md); dataVersion
	// counts writes to declared relations, the stamp of the engine's
	// cached indexes.
	schemaVersion atomic.Uint64
	dataVersion   atomic.Uint64
}

// SchemaVersion returns a counter that changes whenever a relation,
// view or integrity constraint is declared. Cached rewrites embed it so
// any schema change invalidates them.
func (c *Catalog) SchemaVersion() uint64 { return c.schemaVersion.Load() }

// DataVersion returns a counter that changes whenever the engine loads
// or inserts rows of a declared relation. The engine's cached indexes are
// stamped with it; no rewrite reads it.
func (c *Catalog) DataVersion() uint64 { return c.dataVersion.Load() }

// BumpDataVersion records a write to a declared relation; the engine
// calls it on every load and insert.
func (c *Catalog) BumpDataVersion() { c.dataVersion.Add(1) }

// New creates an empty catalog with fresh type and ADT registries.
func New() *Catalog {
	return &Catalog{
		Types: types.NewRegistry(),
		ADTs:  adt.NewRegistry(),
		rels:  map[string]*Relation{},
		views: map[string]*View{},
	}
}

// DeclareRelation registers a base relation.
func (c *Catalog) DeclareRelation(name string, cols []Column) (*Relation, error) {
	key := strings.ToUpper(name)
	if _, dup := c.rels[key]; dup {
		return nil, guard.Invalid(fmt.Errorf("catalog: relation %q already declared", name))
	}
	if _, dup := c.views[key]; dup {
		return nil, guard.Invalid(fmt.Errorf("catalog: %q already declared as a view", name))
	}
	r := &Relation{Name: name, Columns: append([]Column(nil), cols...)}
	c.rels[key] = r
	c.schemaVersion.Add(1)
	return r, nil
}

// DeclareView registers a view.
func (c *Catalog) DeclareView(v *View) error {
	key := strings.ToUpper(v.Name)
	if _, dup := c.views[key]; dup {
		return guard.Invalid(fmt.Errorf("catalog: view %q already declared", v.Name))
	}
	if _, dup := c.rels[key]; dup {
		return guard.Invalid(fmt.Errorf("catalog: %q already declared as a relation", v.Name))
	}
	c.views[key] = v
	c.schemaVersion.Add(1)
	return nil
}

// Relation resolves a base relation by name.
func (c *Catalog) Relation(name string) (*Relation, bool) {
	r, ok := c.rels[strings.ToUpper(name)]
	return r, ok
}

// View resolves a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	v, ok := c.views[strings.ToUpper(name)]
	return v, ok
}

// RelationNames returns all base relation names, sorted.
func (c *Catalog) RelationNames() []string {
	var out []string
	for _, r := range c.rels {
		out = append(out, r.Name)
	}
	sort.Strings(out)
	return out
}

// ViewNames returns all view names, sorted.
func (c *Catalog) ViewNames() []string {
	var out []string
	for _, v := range c.views {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

// AddConstraint registers an integrity constraint expressed as a rewrite
// rule (the paper's Section 6.1: "The language we propose for defining
// constraints is the rules language for defining optimization rules").
func (c *Catalog) AddConstraint(r *rules.Rule) {
	c.constraints = append(c.constraints, r)
	c.schemaVersion.Add(1)
}

// Constraints returns the declared integrity-constraint rules.
func (c *Catalog) Constraints() []*rules.Rule { return c.constraints }
