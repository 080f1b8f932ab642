// Query texts: a second key to a template entry, learned from the exact
// text that reached it (docs/PLANCACHE.md "Text key"). A Text records what
// the term path derived from one text — its translated term, its template
// and bindings, its result columns — so the same text again is served
// from the entry without being parsed, translated or templatized. Texts
// hang off their template's entry: evicting, invalidating or replacing the
// entry drops them, and an entry whose environment moved serves none.
package plancache

import (
	"container/list"
	"slices"

	"lera/internal/term"
	"lera/internal/value"
)

// textsPerEntry bounds the texts one template entry keeps; a new one past
// it replaces the oldest.
const textsPerEntry = 8

// Text is what the term path derived from one query text. It is immutable
// once learned.
type Text struct {
	Src      string        // the text, exactly as received
	Initial  *term.Term    // its translated term
	Template *term.Term    // Initial's template
	Params   []value.Value // Initial's bindings into Template
	Columns  []string      // the result's column names
	// Rejected: Template was rejected, so the text is served from the
	// exact entry of Initial, which has no binding slots.
	Rejected bool
}

// Key is the key of the entry t is served from: its template, or Initial
// itself when the template was rejected.
func (t *Text) Key() *term.Term {
	if t.Rejected {
		return t.Initial
	}
	return t.Template
}

// LookupText serves text src: when it was learned on an entry that is
// current in env, it is Lookup(t.Key(), env), counting the same hit, and
// returns the entry's plan. It counts nothing and returns a nil plan when
// the caller must take the term path: when src is not known, when its
// entry is gone or stale, when its template's rejection is not what it
// was, and when this hit is one the caller re-validates, every'th of the
// entry's. In that last case t is
// still returned, for the term path to check.
func (c *Cache[E]) LookupText(src string, env E, every int) (t *Text, plan *term.Term) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.texts[src]
	if !ok {
		return nil, nil
	}
	el, e := c.textEntryLocked(t, env)
	if e == nil {
		c.forgetLocked(t)
		return nil, nil
	}
	if every > 0 && e.nparams > 0 && (e.hits+1)%uint64(every) == 0 {
		return t, nil
	}
	c.ll.MoveToFront(el)
	e.hits++
	c.stats.Hits++
	return t, e.plan
}

// LearnText files t on the entry of t.Key() in env; t belongs to the cache
// from then on. It does nothing when there is no such entry (it was
// evicted, or its environment moved), when the template's rejection is
// not t.Rejected, or when t.Src is known already.
func (c *Cache[E]) LearnText(t *Text, env E) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, e := c.textEntryLocked(t, env)
	if _, known := c.texts[t.Src]; e == nil || known {
		return
	}
	if len(e.texts) == textsPerEntry {
		delete(c.texts, e.texts[0])
		e.texts = e.texts[1:]
	}
	// t takes the entry's own key term, equal to its own, so that serving
	// the text compares pointers, not terms.
	if t.Rejected {
		t.Initial = e.template
	} else {
		t.Template = e.template
	}
	e.texts = append(e.texts, t.Src)
	c.texts[t.Src] = t
}

// ForgetText drops t, which disagreed with the term path.
func (c *Cache[E]) ForgetText(t *Text) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.texts[t.Src] == t {
		c.forgetLocked(t)
	}
}

// textEntryLocked is the entry text t is served from in env — t.Key()'s,
// in env, with t's number of slots, while t.Template's rejection is
// t.Rejected (the term path keys by it) — or nil.
func (c *Cache[E]) textEntryLocked(t *Text, env E) (*list.Element, *entry[E]) {
	key := t.Key()
	el, present := c.idx[key.Hash()]
	if !present {
		return nil, nil
	}
	e := el.Value.(*entry[E])
	nparams := len(t.Params)
	if t.Rejected {
		nparams = 0
	}
	if _, rejected := c.rejected[t.Template.Hash()]; rejected != t.Rejected || e.env != env || e.nparams != nparams || !term.Equal(e.template, key) {
		return nil, nil
	}
	return el, e
}

// forgetLocked drops t, which is filed, from the index and from its
// entry's list, if the entry still lists it.
func (c *Cache[E]) forgetLocked(t *Text) {
	delete(c.texts, t.Src)
	el, present := c.idx[t.Key().Hash()]
	if !present {
		return
	}
	e := el.Value.(*entry[E])
	if i := slices.Index(e.texts, t.Src); i >= 0 {
		e.texts = slices.Delete(e.texts, i, i+1)
	}
}

// dropTextsLocked drops every text filed on e.
func (c *Cache[E]) dropTextsLocked(e *entry[E]) {
	for _, src := range e.texts {
		delete(c.texts, src)
	}
	e.texts = nil
}
