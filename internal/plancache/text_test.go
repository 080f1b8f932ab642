package plancache

import (
	"fmt"
	"testing"

	"lera/internal/term"
	"lera/internal/value"
)

// textOf is a learned text src of template tmpl with one binding.
func textOf(src string, tmpl *term.Term) *Text {
	return &Text{Src: src, Initial: tm(-1), Template: tmpl, Params: []value.Value{value.Int(1)}, Columns: []string{"c"}}
}

// TestTextServesItsEntry: a text is learned only on a live entry, and
// LookupText counts exactly the hit Lookup would; an unknown text counts
// nothing.
func TestTextServesItsEntry(t *testing.T) {
	c := New[string](4)
	tmpl := tm(1)
	c.LearnText(textOf("q", tmpl), "e") // no entry yet: nothing learned
	if got, plan := c.LookupText("q", "e", 0); got != nil || plan != nil {
		t.Fatal("a text was learned without its entry")
	}
	c.Store(tmpl, tm(100), 1, "e")
	want := textOf("q", tmpl)
	c.LearnText(want, "e")
	c.LearnText(textOf("q", tmpl), "e") // a known text is not learned again
	got, plan := c.LookupText("q", "e", 0)
	if got == nil || got.Src != "q" || got.Template != tmpl || !term.Equal(plan, tm(100)) {
		t.Fatalf("LookupText = %v, %s", got, plan)
	}
	if got, plan := c.LookupText("q ", "e", 0); got != nil || plan != nil {
		t.Fatal("another text was served")
	}
	if _, _, ord, _ := c.Lookup(tmpl, "e"); ord != 2 {
		t.Fatalf("the text's hit was not the entry's first: next ordinal %d", ord)
	}
	if s := c.Snapshot(); s.Hits != 2 || s.Misses != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestTextDefersToTheTermPath: LookupText serves no plan and counts
// nothing where Lookup would not give a plain hit. A text whose entry
// moved to another environment or was rejected is forgotten; a text due
// for validation is returned for the term path to check.
func TestTextDefersToTheTermPath(t *testing.T) {
	c := New[string](4)
	tmpl := tm(1)
	c.Store(tmpl, tm(100), 1, "e")
	c.LearnText(textOf("q", tmpl), "e")

	// Every second hit of the entry is validated: its first is served,
	// its second is left to the term path.
	if _, plan := c.LookupText("q", "e", 2); plan == nil {
		t.Fatal("hit 1 was not served")
	}
	if got, plan := c.LookupText("q", "e", 2); got == nil || plan != nil {
		t.Fatalf("hit 2, due for validation: %v, %s", got, plan)
	}
	if s := c.Snapshot(); s.Hits != 1 {
		t.Fatalf("the validation leg counted: %+v", s)
	}

	if got, plan := c.LookupText("q", "other", 0); got != nil || plan != nil {
		t.Fatal("served in another environment")
	}
	if got, _ := c.LookupText("q", "e", 0); got != nil {
		t.Fatal("a text met in another environment was kept")
	}

	c.LearnText(textOf("q", tmpl), "e")
	c.Reject(tmpl.Hash())
	if got, plan := c.LookupText("q", "e", 0); got != nil || plan != nil {
		t.Fatal("served from a rejected template")
	}
	// A text of a rejected template is served from the exact entry of its
	// Initial, and only while the template stays rejected.
	exact := textOf("x", tmpl)
	exact.Rejected = true
	c.Store(exact.Initial, tm(300), 0, "e")
	c.LearnText(exact, "e")
	if got, plan := c.LookupText("x", "e", 0); got == nil || got.Src != "x" || !term.Equal(plan, tm(300)) {
		t.Fatalf("exact entry: %v, %s", got, plan)
	}
	c.rejected = map[uint64]struct{}{}
	if got, plan := c.LookupText("x", "e", 0); got != nil || plan != nil {
		t.Fatal("served from the exact entry of a template no longer rejected")
	}

	c.Clear()
	c.Store(tmpl, tm(100), 2, "e")
	c.LearnText(textOf("q", tmpl), "e") // one binding for an entry of two
	if got, _ := c.LookupText("q", "e", 0); got != nil {
		t.Fatal("learned on an entry of another binding count")
	}
	if s := c.Snapshot(); s.Hits != 2 || s.Misses != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestTextDiesWithItsEntry: evicting, replacing, failing or clearing an
// entry drops its texts, and ForgetText drops one.
func TestTextDiesWithItsEntry(t *testing.T) {
	known := func(c *Cache[string], src string) bool {
		got, _ := c.LookupText(src, "e", 0)
		return got != nil
	}
	c := New[string](1)
	c.Store(tm(1), tm(100), 1, "e")
	c.LearnText(textOf("a", tm(1)), "e")
	c.Store(tm(2), tm(200), 1, "e") // evicts tm(1)
	if known(c, "a") || len(c.texts) != 0 {
		t.Fatal("a text outlived its evicted entry")
	}

	for name, drop := range map[string]func(c *Cache[string]){
		"replaced": func(c *Cache[string]) { c.Store(tm(2), tm(201), 1, "e") },
		"failed":   func(c *Cache[string]) { c.FailValidation(tm(2)) },
		"cleared":  func(c *Cache[string]) { c.Clear() },
		"forgotten": func(c *Cache[string]) {
			got, _ := c.LookupText("b", "e", 0)
			c.ForgetText(got)
		},
	} {
		c.Clear()
		c.Store(tm(2), tm(200), 1, "e")
		c.LearnText(textOf("b", tm(2)), "e")
		drop(c)
		if known(c, "b") || len(c.texts) != 0 {
			t.Errorf("%s: the text is still known", name)
		}
	}
}

// TestTextsPerEntry: an entry keeps its textsPerEntry newest texts.
func TestTextsPerEntry(t *testing.T) {
	c := New[string](4)
	tmpl := tm(1)
	c.Store(tmpl, tm(100), 1, "e")
	for i := range textsPerEntry + 2 {
		c.LearnText(textOf(fmt.Sprint(i), tmpl), "e")
	}
	for i := range textsPerEntry + 2 {
		got, _ := c.LookupText(fmt.Sprint(i), "e", 0)
		if want := i >= 2; (got != nil) != want {
			t.Errorf("text %d known = %v, want %v", i, got != nil, want)
		}
	}
	if len(c.texts) != textsPerEntry {
		t.Fatalf("%d texts filed, want %d", len(c.texts), textsPerEntry)
	}
}
