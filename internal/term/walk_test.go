package term

import (
	"math/rand"
	"testing"
)

func sampleTree() *Term {
	return F("SEARCH",
		List(F("REL", Str("A")), F("SEARCH", List(F("REL", Str("B"))), TrueT(), List())),
		F("=", F("ATTR", Num(1), Num(1)), Num(5)),
		List(F("ATTR", Num(2), Num(2))))
}

func TestAtAndReplaceAt(t *testing.T) {
	tr := sampleTree()
	sub := At(tr, Path{0, 1})
	if sub == nil || sub.Functor != "SEARCH" {
		t.Fatalf("At = %v", sub)
	}
	if At(tr, Path{9}) != nil {
		t.Error("invalid path must return nil")
	}
	if At(tr, Path{1, 0, 0, 0, 0}) != nil {
		t.Error("path through constants must return nil")
	}
	repl := F("REL", Str("MERGED"))
	nt := ReplaceAt(tr, Path{0, 1}, repl)
	if got := At(nt, Path{0, 1}); !Equal(got, repl) {
		t.Errorf("replacement missing: %s", nt)
	}
	// Original unchanged; untouched subtrees shared.
	if At(tr, Path{0, 1}).Functor != "SEARCH" {
		t.Error("original mutated")
	}
	if At(nt, Path{1}) != At(tr, Path{1}) {
		t.Error("untouched subtree must be shared")
	}
	// Empty path replaces the root.
	if !Equal(ReplaceAt(tr, Path{}, repl), repl) {
		t.Error("root replacement")
	}
	// Invalid path is a no-op.
	if !Equal(ReplaceAt(tr, Path{9, 9}, repl), tr) {
		t.Error("invalid path no-op")
	}
}

func TestReplaceAtRecanonicalizesSets(t *testing.T) {
	s := F("UNION", Set(F("R", Num(2)), F("R", Num(1))))
	// Replace R(1) (canonically first) with R(9); set must re-sort.
	nt := ReplaceAt(s, Path{0, 0}, F("R", Num(9)))
	if nt.Args[0].Args[0].String() != "R(2)" {
		t.Errorf("set not re-canonicalised: %s", nt)
	}
}

func TestWalkCountContains(t *testing.T) {
	tr := sampleTree()
	n := 0
	Walk(tr, func(sub *Term, _ Path) bool { n++; return true })
	if n != tr.Size() {
		t.Errorf("walk visited %d, size %d", n, tr.Size())
	}
	searches := Count(tr, func(s *Term) bool { return s.Kind == Fun && s.Functor == "SEARCH" })
	if searches != 2 {
		t.Errorf("searches = %d", searches)
	}
	if !Contains(tr, func(s *Term) bool { return s.Functor == "ATTR" }) {
		t.Error("Contains ATTR")
	}
	if Contains(tr, func(s *Term) bool { return s.Functor == "FIX" }) {
		t.Error("no FIX present")
	}
	// Early stop: fn returning false aborts.
	visited := 0
	ok := Walk(tr, func(sub *Term, _ Path) bool { visited++; return visited < 3 })
	if ok || visited != 3 {
		t.Errorf("early stop: ok=%v visited=%d", ok, visited)
	}
}

// TestVisitIsWalkWithoutPaths: same subterms, same preorder, same early
// stop — and no Path per node, which is why Count, Contains and the
// engine's conjunct classification use it.
func TestVisitIsWalkWithoutPaths(t *testing.T) {
	tr := sampleTree()
	var walked, visited []*Term
	Walk(tr, func(sub *Term, _ Path) bool { walked = append(walked, sub); return true })
	Visit(tr, func(sub *Term) bool { visited = append(visited, sub); return true })
	if len(walked) != len(visited) {
		t.Fatalf("Walk saw %d subterms, Visit %d", len(walked), len(visited))
	}
	for i := range walked {
		if walked[i] != visited[i] {
			t.Fatalf("subterm %d: Walk saw %s, Visit %s", i, walked[i], visited[i])
		}
	}
	n := 0
	if ok := Visit(tr, func(*Term) bool { n++; return n < 3 }); ok || n != 3 {
		t.Errorf("early stop: ok=%v visited=%d", ok, n)
	}
	isFix := func(s *Term) bool { return s.Functor == "FIX" }
	if a := testing.AllocsPerRun(20, func() { Count(tr, isFix); Contains(tr, isFix) }); a > 2 {
		t.Errorf("Count+Contains over %d nodes allocate %.0f objects, want at most the two closures", tr.Size(), a)
	}
}

func TestWalkPathsAddressable(t *testing.T) {
	tr := sampleTree()
	Walk(tr, func(sub *Term, p Path) bool {
		if got := At(tr, p); got != sub {
			t.Errorf("path %v does not address %s", p, sub)
		}
		return true
	})
}

func TestRewriteBottomUp(t *testing.T) {
	tr := F("AND", F("OR", FalseT(), TrueT()), TrueT())
	// Fold OR(FALSE, TRUE) -> TRUE bottom-up, then AND(TRUE,TRUE)->TRUE.
	fold := func(s *Term) *Term {
		if s.Kind == Fun && s.Functor == "OR" && len(s.Args) == 2 &&
			Equal(s.Args[0], FalseT()) && Equal(s.Args[1], TrueT()) {
			return TrueT()
		}
		if s.Kind == Fun && s.Functor == "AND" && len(s.Args) == 2 &&
			Equal(s.Args[0], TrueT()) && Equal(s.Args[1], TrueT()) {
			return TrueT()
		}
		return s
	}
	if got := Rewrite(tr, fold); !Equal(got, TrueT()) {
		t.Errorf("Rewrite = %s", got)
	}
	// Identity rewrite shares the original tree.
	same := Rewrite(tr, func(s *Term) *Term { return s })
	if same != tr {
		t.Error("identity Rewrite must return the same pointer")
	}
}

// Property: ReplaceAt(t, p, At(t, p)) is structurally equal to t for every
// valid path, on random trees.
func TestPropReplaceIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		tr := randTerm(r, 3)
		Walk(tr, func(sub *Term, p Path) bool {
			if got := ReplaceAt(tr, p.Clone(), sub); !Equal(got, tr) {
				t.Fatalf("replace identity failed at %v on %s: %s", p, tr, got)
			}
			return true
		})
	}
}

func randTerm(r *rand.Rand, depth int) *Term {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return Num(int64(r.Intn(5)))
		case 1:
			return Str(string(rune('a' + r.Intn(3))))
		default:
			return TrueT()
		}
	}
	n := 1 + r.Intn(3)
	args := make([]*Term, n)
	for i := range args {
		args[i] = randTerm(r, depth-1)
	}
	heads := []string{"F", "G", FList, FSet}
	return F(heads[r.Intn(len(heads))], args...)
}

// Property: matching a random ground term against itself always succeeds
// with empty bindings; matching its generalisation (replace random leaves
// with fresh vars) succeeds and Apply reproduces the original.
func TestPropGeneralizationMatches(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		subj := randTerm(r, 3)
		if _, ok := MatchFirst(subj, subj); !ok {
			t.Fatalf("self-match failed: %s", subj)
		}
		vc := 0
		pat := Rewrite(subj, func(s *Term) *Term {
			if s.Kind == Const && r.Intn(2) == 0 {
				vc++
				return V("v" + string(rune('0'+vc%10)) + string(rune('a'+vc/10)))
			}
			return s
		})
		b, ok := MatchFirst(pat, subj)
		if !ok {
			// Non-linear variables introduced by the counter may clash
			// on different constants inside commutative contexts; only
			// fail when pattern is linear.
			continue
		}
		got, err := b.Apply(pat)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if !Equal(got, subj) {
			t.Fatalf("apply(match) != subject: %s vs %s (pat %s)", got, subj, pat)
		}
	}
}

// TestRewriteUnchangedAllocs: a rewrite whose fn changes nothing returns
// the very term it was given and allocates nothing.
func TestRewriteUnchangedAllocs(t *testing.T) {
	tr := sampleTree()
	id := func(s *Term) *Term { return s }
	if got := Rewrite(tr, id); got != tr {
		t.Fatal("identity rewrite must return the same pointer")
	}
	if n := testing.AllocsPerRun(100, func() { Rewrite(tr, id) }); n != 0 {
		t.Fatalf("identity rewrite allocates %.0f times, want 0", n)
	}
	// A change deep down rebuilds only the spine above it.
	five := Num(5)
	got := Rewrite(tr, func(s *Term) *Term {
		if Equal(s, five) {
			return Num(6)
		}
		return s
	})
	if got == tr || got.Args[0] != tr.Args[0] || got.Args[2] != tr.Args[2] {
		t.Fatalf("rewrite of one leaf must share the untouched arguments: %s", got)
	}
	if want := "=(ATTR(1, 1), 6)"; got.Args[1].String() != want {
		t.Fatalf("rewritten argument %s, want %s", got.Args[1], want)
	}
}
