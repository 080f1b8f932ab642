package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"lera/internal/esql"
	"lera/internal/obs"
	"lera/internal/plancache"
	"lera/internal/term"
)

// FuzzTextShape: a text the plan cache serves from its text key gets
// exactly what the term path gives it: the same Initial, Rewritten,
// columns, cache outcome, engine counters and rows as a session with the
// same cache state that parses and translates every text. The served
// session runs first twice and second twice, so second is learned at its
// first plain hit and served from its text at the next one. Seeds: every
// SELECT line of testdata's corpora beside the same line with its digits
// changed, and under testdata/fuzz/FuzzTextShape texts whose literals are
// easy to confuse (a disjunction in both value orders and with equal
// literals, an '=' of two calls ordered by their literals, a negated
// literal, string literals differing in case, a number that overflows);
// plain go test replays them.
//
//	go test -run '^$' -fuzz FuzzTextShape -fuzztime 30s ./internal/core/
func FuzzTextShape(f *testing.F) {
	corpora, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.*sql"))
	if err != nil || len(corpora) == 0 {
		f.Fatalf("no testdata corpora to seed from (%v)", err)
	}
	bump := strings.NewReplacer("0", "1", "1", "2", "2", "3", "3", "4", "4", "5", "5", "6", "6", "7", "7", "8", "8", "9", "9", "0")
	for _, path := range corpora {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.ToUpper(line), "SELECT") {
				f.Add(line, bump.Replace(line))
			}
		}
	}
	base := goldenSession(f)
	base.Parallelism = 1
	base.Obs = obs.NewObserver()
	f.Fuzz(func(t *testing.T, first, second string) {
		// served serves learned texts from the text key; termPath, with a
		// cache of its own, parses and translates every text.
		served, termPath := fork(t, base), fork(t, base)
		for _, text := range []string{first, first, second} {
			served.Query(text)
			if sel, err := esql.ParseQuery(text); err == nil {
				termPath.ExecSelectCtx(t.Context(), sel)
			}
		}
		got, gotErr := served.Query(second)
		if got == nil || got.Cache == nil || !got.Cache.TextHit {
			return
		}
		sel, err := esql.ParseQuery(second)
		if err != nil {
			t.Fatalf("served %q from its text, but it does not parse: %v", second, err)
		}
		want, wantErr := termPath.ExecSelectCtx(t.Context(), sel)
		if want == nil {
			t.Fatalf("served %q from its text, but the term path fails: %v", second, wantErr)
		}
		switch {
		case !term.Equal(got.Initial, want.Initial):
			t.Fatalf("%q after %q: Initial\n  text: %s\n  term: %s", second, first, got.Initial, want.Initial)
		case !term.Equal(got.Rewritten, want.Rewritten):
			t.Fatalf("%q after %q: Rewritten\n  text: %s\n  term: %s", second, first, got.Rewritten, want.Rewritten)
		case !slices.Equal(got.Columns, want.Columns):
			t.Fatalf("%q after %q: columns %v, term path %v", second, first, got.Columns, want.Columns)
		case !want.Cache.Hit || want.Cache.TemplateHash != got.Cache.TemplateHash || want.Cache.NParams != got.Cache.NParams || want.Cache.Rejected != got.Cache.Rejected:
			t.Fatalf("%q after %q: cache outcome %+v, term path %+v", second, first, *got.Cache, *want.Cache)
		case got.Report.ExecCounters != want.Report.ExecCounters:
			t.Fatalf("%q after %q: engine counters %+v, term path %+v", second, first, got.Report.ExecCounters, want.Report.ExecCounters)
		case (gotErr == nil) != (wantErr == nil) || FormatResult(got) != FormatResult(want):
			t.Fatalf("%q after %q: answer\n  text: %s (%v)\n  term: %s (%v)", second, first, FormatResult(got), gotErr, FormatResult(want), wantErr)
		}
	})
}

// fork is a fork of base with a plan cache of its own.
func fork(t *testing.T, base *Session) *Session {
	s, err := base.Fork()
	if err != nil {
		t.Fatal(err)
	}
	s.Plans = plancache.New[planEnv](64)
	return s
}

// TestTextHits: a text is learned at its first hit on the term path, so
// a text seen once is never served from its text, and every later run of
// a learned text is a text hit — a plan-cache hit with nothing parsed or
// translated. The ledger stays exact: one miss for the template, hits for
// the rest, and lera_plancache_text_hits_total counting the text hits. A
// text whose template was rejected is served from its exact entry. A
// session that does not rewrite never takes the text path.
func TestTextHits(t *testing.T) {
	s := filmsSession(t, WithPlanCache(64))
	s.Obs = obs.NewObserver()
	// Text 0 misses and stores the template; texts 1 to 3 hit it on the
	// term path and are learned; text 0 is learned at its second run.
	for i := range 12 {
		res, err := s.Query(fmt.Sprintf("SELECT Title FROM FILM WHERE Numf > %d AND Numf < %d", i%4, i%4+3))
		if err != nil {
			t.Fatal(err)
		}
		if oc := res.Cache; oc.TextHit != (i > 4) || oc.Hit != (i > 0) {
			t.Fatalf("query %d: outcome %+v", i, *oc)
		}
	}
	if st := s.Plans.Snapshot(); st.Hits != 11 || st.Misses != 1 {
		t.Fatalf("ledger: %+v", st)
	}
	if got := s.Obs.Metrics.Counter(mTextHits, "").Value(); got != 7 {
		t.Fatalf("%s = %d, want 7", mTextHits, got)
	}
	// A contradiction folds a lifted constant: the template is rejected
	// and the text keyed exactly.
	const contradiction = "SELECT Title FROM FILM WHERE Numf > 3 AND Numf <= 3"
	for i := range 3 {
		res, err := s.Query(contradiction)
		if err != nil {
			t.Fatal(err)
		}
		if oc := res.Cache; !oc.Rejected || oc.Hit != (i > 0) || oc.TextHit != (i > 1) || oc.NParams != 2 {
			t.Fatalf("rejected template, query %d: %+v", i, *oc)
		}
	}
	s.Rewrite = false
	if res, err := s.Query("SELECT Title FROM FILM WHERE Numf > 1 AND Numf < 4"); err != nil || res.Cache != nil {
		t.Fatalf("a session that does not rewrite: %v, %+v", err, res.Cache)
	}
}

// TestTextDiesWithItsEnvironment: a DDL statement moves the schema
// version, so a learned text takes the term path again, which finds the
// stale entry, drops it and counts an invalidation; the text is learned
// again at its next plain hit.
func TestTextDiesWithItsEnvironment(t *testing.T) {
	s := filmsSession(t, WithPlanCache(64))
	const q = "SELECT Title FROM FILM WHERE Numf = 1"
	for range 2 {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if res, _ := s.Query(q); !res.Cache.TextHit {
		t.Fatalf("learned text: %+v", *res.Cache)
	}
	s.MustExec("TABLE EXTRA (X : INT);")
	for i, want := range []plancache.Outcome{
		{Invalidated: true}, // the stale entry is dropped; a miss
		{Hit: true},         // a plain hit: learned again
		{Hit: true, TextHit: true},
	} {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if oc := res.Cache; oc.Hit != want.Hit || oc.TextHit != want.TextHit || oc.Invalidated != want.Invalidated {
			t.Fatalf("query %d after DDL: %+v", i, *oc)
		}
	}
	if st := s.Plans.Snapshot(); st.Hits != 4 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("ledger: %+v", st)
	}
}

// TestTextValidationLeg: a hit due for validation takes the term path,
// which also checks the learned text it did not use; the check reads 0 in
// lera_plancache_text_mismatch_total on every agreeing text, and a text
// made to disagree is counted once and dropped.
func TestTextValidationLeg(t *testing.T) {
	s := filmsSession(t, WithPlanCache(64), WithPlanCacheValidation(2))
	s.Obs = obs.NewObserver()
	const q = "SELECT Title FROM FILM WHERE Numf = 1"
	var legs, textHits int
	for i := range 8 {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		switch oc := res.Cache; {
		case oc.TextMismatch:
			t.Fatalf("query %d: %+v", i, *oc)
		case oc.Validated:
			legs++
		case oc.TextHit:
			textHits++
		}
	}
	// Query 0 misses and query 1, the entry's first hit, learns the
	// text; then validated and text hits alternate.
	if legs != 3 || textHits != 3 {
		t.Fatalf("%d validation legs and %d text hits, want 3 and 3", legs, textHits)
	}
	if got := s.Obs.Metrics.Counter(mTextMismatch, "").Value(); got != 0 {
		t.Fatalf("%s = %d on agreeing texts", mTextMismatch, got)
	}

	// A learned text whose Initial is another text's: the validation leg
	// counts the disagreement and forgets the text, which is learned again.
	rw, _ := s.Rewriter()
	env := s.planEnv(rw)
	known, _ := s.Plans.LookupText(q, env, 0)
	other, err := s.Query("SELECT Title FROM FILM WHERE Numf = 2")
	if known == nil || err != nil {
		t.Fatalf("no learned text (%v)", err)
	}
	bad := *known
	bad.Initial = other.Initial
	s.Plans.ForgetText(known)
	s.Plans.LearnText(&bad, env)
	var mismatches int
	for range 4 {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.TextMismatch {
			mismatches++
		}
	}
	if mismatches != 1 {
		t.Fatalf("%d mismatches counted, want 1", mismatches)
	}
	if got := s.Obs.Metrics.Counter(mTextMismatch, "").Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", mTextMismatch, got)
	}
}

// TestTextConcurrentForks: forks sharing one cache learn and serve texts
// concurrently; every answer is the uncached session's and the ledger
// counts each query exactly once.
func TestTextConcurrentForks(t *testing.T) {
	base := filmsSession(t, WithPlanCache(64))
	cold := filmsSession(t)
	texts := []string{
		"SELECT Title FROM FILM WHERE Numf = %d",
		"SELECT Title FROM FILM WHERE Numf > %d AND Numf < 4",
		"SELECT Numf FROM FILM WHERE Numf = %d OR Numf = 2",
	}
	want := map[string]string{}
	for _, text := range texts {
		for i := range 4 {
			q := fmt.Sprintf(text, i)
			res, err := cold.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want[q] = FormatResult(res)
		}
	}
	const workers, rounds = 4, 30
	var wg sync.WaitGroup
	for w := range workers {
		f, err := base.Fork()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				q := fmt.Sprintf(texts[(w+r)%len(texts)], r%4)
				res, err := f.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := FormatResult(res); got != want[q] {
					t.Errorf("%s:\n%s\nwant\n%s", q, got, want[q])
				}
			}
		}()
	}
	wg.Wait()
	if st := base.Plans.Snapshot(); st.Hits+st.Misses != workers*rounds {
		t.Fatalf("ledger: %+v, want %d lookups", st, workers*rounds)
	}
}
