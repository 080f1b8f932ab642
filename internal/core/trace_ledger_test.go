package core

// The trace ledger: a rule application is recorded once, as a rule.apply
// event on the request's span tree, and that record agrees with every
// other account of the same work — the rewrite Stats, the per-block span
// attributes and the lera_rule_applications_total counter.

import (
	"strconv"
	"strings"
	"testing"

	"lera/internal/esql"
	"lera/internal/obs"
	"lera/internal/term"
)

// spanWalk calls f on every retained span of a tree, failing the test on
// a truncated span or event list: a ledger over a cut tree proves nothing.
func spanWalk(t *testing.T, root *obs.Span, f func(*obs.Span)) {
	t.Helper()
	if root == nil {
		return
	}
	if root.TruncatedChildren > 0 || root.TruncatedEvents > 0 {
		t.Fatalf("span %s truncated: %d spans, %d events", root.Name, root.TruncatedChildren, root.TruncatedEvents)
	}
	f(root)
	for _, c := range root.Children {
		spanWalk(t, c, f)
	}
}

// ruleApplies returns a span tree's rule.apply events in commit order.
func ruleApplies(t *testing.T, root *obs.Span) []obs.Event {
	t.Helper()
	var out []obs.Event
	spanWalk(t, root, func(s *obs.Span) {
		for _, ev := range s.Events {
			if ev.Kind == "rule.apply" {
				out = append(out, ev)
			}
		}
	})
	return out
}

// attr returns the value of an event or span attribute (nil when absent).
func attr(kvs []obs.KV, k string) any {
	for _, kv := range kvs {
		if kv.K == k {
			return kv.V
		}
	}
	return nil
}

// sitePathOf parses a rule.apply event's site attribute, "[0 2 1]".
func sitePathOf(t *testing.T, ev obs.Event) term.Path {
	t.Helper()
	s, _ := attr(ev.Attrs, "site").(string)
	var p term.Path
	for _, f := range strings.Fields(strings.Trim(s, "[]")) {
		i, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("site %q: %v", s, err)
		}
		p = append(p, i)
	}
	return p
}

// TestTraceLedger runs the figure and index corpora traced and checks,
// per query, that the rule.apply events, the rewrite.block spans, the
// Stats and the applications counter tell one story — and that a plan
// served from the cache records no application at all.
func TestTraceLedger(t *testing.T) {
	type entry struct {
		name  string
		build func(t *testing.T) *Session
		query string
	}
	var corpus []entry
	for i, q := range []string{esql.Figure3Query, esql.Figure4Query, esql.Figure5Query} {
		corpus = append(corpus, entry{"figure" + strconv.Itoa(i+3), func(t *testing.T) *Session { return filmsSession(t, WithPlanCache(8)) }, q})
	}
	for _, c := range indexCorpus {
		build := c.build
		corpus = append(corpus, entry{c.name, func(t *testing.T) *Session { return build(t, WithPlanCache(8)) }, c.query})
	}
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			s := c.build(t)
			s.Obs = obs.NewObserver()
			s.Obs.Trace = true
			counter := s.Obs.Metrics.Counter(mApplications, "")
			before := counter.Value()
			res, err := s.Query(c.query)
			if err != nil {
				t.Fatal(err)
			}
			st := res.RewriteStats()
			if res.Cache.Hit || st.Applications == 0 {
				t.Fatalf("first run: stats %+v, want a cold rewrite that applied rules", st)
			}
			root := res.Report.Trace
			if n := len(ruleApplies(t, root)); n != st.Applications {
				t.Errorf("%d rule.apply events for %d applications", n, st.Applications)
			}
			var apps, checks int64
			spanWalk(t, root, func(s *obs.Span) {
				if s.Name == "rewrite.block" {
					apps += attr(s.Attrs, "applications").(int64)
					checks += attr(s.Attrs, "checks").(int64)
				}
			})
			if apps != int64(st.Applications) || checks != int64(st.ConditionChecks) {
				t.Errorf("rewrite.block spans sum to %d applications and %d checks, stats say %d and %d",
					apps, checks, st.Applications, st.ConditionChecks)
			}
			if got := counter.Value() - before; got != int64(st.Applications) {
				t.Errorf("%s grew by %d, stats say %d applications", mApplications, got, st.Applications)
			}

			hit, err := s.Query(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Cache.Hit {
				t.Fatalf("repeat run missed the plan cache: %+v", hit.Cache)
			}
			if n := len(ruleApplies(t, hit.Report.Trace)); n != 0 {
				t.Errorf("plan-cache hit recorded %d rule.apply events", n)
			}
			if got := counter.Value() - before; got != int64(st.Applications) {
				t.Errorf("%s grew by %d over a cold run of %d applications and a hit", mApplications, got, st.Applications)
			}
		})
	}
}
