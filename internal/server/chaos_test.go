package server

// The chaos gate: under a sustained mixed workload with fault injection
// on, every request receives a typed outcome, nothing hangs, no panic
// escapes a connection, the server-side ledger accounts for every
// request, and the server still drains cleanly afterwards.

import (
	"context"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lera/internal/guard"
)

func TestParseChaos(t *testing.T) {
	faults, err := ParseChaos("member:error:every=7, server.request:stall:every=5:stall=20ms, count:panic:on=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 3 {
		t.Fatalf("parsed %d faults", len(faults))
	}
	if faults[0].Name != "MEMBER" || faults[0].Fault.Every != 7 || faults[0].Fault.Mode != guard.FaultError {
		t.Errorf("fault 0: %+v", faults[0])
	}
	if faults[1].Name != RequestHook || faults[1].Fault.Stall != 20*time.Millisecond {
		t.Errorf("fault 1: %+v", faults[1])
	}
	if faults[2].Name != "COUNT" || faults[2].Fault.OnCall != 3 || faults[2].Fault.Mode != guard.FaultPanic {
		t.Errorf("fault 2: %+v", faults[2])
	}
	if f, err := ParseChaos(""); err != nil || f != nil {
		t.Errorf("empty spec: %v %v", f, err)
	}
	for _, bad := range []string{
		"member",                // no mode
		"member:explode",        // unknown mode
		"member:error:on=zero",  // bad int
		"member:stall",          // stall without duration
		"member:error:what=3",   // unknown option
		"member:error:every=-1", // negative
		"x:error:on=1:on=2",     // repeated option: the last one would win
		"x:stall:stall=1s:STALL=2s",
		":error", // empty name
		" :panic:on=1",
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}

// TestChaosOffServerHasNoInjector: an injector exists only where something
// can fire. With chaos off, neither the server nor any pooled session
// carries one; with a chaos schedule, or one supplied to newServer, every
// session shares that one pointer.
func TestChaosOffServerHasNoInjector(t *testing.T) {
	chaos, err := ParseChaos("count:error:every=5")
	if err != nil {
		t.Fatal(err)
	}
	supplied := guard.NewInjector()
	for _, c := range []struct {
		name     string
		cfg      Config
		supplied *guard.Injector
		none     bool
	}{
		{"chaos off", Config{}, nil, true},
		{"chaos", Config{Chaos: chaos}, nil, false},
		{"supplied", Config{}, supplied, false},
		{"chaos on the supplied one", Config{Chaos: chaos}, supplied, false},
	} {
		c.cfg.MaxInFlight = 3
		build := New
		if c.supplied != nil {
			build = func(cfg Config) (*Server, error) { return newServer(cfg, c.supplied) }
		}
		srv, err := build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		inj := srv.inj
		switch {
		case c.none && inj != nil:
			t.Errorf("%s: the server holds an injector", c.name)
		case !c.none && inj == nil:
			t.Errorf("%s: the server holds no injector", c.name)
		case c.supplied != nil && inj != c.supplied:
			t.Errorf("%s: the server replaced the supplied injector", c.name)
		}
		for i := 0; i < c.cfg.MaxInFlight; i++ {
			if sess := <-srv.pool.idle; sess.Injector != inj {
				t.Errorf("%s: pooled session %d carries injector %p, the server %p", c.name, i, sess.Injector, inj)
			}
		}
	}
}

// TestChaosEveryRequestTyped drives a concurrent mixed workload against a
// small server with chaos armed at every layer — request-level stalls and
// panics, execution-level ADT faults — and checks the robustness
// contract request by request.
func TestChaosEveryRequestTyped(t *testing.T) {
	// One fault per injector name (Set replaces): a panic at the request
	// hook plus an error on every 5th COUNT execution. Stall coverage
	// lives in the shed and drain tests.
	chaos, err := ParseChaos("server.request:panic:on=7,count:error:every=5")
	if err != nil {
		t.Fatal(err)
	}
	srv, base := startServer(t, Config{
		MaxInFlight: 2,
		MaxQueue:    2,
		Chaos:       chaos,
		// Several tenants so the labeled request ledger is exercised
		// across series, not just {default,*}.
		Tenants: Tenants{"default": {}, "alpha": {}, "beta": {}},
	})

	queries := []string{
		filmQuery,
		"SELECT Title FROM FILM WHERE COUNT(Categories) > 0",
		"SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'",
		"this is not esql",
	}

	const workers = 8
	const perWorker = 10
	type account struct {
		code guard.Code
		dur  time.Duration
	}
	results := make([][]account, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(base)
			c.Retry.MaxAttempts = 1 // exact request accounting
			c.Tenant = []string{"", "alpha", "beta", "unknown"}[w%4]
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				out := c.Query(ctx, queries[(w+i)%len(queries)])
				cancel()
				results[w] = append(results[w], account{out.Code, out.Total})
			}
		}(w)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		t.Fatal("workload hung under chaos")
	}

	// Every request got a typed outcome from the protocol vocabulary.
	valid := map[guard.Code]bool{
		guard.CodeOK: true, guard.CodeParse: true, guard.CodeOverloaded: true,
		guard.CodeInjected: true, guard.CodeInternal: true, guard.CodeDeadline: true,
		guard.CodeExternalError: true, guard.CodeExternalPanic: true,
		guard.CodeCanceled: true,
	}
	total := 0
	byCode := map[guard.Code]int{}
	for w := range results {
		for _, a := range results[w] {
			total++
			byCode[a.code]++
			if !valid[a.code] {
				t.Errorf("untyped outcome %q", a.code)
			}
			if a.dur > 10*time.Second {
				t.Errorf("request took %v under chaos", a.dur)
			}
		}
	}
	if total != workers*perWorker {
		t.Fatalf("accounted %d outcomes, want %d", total, workers*perWorker)
	}

	// The server-side ledger agrees with the clients: one count per answer
	// they received, under the code they received. requests_total is
	// labeled {tenant,code}; summed over tenants, each code's count must
	// equal the clients' count of that code.
	m := srv.Metrics()
	if requests := requestsTotal(m); requests != int64(total) {
		t.Errorf("server counted %d answers, clients received %d", requests, total)
	}
	series, _ := m.Snapshot()["lera_server_requests_total"].(map[string]int64)
	ledger := map[guard.Code]int{}
	for labels, n := range series {
		_, code, _ := strings.Cut(labels, `code="`)
		ledger[guard.Code(strings.TrimSuffix(code, `"}`))] += int(n)
	}
	if !maps.Equal(ledger, byCode) {
		t.Errorf("server ledger by code %v, clients received %v", ledger, byCode)
	}
	// The breakdown really is per tenant: each configured tenant owns at
	// least one series (the unknown tenant collapsed into default).
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{`tenant="default"`, `tenant="alpha"`, `tenant="beta"`} {
		if !strings.Contains(sb.String(), "lera_server_requests_total{"+tenant) {
			t.Errorf("ledger missing a %s series", tenant)
		}
	}
	if strings.Contains(sb.String(), `tenant="unknown"`) {
		t.Error("unknown tenant leaked its own label series")
	}
	// The armed faults actually fired.
	if srv.inj.Calls(RequestHook) == 0 {
		t.Error("request hook never hit")
	}
	if m.Counter("lera_server_panics_total", "").Value() == 0 {
		t.Error("injected request panic never isolated")
	}
	if byCode[guard.CodeOK] == total {
		t.Error("chaos run produced no failures at all")
	}

	// And the server still drains cleanly (startServer's cleanup checks
	// the error); a healthz probe still answers first.
	out := NewClient(base).Query(context.Background(), filmQuery)
	if out.Code != guard.CodeOK {
		t.Errorf("post-chaos query: %s", out.Code)
	}
}

// TestChaosPanicReplacesSession: an execution-layer panic that escapes
// the pipeline's own isolation is caught by the per-request recover and
// the suspect pooled session is replaced — the pool never shrinks and
// later queries still answer.
func TestChaosPanicReplacesSession(t *testing.T) {
	srv, base := startArmed(t, Config{MaxInFlight: 1})
	// ADT panics are isolated inside adtCall and come back as
	// EXTERNAL_PANIC without poisoning the session.
	srv.inj.Set("COUNT", guard.Fault{OnCall: 1, Mode: guard.FaultPanic})

	c := NewClient(base)
	out := c.Query(context.Background(), "SELECT Title FROM FILM WHERE COUNT(Categories) > 0")
	if out.Code != guard.CodeExternalPanic {
		t.Fatalf("code = %s, want EXTERNAL_PANIC (%+v)", out.Code, out.Resp)
	}

	// Request-hook panics hit the outer recover (INTERNAL, isolated).
	srv.inj.Set(RequestHook, guard.Fault{OnCall: srv.inj.Calls(RequestHook) + 1, Mode: guard.FaultPanic})
	out = c.Query(context.Background(), filmQuery)
	if out.Code != guard.CodeInternal {
		t.Fatalf("request panic code = %s, want INTERNAL", out.Code)
	}

	// The server keeps answering afterwards with the full pool.
	for i := 0; i < 3; i++ {
		if out := c.Query(context.Background(), filmQuery); out.Code != guard.CodeOK {
			t.Fatalf("post-panic query %d: %s", i, out.Code)
		}
	}
	if srv.Metrics().Counter("lera_server_panics_total", "").Value() == 0 {
		t.Error("panic isolation counter is zero")
	}
}

// TestReplacedSessionFeedsSlowRing: a pooled session whose query panicked
// is replaced by a fresh fork of the boot session, and that fork still
// collects the per-operator tree the slow-query ring retains — the setting
// lives on the session every fork comes from, not at each fork site.
func TestReplacedSessionFeedsSlowRing(t *testing.T) {
	srv, base := startServer(t, Config{MaxInFlight: 1, SlowThreshold: time.Nanosecond})
	ctx := context.Background()
	sess, err := srv.pool.checkout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sess.DB = nil // the next query on this session panics past every isolation
	srv.pool.checkin(sess)

	c := NewClient(base)
	if out := c.Query(ctx, filmQuery); out.Code != guard.CodeInternal {
		t.Fatalf("poisoned session: code = %s, want INTERNAL", out.Code)
	}
	// The replacement was checked in: nothing is out, the pool is whole,
	// and the poisoned session is not in it.
	if n, idle := srv.pool.inFlight(), len(srv.pool.idle); n != 0 || idle != srv.cfg.MaxInFlight {
		t.Fatalf("after the panic: %d in flight, %d of %d sessions idle", n, idle, srv.cfg.MaxInFlight)
	}
	if got := <-srv.pool.idle; got == sess {
		t.Fatal("the panicked session went back into the pool")
	} else {
		srv.pool.checkin(got)
	}
	if out := c.Query(ctx, filmQuery); out.Code != guard.CodeOK {
		t.Fatalf("replacement session: code = %s", out.Code)
	}
	e := srv.SlowLog().Snapshot()[0] // newest first
	if e.Code != string(guard.CodeOK) || e.Report == nil || e.Report.Exec == nil {
		t.Errorf("the replacement's capture holds no exec tree: code=%s report=%+v", e.Code, e.Report)
	}
}

// FuzzParseChaos: whatever the spec, ParseChaos does not panic, an error
// comes with a nil result, and a success is a list of well-formed faults
// that re-encodes to a spec parsing back to the same list. Seeds in
// testdata/fuzz/FuzzParseChaos.
func FuzzParseChaos(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseChaos(spec)
		if err != nil {
			if faults != nil {
				t.Fatalf("ParseChaos(%q) = %v with error %v", spec, faults, err)
			}
			if !strings.HasPrefix(err.Error(), "server: chaos fault ") {
				t.Fatalf("ParseChaos(%q): error %q lacks the package prefix", spec, err)
			}
			return
		}
		for _, cf := range faults {
			if err := checkChaosFault(cf); err != "" {
				t.Fatalf("ParseChaos(%q): fault %+v: %s", spec, cf, err)
			}
		}
		again, err := ParseChaos(chaosSpec(faults))
		if err != nil || !slices.Equal(again, faults) {
			t.Fatalf("ParseChaos(%q) = %+v, re-encoded as %q parses to %+v, %v", spec, faults, chaosSpec(faults), again, err)
		}
	})
}

// checkChaosFault says what is wrong with a parsed fault, or "".
func checkChaosFault(cf ChaosFault) string {
	switch {
	case cf.Name == "" || cf.Name != normalizeChaosName(cf.Name):
		return "name not normalized"
	case chaosModes[cf.Fault.Mode] == "":
		return "unknown mode"
	case cf.Fault.OnCall < 0 || cf.Fault.Every < 0:
		return "negative call schedule"
	case cf.Fault.Mode == guard.FaultStall && cf.Fault.Stall <= 0:
		return "stall mode without a stall"
	}
	return ""
}

var chaosModes = map[guard.FaultMode]string{guard.FaultError: "error", guard.FaultPanic: "panic", guard.FaultStall: "stall"}

// chaosSpec writes faults back in the spec grammar, each option that is
// set once.
func chaosSpec(faults []ChaosFault) string {
	items := make([]string, len(faults))
	for i, cf := range faults {
		item := cf.Name + ":" + chaosModes[cf.Fault.Mode]
		if cf.Fault.OnCall != 0 {
			item += ":on=" + strconv.Itoa(cf.Fault.OnCall)
		}
		if cf.Fault.Every != 0 {
			item += ":every=" + strconv.Itoa(cf.Fault.Every)
		}
		if cf.Fault.Stall != 0 {
			item += ":stall=" + cf.Fault.Stall.String()
		}
		items[i] = item
	}
	return strings.Join(items, ",")
}
