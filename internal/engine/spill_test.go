package engine

// The memory governor and spill-to-disk contract (docs/PERF.md, "Memory
// governor & spill"): spill-forced runs are bit-identical to in-memory
// runs — rows in order (equal to the reference's), every counter and the
// timing-free stats tree (equal to the golden); spill temp files never outlive their query
// (success, error, cancel); an over-grant operator with no spill
// directory fails typed with MEM_BUDGET; and hash collisions — forced by
// swapping the package hashers for constant functions — are absorbed by
// bucket equality checks on the in-memory and spill paths alike.

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lera/internal/guard"
	"lera/internal/term"
	"lera/internal/value"
)

// runSpillEngine evaluates q on a fresh films database under the given
// memory grant and spill directory, returning the run outcome and the
// DB (for spill accounting).
func runSpillEngine(t *testing.T, q *term.Term, batch, par int, maxMem int64, spillDir string, mode FixMode) (engineRun, *DB) {
	t.Helper()
	db := loadedDB(t)
	return runOn(db, q, runCfg{batch: batch, par: par, lim: guard.Limits{MaxMemBytes: maxMem}, spillDir: spillDir, mode: mode}), db
}

// dirEmpty fails the test when dir contains anything.
func dirEmpty(t *testing.T, dir, when string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: reading spill dir: %v", when, err)
	}
	for _, e := range ents {
		t.Errorf("%s: spill dir retains %s", when, filepath.Join(dir, e.Name()))
	}
}

// TestSpillBitIdentity is the ISSUE 10 acceptance gate: for every corpus
// query and both fixpoint modes, spill-forced evaluation (grant so small
// every governed structure goes out of core) reproduces the golden bit
// for bit — rows in order, all counters, the whole stats tree — and the
// reference's rows, at batch sizes 1 and 1024 and pool sizes 1 and 4. A
// generous grant that never spills is covered too, and the tiny-grant
// runs must in fact have spilled.
func TestSpillBitIdentity(t *testing.T) {
	g := loadGolden(t)
	spilled := int64(0)
	for name, q := range diffCorpus() {
		for _, mode := range []FixMode{Naive, SemiNaive} {
			want := golden(t, g, "corpus/"+name+"/"+modeName(mode))
			ref := referenceRows(t, loadedDB(t), q, mode)
			for _, budget := range []int64{1, 1 << 30} {
				for _, batch := range []int{1, 1024} {
					for _, par := range []int{1, 4} {
						run, db := runSpillEngine(t, q, batch, par, budget, t.TempDir(), mode)
						if d := diffRuns(want, run); d != "" {
							t.Errorf("%s mode=%v budget=%d batch=%d par=%d vs golden: %s", name, mode, budget, batch, par, d)
						}
						if d := diffRows(ref, run); d != "" {
							t.Errorf("%s mode=%v budget=%d batch=%d par=%d: %s", name, mode, budget, batch, par, d)
						}
						if budget == 1 {
							spilled += db.Spill.Partitions + db.Spill.Bytes
						} else if db.Spill != (SpillStats{}) {
							t.Errorf("%s mode=%v batch=%d par=%d: generous grant spilled: %+v", name, mode, batch, par, db.Spill)
						}
					}
				}
			}
		}
	}
	if spilled == 0 {
		t.Error("tiny-grant runs never spilled — the gate is not exercising the out-of-core path")
	}
}

// TestSpillTempFilesCleanedOnSuccess: after every successful spill-forced
// query the spill directory is empty again.
func TestSpillTempFilesCleanedOnSuccess(t *testing.T) {
	dir := t.TempDir()
	for name, q := range diffCorpus() {
		run, _ := runSpillEngine(t, q, 1, 4, 1, dir, SemiNaive)
		if run.Err != "" {
			t.Fatalf("%s: %v", name, run.Err)
		}
		dirEmpty(t, dir, name)
	}
}

// TestSpillTempFilesCleanedOnError: a guard budget tripping mid-query
// (row budget, here, with spilling active) still removes every temp file.
func TestSpillTempFilesCleanedOnError(t *testing.T) {
	dir := t.TempDir()
	db := chainDB(t, 50)
	db.Limits = guard.Limits{MaxRows: 100, MaxMemBytes: 1}
	db.SpillDir = dir
	_, err := db.EvalCtx(context.Background(), tcFix("TC"))
	if !errors.Is(err, guard.ErrRowBudget) {
		t.Fatalf("got %v, want ErrRowBudget", err)
	}
	dirEmpty(t, dir, "after row-budget trip")
}

// TestSpillTempFilesCleanedOnCancel: a context deadline interrupting a
// spilling fixpoint removes every temp file on the way out.
func TestSpillTempFilesCleanedOnCancel(t *testing.T) {
	dir := t.TempDir()
	db := chainDB(t, 600)
	db.Limits = guard.Limits{MaxMemBytes: 1}
	db.SpillDir = dir
	db.Parallelism = 4
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := db.EvalCtx(ctx, tcFix("TC"))
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	dirEmpty(t, dir, "after cancellation")
}

// TestSpillFaultInjection: an injected ADT fault aborting evaluation while
// structures have spilled still cleans up and reports the injected error.
func TestSpillFaultInjection(t *testing.T) {
	dir := t.TempDir()
	db := loadedDB(t)
	db.Limits = guard.Limits{MaxMemBytes: 1}
	db.SpillDir = dir
	inj := guard.NewInjector()
	// MEMBER reaches the ADT registry (Name resolves as a field projection
	// and never hits the injector).
	inj.Set("MEMBER", guard.Fault{OnCall: 1, Mode: guard.FaultError})
	db.Injector = inj
	q := diffCorpus()["fig3-hash-join"]
	if _, err := db.EvalCtx(context.Background(), q); err == nil {
		t.Fatal("injected fault did not surface")
	}
	dirEmpty(t, dir, "after injected fault")
}

// TestMemBudgetWithoutSpillDir: an over-grant operator with no spill
// directory fails with the typed MEM_BUDGET error; the same query with a
// spill directory succeeds.
func TestMemBudgetWithoutSpillDir(t *testing.T) {
	q := diffCorpus()["fig3-hash-join"]
	db := loadedDB(t)
	db.Limits = guard.Limits{MaxMemBytes: 1}
	_, err := db.EvalCtx(context.Background(), q)
	if !errors.Is(err, guard.ErrMemBudget) {
		t.Fatalf("got %v, want ErrMemBudget", err)
	}
	if guard.CodeOf(err) != guard.CodeMemBudget {
		t.Fatalf("CodeOf = %s, want %s", guard.CodeOf(err), guard.CodeMemBudget)
	}

	run, _ := runSpillEngine(t, q, 0, 1, 1, t.TempDir(), SemiNaive)
	if run.Err != "" {
		t.Fatalf("with spill dir: %v", run.Err)
	}
}

// TestMemPeakReporting: governed queries report a tracked-memory peak;
// ungoverned queries report zero (their notice strings must not change).
func TestMemPeakReporting(t *testing.T) {
	q := diffCorpus()["fig3-hash-join"]
	db := loadedDB(t)
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if p := db.LastMemPeak(); p != 0 {
		t.Errorf("ungoverned query reports MemPeak %d, want 0", p)
	}
	db2 := loadedDB(t)
	db2.Limits = guard.Limits{MaxMemBytes: 1 << 30}
	if _, err := db2.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if p := db2.LastMemPeak(); p <= 0 {
		t.Errorf("governed query reports MemPeak %d, want > 0", p)
	}
}

// TestSpillCodecRoundTrip: every value kind survives the spill encoding,
// including negative zero, NaN, empty strings and nested collections;
// truncated payloads report corruption instead of bad rows.
func TestSpillCodecRoundTrip(t *testing.T) {
	row := []value.Value{
		{}, // NULL
		value.Bool(true),
		value.Bool(false),
		value.Int(-42),
		value.Int(math.MaxInt64),
		value.Real(math.Copysign(0, -1)),
		value.Real(math.NaN()),
		value.Real(3.5),
		value.String(""),
		value.String("Ω multi–byte \x00 bytes"),
		value.OID(7),
		{K: value.KTuple, Names: []string{"A", "B"}, Elems: []value.Value{value.Int(1), value.String("x")}},
		{K: value.KSet, Elems: []value.Value{value.Int(1), value.Int(2)}},
		{K: value.KBag, Elems: []value.Value{value.String("a"), value.String("a")}},
		{K: value.KList, Elems: []value.Value{value.Real(1.5)}},
		{K: value.KArray, Elems: []value.Value{{K: value.KSet, Elems: []value.Value{value.Int(9)}}}},
	}
	buf := appendRow(nil, row)
	got, err := decodeRow(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(row) {
		t.Fatalf("decoded %d values, want %d", len(got), len(row))
	}
	if rowKey(got) != rowKey(row) {
		t.Fatalf("round trip changed the row:\n%s\nvs\n%s", rowKey(got), rowKey(row))
	}
	// Bit-level real checks rowKey may not distinguish.
	if !math.Signbit(got[5].F) {
		t.Error("negative zero lost its sign")
	}
	if !math.IsNaN(got[6].F) {
		t.Error("NaN did not survive")
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := decodeRow(buf[:cut]); !errors.Is(err, errSpillCorrupt) {
			t.Fatalf("truncation at %d: got %v, want errSpillCorrupt", cut, err)
		}
	}
	if _, err := decodeRow(append(buf[:len(buf):len(buf)], 0)); !errors.Is(err, errSpillCorrupt) {
		t.Error("trailing garbage not reported as corruption")
	}
}

// TestHashCollisionAudit forces every hash to collide by swapping the
// package hashers for constant functions, then re-runs the corpus in
// memory and spill-forced: results must equal the golden and the
// reference (which hashes nothing), proving every hash structure —
// rowSet, join index, grace partitions, spill sets — falls back to bucket
// equality, and that an unsplittable all-one-hash partition terminates
// instead of recursing forever.
func TestHashCollisionAudit(t *testing.T) {
	g := loadGolden(t)
	savedRow, savedKey := hashRowFn, hashKeyFn
	hashRowFn = func([]value.Value) uint64 { return 0xDEAD }
	hashKeyFn = func([]value.Value, []int) uint64 { return 0xDEAD }
	defer func() { hashRowFn, hashKeyFn = savedRow, savedKey }()

	spilledParts := int64(0)
	for name, q := range diffCorpus() {
		want := golden(t, g, "corpus/"+name+"/semi-naive")
		inMem := runEngine(t, q, runCfg{par: 4})
		if d := diffRuns(want, inMem); d != "" {
			t.Errorf("%s in-memory under constant hash: %s", name, d)
		}
		spillRun, db := runSpillEngine(t, q, 1, 4, 1, t.TempDir(), SemiNaive)
		if d := diffRuns(want, spillRun); d != "" {
			t.Errorf("%s spill-forced under constant hash: %s", name, d)
		}
		if d := diffRows(referenceRows(t, loadedDB(t), q, SemiNaive), spillRun); d != "" {
			t.Errorf("%s spill-forced under constant hash: %s", name, d)
		}
		spilledParts += db.Spill.Partitions
	}
	if spilledParts == 0 {
		t.Error("constant-hash spill runs never wrote a partition")
	}
}

// TestSpillStatsOnlyInTimedOutput: spill activity renders in the stats
// tree only with timings on — the timing-free tree (what bit-identity
// pins) stays byte-identical whether or not a query spilled.
func TestSpillStatsOnlyInTimedOutput(t *testing.T) {
	q := diffCorpus()["fig3-hash-join"]
	run, db := runSpillEngine(t, q, 0, 1, 1, t.TempDir(), SemiNaive)
	if run.Err != "" {
		t.Fatal(run.Err)
	}
	if db.Spill.Partitions == 0 {
		t.Fatal("query did not spill; test needs a spilling query")
	}
	st := db.LastExecStats()
	plain := st.Format(false)
	timed := st.Format(true)
	if strings.Contains(plain, "spill=") {
		t.Errorf("timing-free stats leak spill info:\n%s", plain)
	}
	if !strings.Contains(timed, "spill=") {
		t.Errorf("timed stats missing spill info:\n%s", timed)
	}
}
