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
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"syscall"
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
// generous grant that never spills is covered too, as is a 1 KiB grant
// under which some partitions descend while their siblings are leaves,
// and the tiny-grant runs must in fact have spilled.
func TestSpillBitIdentity(t *testing.T) {
	g := loadGolden(t)
	spilled := int64(0)
	for name, q := range diffCorpus() {
		for _, mode := range []FixMode{Naive, SemiNaive} {
			want := golden(t, g, "corpus/"+name+"/"+modeName(mode))
			ref := referenceRows(t, loadedDB(t), q, mode)
			for _, budget := range []int64{1, 1 << 10, 1 << 30} {
				for _, batch := range []int{1, 1024} {
					for _, par := range []int{1, 4} {
						run, db := runSpillEngine(t, q, batch, par, budget, t.TempDir(), mode)
						if d := diffRuns(want, run); d != "" {
							t.Errorf("%s mode=%v budget=%d batch=%d par=%d vs golden: %s", name, mode, budget, batch, par, d)
						}
						if d := diffRows(ref, run); d != "" {
							t.Errorf("%s mode=%v budget=%d batch=%d par=%d: %s", name, mode, budget, batch, par, d)
						}
						switch {
						case budget == 1:
							spilled += db.Spill.Partitions + db.Spill.Bytes
						case budget == 1<<30 && db.Spill != (SpillStats{}):
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

// TestSpillRepartitionsOnResidentBytes pins the unit of the recursion
// threshold and the read-once contract. A 16 000-row two-int build under
// a 128 KiB grant makes depth-0 partitions of ~1 000 rows: ~36 KB on disk
// but ~264 KB resident, so they must be re-partitioned — comparing the
// encoded size instead (the bug this guards) loads them whole. Both
// governed structures, the join build and the 15 999-row output dedup,
// then live at exactly two levels, and each spilled row is read once per
// level: a partition that is split is streamed, never decoded first.
// Rows, counters and the stats tree stay those of the ungoverned run.
func TestSpillRepartitionsOnResidentBytes(t *testing.T) {
	const n = 16000
	want := runOn(chainDB(t, n), bigJoinQuery(), runCfg{par: 1})
	dir := t.TempDir()
	db := chainDB(t, n)
	got := runOn(db, bigJoinQuery(), runCfg{par: 1, lim: guard.Limits{MaxMemBytes: 128 << 10}, spillDir: dir})
	if d := diffRuns(want, got); d != "" {
		t.Fatalf("governed vs ungoverned: %s", d)
	}
	if db.Spill.Partitions <= 2*spillFanout {
		t.Errorf("Spill.Partitions = %d: no over-grant partition was re-partitioned", db.Spill.Partitions)
	}
	if wantReads := int64(2*n + 2*(n-1)); db.Spill.Reads != wantReads {
		t.Errorf("Spill.Reads = %d, want %d (each spilled row once per level)", db.Spill.Reads, wantReads)
	}
	dirEmpty(t, dir, "after the re-partitioned join")
}

// TestSpillCountersPinned pins the SpillStats of a grace join and dedup
// re-partitioned to two levels, and of a fixpoint whose seen-set migrates,
// to the values the store reported when it wrote every record on its own
// and every partition to a file of its own: writing by the block moves no
// counter. Partitions counts partitions, not files; Bytes counts records
// as they are added, whether or not their block is ever written.
func TestSpillCountersPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		db    *DB
		q     *term.Term
		grant int64
		want  SpillStats
	}{
		{"join+dedup", chainDB(t, 4000), bigJoinQuery(), 32 << 10, SpillStats{Partitions: 544, Bytes: 575928, Reads: 15998}},
		// The fixpoint's base SEARCH projects EDGE's distinct Src as is, so
		// it admits no dedup set and spills none.
		{"fixpoint", chainDB(t, 60), tcFix("TC"), 4 << 10, SpillStats{Partitions: 1551, Bytes: 221934, Reads: 4602}},
	} {
		dir := t.TempDir()
		if run := runOn(c.db, c.q, runCfg{par: 1, lim: guard.Limits{MaxMemBytes: c.grant}, spillDir: dir}); run.Err != "" {
			t.Fatalf("%s: %s", c.name, run.Err)
		}
		if c.db.Spill != c.want {
			t.Errorf("%s: Spill = %+v, want %+v", c.name, c.db.Spill, c.want)
		}
		dirEmpty(t, dir, c.name)
	}
}

// TestSpillPartitionBlocks: records of random sizes routed into 16
// interleaved partitions of one file come back byte for byte, in write
// order — among them a record larger than a block, which is an extent of
// its own, and records that end exactly on a block boundary. The level
// lives in one temp file. End to end, a grace join and a grace dedup each
// re-partitioned to two levels hold one file per live level: counted from
// inside the walk, through the context the engine consults every few
// hundred rows, never more than two part files at once.
func TestSpillPartitionBlocks(t *testing.T) {
	db := chainDB(t, 1)
	base := t.TempDir()
	db.g = &evalGuard{ctx: context.Background(), lim: guard.Limits{MaxMemBytes: 1},
		rows: &guard.Budget{}, spill: &spillState{base: base}}
	defer db.g.spill.cleanup()
	ps := &partSet{db: db}
	defer ps.close()

	rng := rand.New(rand.NewPCG(1, 31))
	// A record whose row is one string of n bytes.
	record := func(pi, idx, n int) (uint64, []value.Value, []byte) {
		h := uint64(pi) | uint64(idx)<<spillHashBits
		row := []value.Value{value.String(strings.Repeat(string(rune('a'+pi)), n))}
		rec, _ := appendRecord(nil, h, uint64(idx), row)
		return h, row, rec
	}
	var want [spillFanout][]byte
	var wantIdx [spillFanout][]uint64
	exact, huge := 0, 0
	for idx := 0; idx < 2000; idx++ {
		pi := rng.IntN(spillFanout)
		n := rng.IntN(200)
		switch p := ps.parts[pi]; {
		case idx == 1000:
			n = 3 * spillBlockSize
			huge++
		case p != nil && rng.IntN(4) == 0:
			// Fill the partition's block to the byte, if a record can.
			free := spillBlockSize - len(p.block)
			for n = free; n > 0; n-- {
				if _, _, rec := record(pi, idx, n); len(rec) <= free {
					if len(rec) == free {
						exact++
					}
					break
				}
			}
		}
		h, row, rec := record(pi, idx, n)
		if err := ps.route(h, uint64(idx), row); err != nil {
			t.Fatal(err)
		}
		want[pi] = append(want[pi], rec...)
		wantIdx[pi] = append(wantIdx[pi], uint64(idx))
	}
	if exact == 0 || huge == 0 {
		t.Fatalf("%d records ended on a block boundary, %d outgrew a block; the test needs both", exact, huge)
	}
	files, _ := filepath.Glob(filepath.Join(base, "lera-spill-*", "part-*"))
	if len(files) != 1 {
		t.Errorf("one partition level holds %d temp files, want 1", len(files))
	}
	for pi, p := range ps.parts {
		got := make([]byte, p.len())
		if _, err := p.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[pi]) {
			t.Errorf("partition %d: %d bytes read back differ from the %d written", pi, len(got), len(want[pi]))
		}
		var idxs []uint64
		if _, err := p.scan(true, nil, func(rec spillRecord) error {
			idxs = append(idxs, rec.idx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(idxs, wantIdx[pi]) {
			t.Errorf("partition %d scans back records %v, want %v", pi, idxs, wantIdx[pi])
		}
	}

	// End to end: the join build and the output dedup of a 16 000-row
	// chain under a 128 KiB grant both live at two levels.
	dir := t.TempDir()
	jdb := chainDB(t, 16000)
	jdb.Parallelism = 1
	jdb.Limits = guard.Limits{MaxMemBytes: 128 << 10}
	jdb.SpillDir = dir
	w := &partFileWatch{Context: context.Background(), dir: dir}
	if _, err := jdb.EvalCtx(w, bigJoinQuery()); err != nil {
		t.Fatal(err)
	}
	if w.most != 2 {
		t.Errorf("at most %d part files at once over %d looks, want 2: one per live partition level", w.most, w.looks)
	}
	dirEmpty(t, dir, "after the two-level join")
}

// partFileWatch is a context whose Err, which the engine consults every
// few hundred rows, counts the part files under a spill directory.
type partFileWatch struct {
	context.Context
	dir         string
	most, looks int
}

func (w *partFileWatch) Err() error {
	files, _ := filepath.Glob(filepath.Join(w.dir, "lera-spill-*", "part-*"))
	w.most = max(w.most, len(files))
	w.looks++
	return w.Context.Err()
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
// (row budget, here, with spilling active) still removes every temp file,
// and so does a failing write. Spill writes happen only when a block is
// full, so the write error arrives at a block flush, records after the
// ones that filled it: it must surface as the query's error all the same.
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

	t.Run("block-flush-write-error", func(t *testing.T) {
		// The file-size limit is the whole process's: lowered here, it would
		// also fail the writes of the test binary's own test log. So the
		// limited part runs in a child process of the test binary.
		if os.Getenv(fsizeChildEnv) == "" {
			runInChild(t, fsizeChildEnv)
			return
		}
		db := chainDB(t, 50)
		db.Limits = guard.Limits{MaxMemBytes: 1}
		db.SpillDir = dir
		// Half a block: the first flush of any spill file fails part-way.
		defer limitFileSize(t, spillBlockSize/2)()
		_, err := db.EvalCtx(context.Background(), tcFix("TC"))
		if err == nil || !strings.Contains(err.Error(), "spill write") || !errors.Is(err, syscall.EFBIG) {
			t.Fatalf("got %v, want the spill write's EFBIG", err)
		}
		if db.Spill.Bytes < spillBlockSize {
			t.Errorf("Spill.Bytes = %d: the write failed before a block had filled", db.Spill.Bytes)
		}
		dirEmpty(t, dir, "after a failed block write")
	})
}

// fsizeChildEnv marks the child process that runs a subtest under a
// lowered file-size limit.
const fsizeChildEnv = "LERA_TEST_FSIZE_CHILD"

// runInChild runs test t alone again in a child process of the test
// binary, with env set to "1" there, and passes, skips or fails t as the
// child's run of it does.
func runInChild(t *testing.T, env string) {
	t.Helper()
	pattern := "^" + strings.ReplaceAll(t.Name(), "/", "$/^") + "$"
	cmd := exec.Command(os.Args[0], "-test.run="+pattern, "-test.v")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	switch {
	case err != nil:
		t.Fatalf("child process: %v\n%s", err, out)
	case bytes.Contains(out, []byte("--- SKIP: "+t.Name())):
		t.Skipf("child process skipped:\n%s", out)
	case !bytes.Contains(out, []byte("--- PASS: "+t.Name())):
		t.Fatalf("child process did not run %s:\n%s", t.Name(), out)
	}
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
		value.NewTuple([]string{"A", "B"}, []value.Value{value.Int(1), value.String("x")}),
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
	if !math.Signbit(got[5].F()) {
		t.Error("negative zero lost its sign")
	}
	if !math.IsNaN(got[6].F()) {
		t.Error("NaN did not survive")
	}
	// A bool byte other than 1 is FALSE, with the canonical payload word 0
	// that valueKeyEq and Compare rely on.
	if b, _, err := decodeValue([]byte{byte(value.KBool), 2}, 0); err != nil || b.I != 0 || b.B() {
		t.Errorf("bool byte 2 decoded to %s (word %d), %v; want FALSE (word 0)", b, b.I, err)
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

// TestSpillCodecNestedCountsStayLinear: a corrupt record of nested lists,
// each announcing half as many elements as bytes remain, is rejected having
// allocated a bounded multiple of its size — not the quadratic 4 GB a
// 16 KB record costs when every level may claim the same bytes.
func TestSpillCodecNestedCountsStayLinear(t *testing.T) {
	const size = 16 << 10
	buf := []byte{1}
	for len(buf) < size {
		buf = append(buf, byte(value.KList))
		buf = binary.AppendUvarint(buf, uint64(size-len(buf))/2)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeRow(buf)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errSpillCorrupt) {
		t.Fatalf("got %v, want errSpillCorrupt", err)
	}
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(1024*len(buf)); got > max {
		t.Errorf("decoding a corrupt %d-byte record allocated %d bytes, want <= %d", len(buf), got, max)
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

// TestSpillSetMigrationIsDeterministic: a seen-set that crosses its grant
// moves to disk in insertion order, so the file and every spillRef are a
// function of the rows added. (memSet.migrate used to range over a Go map:
// same answers, but a different file layout on every run.) The rows are a
// fixpoint's, fed to a memSet under an evaluation's guard exactly as
// fixSemiNaive feeds its seen-set; the set is read back before close removes
// its file. The end-to-end half: two governed runs of that FIX report equal
// rows and equal SpillStats.
func TestSpillSetMigrationIsDeterministic(t *testing.T) {
	const n = 60
	q := tcFix("TC")
	total := evalOK(t, chainDB(t, n), q).Rows
	// Twice over, so half the adds are duplicates that must read a
	// candidate back from the file.
	feed := append(append([][]value.Value(nil), total...), total...)

	type snapshot struct {
		file    []byte
		buckets map[uint64][]spillRef
		spill   SpillStats
	}
	migrated := func() snapshot {
		db := chainDB(t, n)
		db.g = &evalGuard{ctx: context.Background(), lim: guard.Limits{MaxMemBytes: 4 << 10},
			rows: &guard.Budget{}, spill: &spillState{base: t.TempDir()}}
		defer db.g.spill.cleanup()
		m := db.newMemSet("fixpoint seen-set")
		defer m.close()
		for i, row := range feed {
			fresh, err := m.add(row)
			if err != nil || fresh != (i < len(total)) {
				t.Fatalf("add %d = %v, %v", i, fresh, err)
			}
		}
		if m.sp == nil {
			t.Fatal("the seen-set never migrated; the test needs a smaller grant")
		}
		file := make([]byte, m.sp.size)
		if _, err := m.sp.f.ReadAt(file, 0); err != nil {
			t.Fatal(err)
		}
		return snapshot{file, m.sp.buckets, db.Spill}
	}
	a, b := migrated(), migrated()
	if !bytes.Equal(a.file, b.file) {
		t.Errorf("two migrations of the same seen-set wrote different files (%d and %d bytes)", len(a.file), len(b.file))
	}
	if !reflect.DeepEqual(a.buckets, b.buckets) {
		t.Error("two migrations of the same seen-set hold different (off, n) refs")
	}
	if a.spill != b.spill {
		t.Errorf("SpillStats differ: %+v vs %+v", a.spill, b.spill)
	}
	// The file is the rows in insertion order: each ref, taken in that
	// order, starts where the one before it ended.
	off := int64(0)
	for i, row := range total {
		payload := appendRow(nil, row)
		var ref spillRef
		for _, r := range a.buckets[hashRowFn(row)] {
			if r.off == off {
				ref = r
			}
		}
		if int(ref.n) != len(payload) || !bytes.Equal(a.file[off:off+int64(ref.n)], payload) {
			t.Fatalf("row %d is not at offset %d of the spill file", i, off)
		}
		off += int64(ref.n)
	}

	governed := func() (engineRun, SpillStats) {
		db := chainDB(t, n)
		run := runOn(db, q, runCfg{par: 1, lim: guard.Limits{MaxMemBytes: 4 << 10}, spillDir: t.TempDir()})
		return run, db.Spill
	}
	run1, spill1 := governed()
	run2, spill2 := governed()
	if d := diffRuns(run1, run2); d != "" {
		t.Errorf("two governed runs of one FIX differ: %s", d)
	}
	if spill1 != spill2 || spill1.Partitions == 0 {
		t.Errorf("SpillStats of two governed runs: %+v vs %+v (both must spill, alike)", spill1, spill2)
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

// sameKinds reports whether a and b agree on Kind at every nesting level
// (rowKeyEq alone treats an int and the equal real alike).
func sameKinds(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K || !sameKinds(a[i].Elems, b[i].Elems) {
			return false
		}
	}
	return true
}

// canonicalBools reports whether every bool in vals, at any nesting level,
// holds the payload word 0 or 1.
func canonicalBools(vals []value.Value) bool {
	for _, v := range vals {
		if (v.K == value.KBool && v.I != 0 && v.I != 1) || !canonicalBools(v.Elems) {
			return false
		}
	}
	return true
}

// FuzzSpillCodec feeds arbitrary bytes to the spill decoders, as a row
// payload and as a run of framed partition records. Whatever a spill file
// holds must decode or yield errSpillCorrupt — never panic, and never
// size an allocation from an unchecked length; any row that does decode
// must hold canonical bools and survive re-encoding under rowKeyEq with
// its Kinds, and every strict prefix of that re-encoding must be corrupt.
// Seeds: testdata/fuzz/FuzzSpillCodec.
func FuzzSpillCodec(f *testing.F) {
	f.Add(appendRow(nil, []value.Value{value.Int(1), value.Int(2)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for pos := 0; pos < len(data); {
			_, _, next, err := decodeRecord(data, pos, nil)
			if err != nil {
				if !errors.Is(err, errSpillCorrupt) {
					t.Fatalf("decodeRecord: %v, want errSpillCorrupt", err)
				}
				break
			}
			if next <= pos || next > len(data) {
				t.Fatalf("decodeRecord moved from %d to %d of %d", pos, next, len(data))
			}
			pos = next
		}
		row, err := decodeRow(data)
		if err != nil {
			if !errors.Is(err, errSpillCorrupt) {
				t.Fatalf("decodeRow: %v, want errSpillCorrupt", err)
			}
			return
		}
		if !canonicalBools(row) {
			t.Fatalf("a decoded bool's payload word is not 0 or 1: %s", rowKey(row))
		}
		enc := appendRow(nil, row)
		back, err := decodeRow(enc)
		if err != nil || !rowKeyEq(row, back) || !sameKinds(row, back) {
			t.Fatalf("round trip changed the row (%v):\n%s\nvs\n%s", err, rowKey(row), rowKey(back))
		}
		// Every prefix of a short record, a sample of a long one's.
		for cut := 0; cut < len(enc); cut += 1 + len(enc)/512 {
			if _, err := decodeRow(enc[:cut]); !errors.Is(err, errSpillCorrupt) {
				t.Fatalf("prefix %d of %d: got %v, want errSpillCorrupt", cut, len(enc), err)
			}
		}
	})
}
