package engine

// Out-of-core execution: the spill half of the memory governor
// (docs/PERF.md, "Memory governor & spill"). guard.Limits.MaxMemBytes is
// a per-operator memory grant in the work_mem tradition: each
// memory-hungry operator structure — a SEARCH hash-join build, a dedup
// pass, a fixpoint or INTERN/DIFF seen-set — tracks a deterministic
// estimate of its resident bytes, and the moment the estimate would
// exceed the grant it switches to its out-of-core strategy:
//
//   - join builds and dedup passes go grace-hash: rows are partitioned by
//     their 64-bit key hash (hash.go) into spillFanout disk partitions
//     with a length-prefixed value encoding, then joined/deduplicated
//     partition by partition, recursing with the next hash nibble when a
//     partition is itself over the grant (skew). Partition outputs merge
//     by original row index — the same index-ordered merge discipline as
//     the parallel sites (parallel.go) — so rows, Counters and the
//     deterministic EXPLAIN ANALYZE rendering are bit-identical to the
//     in-memory path at every batch size, pool size and budget;
//   - online membership sets (fixpoint seen-sets, INTERN/DIFF keys),
//     which must answer add/has queries mid-stream and therefore cannot
//     be deferred to a partition pass, migrate their row storage to an
//     append-only spill file and keep only hash→offset buckets in
//     memory, re-reading candidate rows for the collision-checked
//     equality fallback.
//
// Temp files live in a per-evaluation directory under DB.SpillDir,
// removed when the evaluation ends (success, error, cancellation or
// server drain all unwind through the same EvalCtx defer). Without a
// spill directory the switch is impossible and the operator fails with
// the typed guard.ErrMemBudget (protocol code MEM_BUDGET) instead of
// growing without bound.
//
// The size estimates are pure functions of row content, so the
// spill/fail decision is identical at every BatchSize and Parallelism
// setting — the governor never consults the (racy) shared account to
// decide, only to report. The reference evaluator (reference.go) runs
// with the governor off, exactly as it ignores the persistent index set.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"lera/internal/guard"
	"lera/internal/value"
)

// SpillStats are the cumulative out-of-core counters of a DB, kept
// separate from Counters on purpose: Counters are part of the
// bit-identity contract between spilled and in-memory runs, while spill
// activity is exactly what distinguishes them. Surfaced as the
// lera_engine_spill_* metrics through core/obs.
type SpillStats struct {
	// Partitions counts spill files created (grace partitions at every
	// recursion depth, plus one per migrated membership set).
	Partitions int64
	// Bytes counts bytes written to spill files.
	Bytes int64
	// Reads counts spill records read back (partition scans and
	// collision-candidate reads).
	Reads int64
}

// Add accumulates other into s.
func (s *SpillStats) Add(other SpillStats) {
	s.Partitions += other.Partitions
	s.Bytes += other.Bytes
	s.Reads += other.Reads
}

// Grace-hash geometry: partitions per level consume spillHashBits of the
// 64-bit row hash, so recursion can re-partition maxSpillDepth times
// before the hash is exhausted. A partition whose rows all share one
// hash (forced collisions, pathological data) stops splitting and is
// processed in memory — the collision-checked buckets keep it correct.
const (
	spillFanout   = 16
	spillHashBits = 4
	maxSpillDepth = 64 / spillHashBits
)

// spillNibble selects the partition of hash h at recursion depth d.
func spillNibble(h uint64, d int) int {
	return int((h >> (uint(d) * spillHashBits)) & (spillFanout - 1))
}

// Deterministic per-value resident-size estimates, in bytes. These are
// accounting units, not allocator truth: they only need to be pure
// functions of the value so every engine configuration makes the same
// spill decision.
const (
	valueSelfBytes = 96 // one value.Value struct
	rowSliceBytes  = 24 // one row slice header
	setEntryBytes  = 48 // per-row bookkeeping of a hashed (or spilled) set
)

// valueMemBytes estimates the resident bytes of one value.
func valueMemBytes(v value.Value) int64 {
	n := int64(valueSelfBytes) + int64(len(v.S))
	for _, name := range v.Names {
		n += 16 + int64(len(name))
	}
	for _, e := range v.Elems {
		n += valueMemBytes(e)
	}
	return n
}

// rowMemBytes estimates the resident bytes of one row.
func rowMemBytes(row []value.Value) int64 {
	n := int64(rowSliceBytes)
	for _, v := range row {
		n += valueMemBytes(v)
	}
	return n
}

// rowsMemBytes estimates the resident bytes of a row slice.
func rowsMemBytes(rows [][]value.Value) int64 {
	n := int64(rowSliceBytes)
	for _, row := range rows {
		n += rowMemBytes(row)
	}
	return n
}

// memGrant returns the per-operator memory grant (0 = governor off).
func (db *DB) memGrant() int64 {
	if db.g == nil {
		return 0
	}
	return db.g.lim.MaxMemBytes
}

// chargeMem adds n tracked bytes to the evaluation's shared account
// (reporting only — see guard.Budget.ChargeMem). A no-op when the
// governor is off, so ungoverned queries report MemPeakBytes == 0 and
// pay nothing in the hot paths.
func (db *DB) chargeMem(n int64) {
	if g := db.g; g != nil && n > 0 && g.lim.MaxMemBytes > 0 {
		g.rows.ChargeMem(n)
	}
}

// releaseMem returns n tracked bytes to the shared account.
func (db *DB) releaseMem(n int64) {
	if g := db.g; g != nil && n > 0 && g.lim.MaxMemBytes > 0 {
		g.rows.ReleaseMem(n)
	}
}

// spillOK reports whether the evaluation has a spill directory to move
// over-grant state into.
func (db *DB) spillOK() bool { return db.g != nil && db.g.spill.enabled() }

// errMemBudget is the typed over-grant failure of an operator that had
// no spill directory to degrade into.
func (db *DB) errMemBudget(op string, bytes int64) error {
	return fmt.Errorf("engine: %s needs ~%d tracked bytes (mem grant %d, no spill dir): %w",
		op, bytes, db.g.lim.MaxMemBytes, guard.ErrMemBudget)
}

// noteSpill records spill-file activity on the DB totals and the open
// EXPLAIN ANALYZE frame (spill annotations render only with timings, so
// the deterministic Format(false) output every bit-identity gate pins is
// untouched).
func (db *DB) noteSpill(partitions, bytes int64) {
	db.Spill.Partitions += partitions
	db.Spill.Bytes += bytes
	if g := db.g; g != nil && g.cur != nil {
		g.cur.SpillPartitions += partitions
		g.cur.SpillBytes += bytes
	}
}

// spillState is the per-evaluation spill-directory handle, shared by
// every worker clone (worker()). The directory is created lazily on the
// first spill and removed by the EvalCtx defer — success, error,
// cancellation and drain all unwind through it.
type spillState struct {
	base string // configured spill dir; "" = spilling disabled
	mu   sync.Mutex
	dir  string
	err  error
}

// enabled reports whether a spill directory is configured. Nil-safe.
func (s *spillState) enabled() bool { return s != nil && s.base != "" }

// tempFile creates a fresh spill file in the evaluation's directory.
func (s *spillState) tempFile() (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	if s.dir == "" {
		dir, err := os.MkdirTemp(s.base, "lera-spill-*")
		if err != nil {
			s.err = fmt.Errorf("engine: creating spill dir: %w", err)
			return nil, s.err
		}
		s.dir = dir
	}
	f, err := os.CreateTemp(s.dir, "part-*")
	if err != nil {
		return nil, fmt.Errorf("engine: creating spill file: %w", err)
	}
	return f, nil
}

// cleanup removes the evaluation's spill directory and everything in it.
// Nil-safe and idempotent.
func (s *spillState) cleanup() {
	if s == nil {
		return
	}
	s.mu.Lock()
	dir := s.dir
	s.dir = ""
	s.mu.Unlock()
	if dir != "" {
		_ = os.RemoveAll(dir)
	}
}

// ---- Length-prefixed value encoding ----
//
// The spill record format must round-trip rows exactly under rowKeyEq:
// numeric kinds keep their float64 bit pattern (so -0.0 vs 0.0 and NaN
// payloads survive the disk trip), tuples keep their field names, and
// every kind keeps its Kind (ints do not collapse into reals on disk
// even though Key-equality treats them alike — rendering distinguishes
// them).

// appendValue appends the encoding of v to buf.
func appendValue(buf []byte, v value.Value) []byte {
	buf = append(buf, byte(v.K))
	switch v.K {
	case value.KNull:
	case value.KBool:
		if v.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case value.KInt:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	case value.KReal:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case value.KString:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	case value.KOID:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.OID))
	case value.KTuple:
		buf = binary.AppendUvarint(buf, uint64(len(v.Elems)))
		for _, name := range v.Names {
			buf = binary.AppendUvarint(buf, uint64(len(name)))
			buf = append(buf, name...)
		}
		for _, e := range v.Elems {
			buf = appendValue(buf, e)
		}
	default: // collections
		buf = binary.AppendUvarint(buf, uint64(len(v.Elems)))
		for _, e := range v.Elems {
			buf = appendValue(buf, e)
		}
	}
	return buf
}

// appendRow appends the encoding of row to buf.
func appendRow(buf []byte, row []value.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = appendValue(buf, v)
	}
	return buf
}

var errSpillCorrupt = fmt.Errorf("engine: corrupt spill record")

// decodeValue decodes one value at buf[pos:], returning the value and
// the position after it.
func decodeValue(buf []byte, pos int) (value.Value, int, error) {
	if pos >= len(buf) {
		return value.Value{}, pos, errSpillCorrupt
	}
	k := value.Kind(buf[pos])
	pos++
	v := value.Value{K: k}
	need := func(n int) bool { return pos+n <= len(buf) }
	switch k {
	case value.KNull:
	case value.KBool:
		if !need(1) {
			return v, pos, errSpillCorrupt
		}
		v.B = buf[pos] == 1
		pos++
	case value.KInt:
		if !need(8) {
			return v, pos, errSpillCorrupt
		}
		v.I = int64(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
	case value.KReal:
		if !need(8) {
			return v, pos, errSpillCorrupt
		}
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
	case value.KString:
		n, w := binary.Uvarint(buf[pos:])
		if w <= 0 || !need(w+int(n)) {
			return v, pos, errSpillCorrupt
		}
		pos += w
		v.S = string(buf[pos : pos+int(n)])
		pos += int(n)
	case value.KOID:
		if !need(8) {
			return v, pos, errSpillCorrupt
		}
		v.OID = int64(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
	case value.KTuple:
		n, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return v, pos, errSpillCorrupt
		}
		pos += w
		v.Names = make([]string, n)
		for i := range v.Names {
			ln, lw := binary.Uvarint(buf[pos:])
			if lw <= 0 || !need(lw+int(ln)) {
				return v, pos, errSpillCorrupt
			}
			pos += lw
			v.Names[i] = string(buf[pos : pos+int(ln)])
			pos += int(ln)
		}
		v.Elems = make([]value.Value, n)
		for i := range v.Elems {
			var err error
			v.Elems[i], pos, err = decodeValue(buf, pos)
			if err != nil {
				return v, pos, err
			}
		}
	case value.KSet, value.KBag, value.KList, value.KArray:
		n, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return v, pos, errSpillCorrupt
		}
		pos += w
		v.Elems = make([]value.Value, n)
		for i := range v.Elems {
			var err error
			v.Elems[i], pos, err = decodeValue(buf, pos)
			if err != nil {
				return v, pos, err
			}
		}
	default:
		return v, pos, errSpillCorrupt
	}
	return v, pos, nil
}

// decodeRow decodes one encoded row (the payload appendRow produced).
func decodeRow(buf []byte) ([]value.Value, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, errSpillCorrupt
	}
	pos := w
	row := make([]value.Value, n)
	for i := range row {
		var err error
		row[i], pos, err = decodeValue(buf, pos)
		if err != nil {
			return nil, err
		}
	}
	if pos != len(buf) {
		return nil, errSpillCorrupt
	}
	return row, nil
}

// ---- Spill partition files ----
//
// Grace-hash record framing: [uvarint payload length] [payload], where
// the payload is [8-byte hash] [8-byte original row index] [encoded
// row]. The hash rides along so recursion re-partitions without
// re-hashing decoded rows; the index is what the index-ordered output
// merge keys on.

// spillPart is one buffered partition file being written.
type spillPart struct {
	f     *os.File
	buf   []byte
	bytes int64
	rows  int64
}

func (p *spillPart) add(h, idx uint64, row []value.Value) error {
	p.buf = p.buf[:0]
	p.buf = binary.LittleEndian.AppendUint64(p.buf, h)
	p.buf = binary.LittleEndian.AppendUint64(p.buf, idx)
	p.buf = appendRow(p.buf, row)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(p.buf)))
	if _, err := p.f.Write(hdr[:n]); err != nil {
		return fmt.Errorf("engine: spill write: %w", err)
	}
	if _, err := p.f.Write(p.buf); err != nil {
		return fmt.Errorf("engine: spill write: %w", err)
	}
	p.bytes += int64(n + len(p.buf))
	p.rows++
	return nil
}

// close removes the partition file (partitions are single-pass scratch).
func (p *spillPart) close() {
	if p.f != nil {
		name := p.f.Name()
		_ = p.f.Close()
		_ = os.Remove(name)
		p.f = nil
	}
}

// spillRecord is one decoded partition record.
type spillRecord struct {
	hash uint64
	idx  uint64
	row  []value.Value
}

// readSpillPart reads every record of a partition file in write order,
// invoking fn for each. Reads are accounted on db.Spill.
func (db *DB) readSpillPart(p *spillPart, fn func(rec spillRecord) error) error {
	if _, err := p.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("engine: spill read: %w", err)
	}
	data, err := io.ReadAll(p.f)
	if err != nil {
		return fmt.Errorf("engine: spill read: %w", err)
	}
	pos := 0
	for pos < len(data) {
		n, w := binary.Uvarint(data[pos:])
		if w <= 0 || pos+w+int(n) > len(data) || n < 16 {
			return errSpillCorrupt
		}
		pos += w
		payload := data[pos : pos+int(n)]
		pos += int(n)
		row, err := decodeRow(payload[16:])
		if err != nil {
			return err
		}
		db.Spill.Reads++
		if err := fn(spillRecord{
			hash: binary.LittleEndian.Uint64(payload),
			idx:  binary.LittleEndian.Uint64(payload[8:]),
			row:  row,
		}); err != nil {
			return err
		}
	}
	return nil
}

// spillPartition routes rows into spillFanout partition files by the
// hash nibble at depth. hashes[i] must be the governing hash of rows[i];
// idx[i] is the original row index carried through for the ordered
// merge (nil = identity).
func (db *DB) spillPartition(rows [][]value.Value, hashes []uint64, idxs []uint64, depth int) ([]*spillPart, error) {
	parts := make([]*spillPart, spillFanout)
	cleanup := func() {
		for _, p := range parts {
			if p != nil {
				p.close()
			}
		}
	}
	for i, row := range rows {
		if err := db.tickRow(); err != nil {
			cleanup()
			return nil, err
		}
		h := hashes[i]
		pi := spillNibble(h, depth)
		p := parts[pi]
		if p == nil {
			f, err := db.g.spill.tempFile()
			if err != nil {
				cleanup()
				return nil, err
			}
			p = &spillPart{f: f}
			parts[pi] = p
		}
		idx := uint64(i)
		if idxs != nil {
			idx = idxs[i]
		}
		if err := p.add(h, idx, row); err != nil {
			cleanup()
			return nil, err
		}
	}
	for _, p := range parts {
		if p != nil {
			db.noteSpill(1, p.bytes)
		}
	}
	return parts, nil
}

// respillPart re-partitions one over-grant partition at the next hash
// nibble (the skew recursion), consuming and removing the parent file.
func (db *DB) respillPart(p *spillPart, depth int) ([]*spillPart, error) {
	parts := make([]*spillPart, spillFanout)
	cleanup := func() {
		for _, np := range parts {
			if np != nil {
				np.close()
			}
		}
	}
	err := db.readSpillPart(p, func(rec spillRecord) error {
		if err := db.tickRow(); err != nil {
			return err
		}
		pi := spillNibble(rec.hash, depth)
		np := parts[pi]
		if np == nil {
			f, err := db.g.spill.tempFile()
			if err != nil {
				return err
			}
			np = &spillPart{f: f}
			parts[pi] = np
		}
		return np.add(rec.hash, rec.idx, rec.row)
	})
	p.close()
	if err != nil {
		cleanup()
		return nil, err
	}
	for _, np := range parts {
		if np != nil {
			db.noteSpill(1, np.bytes)
		}
	}
	return parts, nil
}

// splittable reports whether a partition's rows can still be separated
// by deeper hash nibbles: once every record shares one hash (forced
// collisions, pathological data) recursion cannot help and the
// partition is processed in memory regardless of size.
func partSplittable(rows []spillRecord) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i].hash != rows[0].hash {
			return true
		}
	}
	return false
}

// ---- Grace dedup ----

// dedupRows is the governed duplicate-elimination entry of the batched
// engine: the plain in-place pass (package dedupRows) while the
// deterministic input estimate is under the grant, graceDedup beyond it.
// The caller must own rows, like package dedupRows.
func (db *DB) dedupRows(rows [][]value.Value) ([][]value.Value, error) {
	grant := db.memGrant()
	if grant <= 0 {
		return dedupRows(rows), nil
	}
	total := rowsMemBytes(rows)
	if total > grant {
		if !db.spillOK() {
			return nil, db.errMemBudget("dedup set", total)
		}
		return db.graceDedup(rows)
	}
	db.chargeMem(total)
	out := dedupRows(rows)
	db.releaseMem(total)
	return out, nil
}

// graceDedup is the out-of-core dedupRows: rows are partitioned to disk
// by rowHash, each partition deduplicates independently (recursing on
// skew), and survivors merge by original row index — which reconstructs
// the exact first-occurrence order of the in-memory pass, over the very
// same row slices (the decoded disk copies are only used for the
// membership checks). The caller must own rows, like dedupRows.
func (db *DB) graceDedup(rows [][]value.Value) ([][]value.Value, error) {
	keep := make([]bool, len(rows))
	hashes := make([]uint64, len(rows))
	for i, row := range rows {
		if err := db.tickRow(); err != nil {
			return nil, err
		}
		hashes[i] = hashRowFn(row)
	}
	parts, err := db.spillPartition(rows, hashes, nil, 0)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range parts {
			if p != nil {
				p.close()
			}
		}
	}()
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := db.dedupPart(p, keep, 0); err != nil {
			return nil, err
		}
	}
	out := rows[:0]
	for i, row := range rows {
		if keep[i] {
			out = append(out, row)
		}
	}
	return out, nil
}

// dedupPart deduplicates one partition: load its records, recurse when
// still over the grant and splittable, otherwise mark first occurrences
// in the shared keep bitmap through a collision-checked bucket scan.
func (db *DB) dedupPart(p *spillPart, keep []bool, depth int) error {
	grant := db.memGrant()
	if p.bytes > grant && depth+1 < maxSpillDepth {
		var recs []spillRecord
		// Peek only far enough to know whether deeper nibbles separate the
		// rows; an unsplittable partition (all one hash) is processed
		// directly however large.
		split := false
		var firstHash uint64
		first := true
		err := db.readSpillPart(p, func(rec spillRecord) error {
			if first {
				firstHash = rec.hash
				first = false
			} else if rec.hash != firstHash {
				split = true
			}
			recs = append(recs, rec)
			return nil
		})
		if err != nil {
			return err
		}
		if split {
			subs, err := db.respillPart(p, depth+1)
			if err != nil {
				return err
			}
			defer func() {
				for _, sp := range subs {
					if sp != nil {
						sp.close()
					}
				}
			}()
			for _, sp := range subs {
				if sp == nil {
					continue
				}
				if err := db.dedupPart(sp, keep, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		return db.dedupRecords(recs, keep)
	}
	var recs []spillRecord
	if err := db.readSpillPart(p, func(rec spillRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return err
	}
	return db.dedupRecords(recs, keep)
}

// dedupRecords marks the first occurrence of each distinct row of one
// (sub)partition in the keep bitmap. Records arrive in original row
// order (partitioning preserves relative order at every depth), so the
// first bucket miss is the globally first occurrence within this
// partition — and distinct rows never span partitions.
func (db *DB) dedupRecords(recs []spillRecord, keep []bool) error {
	charged := int64(0)
	buckets := map[uint64][][]value.Value{}
	for _, rec := range recs {
		if err := db.tickRow(); err != nil {
			db.releaseMem(charged)
			return err
		}
		dup := false
		for _, seen := range buckets[rec.hash] {
			if rowKeyEq(seen, rec.row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		buckets[rec.hash] = append(buckets[rec.hash], rec.row)
		n := rowMemBytes(rec.row) + setEntryBytes
		charged += n
		db.chargeMem(n)
		keep[rec.idx] = true
	}
	db.releaseMem(charged)
	return nil
}

// ---- Grace hash join ----

// graceJoin is the out-of-core SEARCH equi-join: build rows spill to
// hash partitions, probe rows stay in memory routed by the same key
// hash, and each partition builds its (bounded) joinIndex and probes its
// probe rows in original order. Per-probe match lists collect into an
// array indexed by probe position, so the final flatten reproduces the
// in-memory probe-order output exactly; JoinPairs and ticks account per
// probe row exactly as the in-memory loop does. Like the in-memory
// producers it only enumerates pairs: k judges each one and yields the
// stage's output row for the survivors.
func (db *DB) graceJoin(probe, build [][]value.Value, leftKeys, rightKeys []int, k *searchKernel) ([][]value.Value, error) {
	probeHash := make([]uint64, len(probe))
	for i, prow := range probe {
		if err := db.tickRow(); err != nil {
			return nil, err
		}
		probeHash[i] = hashKeyFn(prow, leftKeys)
	}
	buildHash := make([]uint64, len(build))
	for i, brow := range build {
		if err := db.tickRow(); err != nil {
			return nil, err
		}
		buildHash[i] = hashKeyFn(brow, rightKeys)
	}
	parts, err := db.spillPartition(build, buildHash, nil, 0)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range parts {
			if p != nil {
				p.close()
			}
		}
	}()
	probeIdxs := make([][]int, spillFanout)
	for i, h := range probeHash {
		pi := spillNibble(h, 0)
		probeIdxs[pi] = append(probeIdxs[pi], i)
	}
	out := make([][][]value.Value, len(probe))
	for pi, p := range parts {
		if p == nil || len(probeIdxs[pi]) == 0 {
			if p != nil {
				// A partition no probe row hashes into cannot produce
				// matches; skip its scan entirely.
				continue
			}
			continue
		}
		if err := db.joinPart(p, probe, probeHash, probeIdxs[pi], leftKeys, rightKeys, 0, k, out); err != nil {
			return nil, err
		}
	}
	if k.err != nil {
		return nil, k.err
	}
	joined := make([][]value.Value, 0, len(probe))
	for _, matches := range out {
		joined = append(joined, matches...)
	}
	return joined, nil
}

// joinPart joins one build partition against its probe rows, recursing
// with the next hash nibble when the partition exceeds the grant and is
// still splittable.
func (db *DB) joinPart(p *spillPart, probe [][]value.Value, probeHash []uint64, idxs []int, leftKeys, rightKeys []int, depth int, k *searchKernel, out [][][]value.Value) error {
	var recs []spillRecord
	if err := db.readSpillPart(p, func(rec spillRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return err
	}
	if p.bytes > db.memGrant() && depth+1 < maxSpillDepth && partSplittable(recs) {
		subs, err := db.respillPart(p, depth+1)
		if err != nil {
			return err
		}
		defer func() {
			for _, sp := range subs {
				if sp != nil {
					sp.close()
				}
			}
		}()
		subIdxs := make([][]int, spillFanout)
		for _, i := range idxs {
			ni := spillNibble(probeHash[i], depth+1)
			subIdxs[ni] = append(subIdxs[ni], i)
		}
		for ni, sp := range subs {
			if sp == nil || len(subIdxs[ni]) == 0 {
				continue
			}
			if err := db.joinPart(sp, probe, probeHash, subIdxs[ni], leftKeys, rightKeys, depth+1, k, out); err != nil {
				return err
			}
		}
		return nil
	}
	rows := make([][]value.Value, len(recs))
	charged := int64(0)
	for i, rec := range recs {
		rows[i] = rec.row
		charged += rowMemBytes(rec.row) + setEntryBytes
	}
	db.chargeMem(charged)
	defer db.releaseMem(charged)
	ix := buildJoinIndex(rows, rightKeys)
	for _, i := range idxs {
		matches := ix.probe(probe[i], leftKeys)
		if len(matches) == 0 {
			continue
		}
		if err := db.tickRows(len(matches)); err != nil {
			return err
		}
		db.Count.JoinPairs += len(matches)
		for _, rrow := range matches {
			out[i] = k.pair(out[i], probe[i], rrow)
		}
	}
	return nil
}

// ---- Spilled membership sets ----

// spillSet is the out-of-core online membership set: row payloads live
// in an append-only spill file, memory holds only hash→(offset,length)
// buckets, and the collision-checked equality fallback re-reads
// candidate rows from disk. Membership semantics are exactly rowSet's,
// so first-seen behavior — and with it every downstream row — is
// untouched by the migration.
type spillSet struct {
	db      *DB
	f       *os.File
	off     int64
	buckets map[uint64][]spillRef
	mem     int64 // charged bookkeeping bytes
	scratch []byte
}

type spillRef struct {
	off int64
	n   int32
}

func (db *DB) newSpillSet() (*spillSet, error) {
	f, err := db.g.spill.tempFile()
	if err != nil {
		return nil, err
	}
	db.noteSpill(1, 0)
	return &spillSet{db: db, f: f, buckets: map[uint64][]spillRef{}}, nil
}

// matchAt reports whether the stored row at ref equals row.
func (s *spillSet) matchAt(ref spillRef, row []value.Value) (bool, error) {
	if cap(s.scratch) < int(ref.n) {
		s.scratch = make([]byte, ref.n)
	}
	buf := s.scratch[:ref.n]
	if _, err := s.f.ReadAt(buf, ref.off); err != nil {
		return false, fmt.Errorf("engine: spill read: %w", err)
	}
	s.db.Spill.Reads++
	stored, err := decodeRow(buf)
	if err != nil {
		return false, err
	}
	return rowKeyEq(stored, row), nil
}

// insert appends row under hash h without a membership check.
func (s *spillSet) insert(h uint64, row []value.Value) error {
	payload := appendRow(s.scratch[:0], row)
	s.scratch = payload[:0]
	if _, err := s.f.WriteAt(payload, s.off); err != nil {
		return fmt.Errorf("engine: spill write: %w", err)
	}
	ref := spillRef{off: s.off, n: int32(len(payload))}
	s.off += int64(len(payload))
	s.buckets[h] = append(s.buckets[h], ref)
	s.db.noteSpill(0, int64(len(payload)))
	s.db.chargeMem(setEntryBytes)
	s.mem += setEntryBytes
	return nil
}

// add inserts row and reports whether it was newly added.
func (s *spillSet) add(row []value.Value) (bool, error) {
	h := hashRowFn(row)
	for _, ref := range s.buckets[h] {
		ok, err := s.matchAt(ref, row)
		if err != nil {
			return false, err
		}
		if ok {
			return false, nil
		}
	}
	if err := s.insert(h, row); err != nil {
		return false, err
	}
	return true, nil
}

// has reports membership without inserting.
func (s *spillSet) has(row []value.Value) (bool, error) {
	for _, ref := range s.buckets[hashRowFn(row)] {
		ok, err := s.matchAt(ref, row)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// close releases the set's file and charged bookkeeping.
func (s *spillSet) close() {
	if s.f != nil {
		name := s.f.Name()
		_ = s.f.Close()
		_ = os.Remove(name)
		s.f = nil
	}
	s.db.releaseMem(s.mem)
	s.mem = 0
}

// memSet is the budgeted online membership set of the batched engine:
// an ordinary hashed rowSet while under the grant, migrating its row
// storage to a spillSet the moment the tracked estimate crosses it.
// Used for fixpoint seen-sets and INTERN/DIFF membership — the sites
// where membership answers are consumed mid-stream and a partition pass
// is impossible.
type memSet struct {
	db    *DB
	label string
	grant int64
	set   *rowSet
	bytes int64
	sp    *spillSet
}

func (db *DB) newMemSet(label string) *memSet {
	return &memSet{db: db, label: label, grant: db.memGrant(), set: newRowSet()}
}

// add inserts row and reports whether it was newly added, migrating to
// disk when the insertion crosses the grant.
func (m *memSet) add(row []value.Value) (bool, error) {
	if m.sp != nil {
		return m.sp.add(row)
	}
	added := m.set.add(row)
	if added && m.grant > 0 {
		n := rowMemBytes(row) + setEntryBytes
		m.bytes += n
		m.db.chargeMem(n)
		if m.bytes > m.grant {
			if err := m.migrate(); err != nil {
				return false, err
			}
		}
	}
	return added, nil
}

// has reports membership without inserting.
func (m *memSet) has(row []value.Value) (bool, error) {
	if m.sp != nil {
		return m.sp.has(row)
	}
	return m.set.has(row), nil
}

// migrate moves the set's row storage to a spillSet, bucket by bucket
// (bucket order is irrelevant: only per-bucket candidate order matters,
// and membership answers are order-independent booleans either way).
func (m *memSet) migrate() error {
	if !m.db.spillOK() {
		return m.db.errMemBudget(m.label, m.bytes)
	}
	sp, err := m.db.newSpillSet()
	if err != nil {
		return err
	}
	for h, bucket := range m.set.m {
		for _, row := range bucket {
			if err := m.db.tickRow(); err != nil {
				sp.close()
				return err
			}
			if err := sp.insert(h, row); err != nil {
				sp.close()
				return err
			}
		}
	}
	m.db.releaseMem(m.bytes)
	m.bytes = 0
	m.set = nil
	m.sp = sp
	return nil
}

// close releases the set's memory charge and any spill file.
func (m *memSet) close() {
	if m.sp != nil {
		m.sp.close()
		m.sp = nil
	}
	m.db.releaseMem(m.bytes)
	m.bytes = 0
}
