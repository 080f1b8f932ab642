package engine

// Out-of-core execution: the spill half of the memory governor
// (docs/PERF.md, "Memory governor & spill"). guard.Limits.MaxMemBytes is
// a per-operator memory grant in the work_mem tradition: each
// memory-hungry operator structure — a SEARCH hash-join build, a dedup
// pass, a fixpoint or INTERN/DIFF seen-set — tracks a deterministic
// estimate of its resident bytes, and the moment the estimate would
// exceed the grant it switches to its out-of-core strategy:
//
//   - join builds and dedup passes go grace-hash: rows are routed by their
//     64-bit key hash (hash.go) into spillFanout disk partitions with a
//     length-prefixed value encoding, and one recursion (graceWalk) visits
//     the partitions, re-partitioning by the next hash nibble any whose
//     resident estimate is itself over the grant (skew) and handing every
//     other to the operator's leaf. Leaf outputs merge by original row
//     index — the same index-ordered merge discipline as the parallel
//     sites (parallel.go) — so rows, Counters and the deterministic
//     EXPLAIN ANALYZE rendering are bit-identical to the in-memory path
//     at every batch size, pool size and budget;
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
// decide, only to report. The reference evaluator (reference_test.go) runs
// with the governor off, exactly as it ignores the persistent index set.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
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
	// Partitions counts spill partitions created (grace partitions at
	// every recursion depth, plus one per migrated membership set).
	Partitions int64
	// Bytes counts the bytes of the records spilled, as each is added to
	// its partition — whether or not its block is ever written.
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
// spill decision. setEntryBytes in particular is deliberately not what the
// allocator sees — a flat rowSet spends 12 to 24 bytes a row on its hash
// and slots, a join index less — but it is the unit every spill decision,
// every golden and every bench/expected counter was cut in, so it stays.
const (
	// One value.Value struct. The struct is 64 B since the scalar kinds
	// share one payload word; the unit is deliberately not its Sizeof, so
	// that a layout change moves no admit decision and no spill counter.
	valueSelfBytes = 96
	rowSliceBytes  = 24 // one row slice header
	setEntryBytes  = 48 // per-row bookkeeping charged for a hashed (or spilled) set
)

// valueMemBytes estimates the resident bytes of one value.
func valueMemBytes(v *value.Value) int64 {
	n := int64(valueSelfBytes) + int64(len(v.S))
	for _, name := range v.Names() {
		n += 16 + int64(len(name))
	}
	for i := range v.Elems {
		n += valueMemBytes(&v.Elems[i])
	}
	return n
}

// rowMemBytes estimates the resident bytes of one row.
func rowMemBytes(row []value.Value) int64 {
	n := int64(rowSliceBytes)
	for i := range row {
		n += valueMemBytes(&row[i])
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

// admit is the memory governor's one decision, taken before an operator
// builds a hashed structure over rows (entry = its bookkeeping bytes per
// row). Ungoverned: run in memory, nothing charged. Over the grant with
// no spill directory: the typed MEM_BUDGET. Over the grant: grace = true,
// the caller goes out of core. Under it: the estimate is charged, and the
// caller runs in memory and releases charged when done.
func (db *DB) admit(op string, rows [][]value.Value, entry int64) (grace bool, charged int64, err error) {
	grant := db.memGrant()
	if grant <= 0 {
		return false, 0, nil
	}
	need := rowsMemBytes(rows) + int64(len(rows))*entry
	switch {
	case need <= grant:
		db.chargeMem(need)
		return false, need, nil
	case !db.spillOK():
		return false, 0, db.errMemBudget(op, need)
	}
	return true, 0, nil
}

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
		if v.B() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case value.KInt, value.KReal, value.KOID:
		// The payload word: a real's is already its Float64bits.
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	case value.KString:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	case value.KTuple:
		buf = binary.AppendUvarint(buf, uint64(len(v.Elems)))
		for _, name := range v.Names() {
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

// decodeLen reads the uvarint byte length or element count at buf[pos:]
// and bounds it by the bytes that remain after it — every byte and every
// element it announces occupies at least one — so a corrupt length can
// neither wrap an int nor size an allocation. It returns the length and
// the position after the uvarint.
func decodeLen(buf []byte, pos int) (int, int, error) {
	n, w := binary.Uvarint(buf[pos:])
	if w <= 0 || n > uint64(len(buf)-pos-w) {
		return 0, pos, errSpillCorrupt
	}
	return int(n), pos + w, nil
}

// decodeValue decodes one value at buf[pos:], returning the value and
// the position after it. An element is decoded with the one byte each of
// its later siblings needs at least held back from buf: that is free for
// a valid record, and keeps what nested corrupt counts can make the
// decoder allocate linear in the record's size instead of quadratic.
func decodeValue(buf []byte, pos int) (value.Value, int, error) {
	if pos >= len(buf) {
		return value.Value{}, pos, errSpillCorrupt
	}
	v := value.Value{K: value.Kind(buf[pos])}
	pos++
	var n int
	var err error
	switch v.K {
	case value.KNull:
	case value.KBool:
		if pos >= len(buf) {
			return v, pos, errSpillCorrupt
		}
		v = value.Bool(buf[pos] == 1) // any other byte is FALSE, payload word 0
		pos++
	case value.KInt, value.KReal, value.KOID:
		if len(buf)-pos < 8 {
			return v, pos, errSpillCorrupt
		}
		v.I = int64(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
	case value.KString:
		if n, pos, err = decodeLen(buf, pos); err != nil {
			return v, pos, err
		}
		v.S = string(buf[pos : pos+n])
		pos += n
	case value.KTuple, value.KSet, value.KBag, value.KList, value.KArray:
		if n, pos, err = decodeLen(buf, pos); err != nil {
			return v, pos, err
		}
		var names []string
		if v.K == value.KTuple {
			names = make([]string, n)
			for i := range names {
				var ln int
				if ln, pos, err = decodeLen(buf, pos); err != nil {
					return v, pos, err
				}
				names[i] = string(buf[pos : pos+ln])
				pos += ln
			}
		}
		v.Elems = make([]value.Value, n)
		for i := range v.Elems {
			if v.Elems[i], pos, err = decodeValue(buf[:len(buf)-(n-1-i)], pos); err != nil {
				return v, pos, err
			}
		}
		if v.K == value.KTuple {
			v = value.NewTupleNamed(names, v.Elems)
		}
	default:
		return v, pos, errSpillCorrupt
	}
	return v, pos, nil
}

// decodeRow decodes one encoded row (the payload appendRow produced).
func decodeRow(buf []byte) ([]value.Value, error) {
	return appendDecodedRow(nil, buf)
}

// appendDecodedRow decodes one encoded row, appending its values to dst.
func appendDecodedRow(dst []value.Value, buf []byte) ([]value.Value, error) {
	n, pos, err := decodeLen(buf, 0)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for i := range n {
		var v value.Value
		if v, pos, err = decodeValue(buf[:len(buf)-(n-1-i)], pos); err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	if pos != len(buf) {
		return dst, errSpillCorrupt
	}
	return dst, nil
}

// ---- The partition store ----
//
// Everything out-of-core sits on four small types: a spillFile owns one
// temp file, a spillStream is a run of records written into a file by the
// block, a spillPart is a stream of hash-routed records plus what the walk
// must know of it, and a partSet is one fan-out level of the grace
// partition tree, its partitions sharing one file. Grace dedup and grace
// join fill a partSet and hand it to graceWalk with their leaf; the spilled
// membership set keeps its rows in a stream of its own file.

// spillBlockSize is the unit of spill writes: a stream gathers its records
// in one block of this many bytes and writes the block whole when the next
// record would not fit. It is a constant, not an option: 1 KiB takes
// the write calls out of the profile, and a larger block buys no more speed
// but costs memory, 16 blocks a partition level.
const spillBlockSize = 1 << 10

// spillFile owns one temp file of the evaluation's spill directory: one per
// partSet and one per migrated membership set. newSpillFile is the only
// creator, write the only writer and close the only remover; the files are
// single-pass scratch, so nothing is ever synced or kept.
type spillFile struct {
	db   *DB
	f    *os.File
	size int64 // bytes written
}

// newSpillFile creates a spill file.
func (db *DB) newSpillFile() (*spillFile, error) {
	f, err := db.g.spill.tempFile()
	if err != nil {
		return nil, err
	}
	return &spillFile{db: db, f: f}, nil
}

// write appends b in one Write, returning the offset it starts at.
func (s *spillFile) write(b []byte) (int64, error) {
	off := s.size
	if _, err := s.f.Write(b); err != nil {
		return 0, fmt.Errorf("engine: spill write: %w", err)
	}
	s.size += int64(len(b))
	return off, nil
}

// close closes and removes the file. Nil-safe and idempotent.
func (s *spillFile) close() {
	if s != nil && s.f != nil {
		name := s.f.Name()
		_ = s.f.Close()
		_ = os.Remove(name)
		s.f = nil
	}
}

// spillExtent is a run of a stream's bytes in its file.
type spillExtent struct {
	off, n int64
}

// spillStream is an append-only run of records in a spill file it may share
// with other streams. Records gather in the stream's block, written whole
// when the next record would not fit; what is written lies in extents of
// the file, in write order, adjacent ones coalesced.
type spillStream struct {
	file  *spillFile
	block []byte
	ext   []spillExtent
}

// append adds rec to the stream and accounts its bytes as SpillStats.Bytes.
// A record larger than a block is written as an extent of its own.
func (s *spillStream) append(rec []byte) error {
	if len(s.block)+len(rec) > spillBlockSize {
		if err := s.flush(s.block); err != nil {
			return err
		}
		s.block = s.block[:0]
	}
	if len(rec) > spillBlockSize {
		if err := s.flush(rec); err != nil {
			return err
		}
	} else {
		if s.block == nil {
			s.block = make([]byte, 0, spillBlockSize)
		}
		s.block = append(s.block, rec...)
	}
	s.file.db.noteSpill(0, int64(len(rec)))
	return nil
}

// flush writes b at the end of the file as the stream's next extent.
func (s *spillStream) flush(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	off, err := s.file.write(b)
	if err != nil {
		return err
	}
	if n := len(s.ext); n > 0 && s.ext[n-1].off+s.ext[n-1].n == off {
		s.ext[n-1].n += int64(len(b))
	} else {
		s.ext = append(s.ext, spillExtent{off: off, n: int64(len(b))})
	}
	return nil
}

// len returns the bytes appended to the stream.
func (s *spillStream) len() int64 {
	n := int64(len(s.block))
	for _, e := range s.ext {
		n += e.n
	}
	return n
}

// ReadAt reads len(b) bytes of the stream starting off bytes into it: from
// the file where they are written, from the block where they are not yet.
func (s *spillStream) ReadAt(b []byte, off int64) (int, error) {
	n := 0
	for _, e := range s.ext {
		if n == len(b) {
			return n, nil
		}
		if off >= e.n {
			off -= e.n
			continue
		}
		m, err := s.file.f.ReadAt(b[n:min(len(b), n+int(e.n-off))], e.off+off)
		n += m
		if err != nil {
			return n, fmt.Errorf("engine: spill read: %w", err)
		}
		off = 0
	}
	if off < int64(len(s.block)) {
		n += copy(b[n:], s.block[off:])
	}
	if n < len(b) {
		return n, fmt.Errorf("engine: spill read: %w", io.ErrUnexpectedEOF)
	}
	return n, nil
}

// spillRecord is one partition record. It is framed as [uvarint payload
// length] [payload], the payload being [8-byte hash] [8-byte original row
// index] [encoded row]: the hash rides along so that re-partitioning never
// re-hashes, and the index is what the index-ordered output merge keys on.
type spillRecord struct {
	hash uint64
	idx  uint64
	row  []value.Value
}

// appendRecord appends the framed record of row to buf[:0] and returns it:
// the payload is encoded behind a gap wide enough for any length header,
// which is then laid right-aligned against it. buf keeps the capacity.
func appendRecord(buf []byte, h, idx uint64, row []value.Value) (rec, grown []byte) {
	var hdr [binary.MaxVarintLen64]byte
	buf = append(buf[:0], hdr[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, h)
	buf = binary.LittleEndian.AppendUint64(buf, idx)
	buf = appendRow(buf, row)
	n := binary.PutUvarint(hdr[:], uint64(len(buf)-len(hdr)))
	rec = buf[len(hdr)-n:]
	copy(rec, hdr[:n])
	return rec, buf
}

// decodeRecord decodes the record framed at data[pos:], its row appended to
// vals as a full slice of it, returning the record, vals and the position
// after the record.
func decodeRecord(data []byte, pos int, vals []value.Value) (spillRecord, []value.Value, int, error) {
	n, pos, err := decodeLen(data, pos)
	if err != nil || n < 16 {
		return spillRecord{}, vals, pos, errSpillCorrupt
	}
	payload := data[pos : pos+n]
	start := len(vals)
	if vals, err = appendDecodedRow(vals, payload[16:]); err != nil {
		return spillRecord{}, vals, pos, err
	}
	return spillRecord{
		hash: binary.LittleEndian.Uint64(payload),
		idx:  binary.LittleEndian.Uint64(payload[8:]),
		row:  vals[start:len(vals):len(vals)],
	}, vals, pos + n, nil
}

// spillPart is one partition: a stream of records, with what graceWalk
// must know of it recorded as it fills, so that "over the grant and still
// splittable" is decided without reading it back.
type spillPart struct {
	spillStream
	rows int
	vals int // values in the rows, the slab a load decodes them into
	// resident is what loading the partition would charge: Σ rowMemBytes +
	// setEntryBytes, the unit of the grant and of the initial spill
	// decision — not the encoded size, which is ~13x smaller for int rows.
	resident int64
	// mixed reports more than one distinct hash (hash0 is the first): only
	// then can deeper nibbles separate the rows.
	hash0 uint64
	mixed bool
}

// add appends rec, the framed record of row under hash h.
func (p *spillPart) add(h uint64, row []value.Value, rec []byte) error {
	if err := p.append(rec); err != nil {
		return err
	}
	if p.rows == 0 {
		p.hash0 = h
	} else if h != p.hash0 {
		p.mixed = true
	}
	p.rows++
	p.vals += len(row)
	p.resident += rowMemBytes(row) + setEntryBytes
	return nil
}

// scan reads the partition back in write order into buf, invoking fn per
// record and counting each as one SpillStats.Reads; it returns buf, grown
// to the partition if it had to be. With keep, the rows are decoded into
// one slab sized for the partition and outlive the scan (no value aliases
// buf: strings are copied); without it they share one scratch row, valid
// only during fn — all the walk needs to stream a partition one level down.
func (p *spillPart) scan(keep bool, buf []byte, fn func(spillRecord) error) ([]byte, error) {
	n := int(p.len())
	data := slices.Grow(buf[:0], n)[:n]
	if _, err := p.ReadAt(data, 0); err != nil {
		return data, err
	}
	var vals []value.Value
	if keep {
		vals = make([]value.Value, 0, p.vals)
	}
	for pos := 0; pos < len(data); {
		if !keep {
			vals = vals[:0]
		}
		var rec spillRecord
		var err error
		if rec, vals, pos, err = decodeRecord(data, pos, vals); err != nil {
			return data, err
		}
		p.file.db.Spill.Reads++
		if err := fn(rec); err != nil {
			return data, err
		}
	}
	return data, nil
}

// partSet is one level of a grace partition tree: up to spillFanout
// partitions, selected by the hash nibble at depth, sharing one spill
// file. Whoever creates a set closes it.
type partSet struct {
	db    *DB
	depth int
	file  *spillFile // created with the first partition
	buf   []byte     // record scratch
	parts [spillFanout]*spillPart
}

// route appends a row to the partition its hash selects, creating the
// partition on first use (one SpillStats.Partitions). It serves the
// initial partitioning of an operator's rows and the re-partitioning of an
// over-grant partition alike. idx is the original row index, carried
// unchanged through every level.
func (ps *partSet) route(h, idx uint64, row []value.Value) error {
	if err := ps.db.tickRow(); err != nil {
		return err
	}
	pi := spillNibble(h, ps.depth)
	if ps.parts[pi] == nil {
		if ps.file == nil {
			f, err := ps.db.newSpillFile()
			if err != nil {
				return err
			}
			ps.file = f
		}
		ps.parts[pi] = &spillPart{spillStream: spillStream{file: ps.file}}
		ps.db.noteSpill(1, 0)
	}
	var rec []byte
	rec, ps.buf = appendRecord(ps.buf, h, idx, row)
	return ps.parts[pi].add(h, row, rec)
}

// close removes the set's file.
func (ps *partSet) close() { ps.file.close() }

// graceWalk is the one recursion of the out-of-core operators, over the
// partitions of ps in nibble order. A partition whose resident estimate
// exceeds the grant, and whose rows deeper nibbles can still separate, is
// streamed from disk into a set one level down — never decoded into
// memory first, so a spilled row is read once per level it lives at — and
// that set is walked in turn. Any other partition is loaded and handed to
// leaf; that includes an over-grant one whose records all share one hash
// (forced collisions), so termination never depends on hash quality, only
// the memory bound does. Partitioning preserves relative row order at
// every level, so leaf sees records in original order. A re-partitioned
// partition stays on disk until its set closes: the files of the levels
// on the path being walked are what the walk holds on disk.
//
// ride lists the in-memory rows travelling with the walk — a join's probe
// side, by index, with their key hashes in rideHash. They are routed by
// the same nibble at every level; leaf receives the ones that reached its
// partition, and a partition none reached cannot contribute and is
// skipped unread. A nil rideHash means no riders: every partition is
// visited.
func (db *DB) graceWalk(ps *partSet, ride []int, rideHash []uint64, leaf func(recs []spillRecord, ride []int) error) error {
	var rides [spillFanout][]int
	var buf []byte // the partitions' bytes, one at a time
	for _, i := range ride {
		pi := spillNibble(rideHash[i], ps.depth)
		rides[pi] = append(rides[pi], i)
	}
	for pi, p := range ps.parts {
		if p == nil || (rideHash != nil && len(rides[pi]) == 0) {
			continue
		}
		if p.resident > db.memGrant() && p.mixed && ps.depth+1 < maxSpillDepth {
			sub := &partSet{db: db, depth: ps.depth + 1}
			var err error
			buf, err = p.scan(false, buf, func(rec spillRecord) error { return sub.route(rec.hash, rec.idx, rec.row) })
			if err == nil {
				err = db.graceWalk(sub, rides[pi], rideHash, leaf)
			}
			sub.close()
			if err != nil {
				return err
			}
			continue
		}
		recs := make([]spillRecord, 0, p.rows)
		var err error
		if buf, err = p.scan(true, buf, func(rec spillRecord) error {
			recs = append(recs, rec)
			return nil
		}); err != nil {
			return err
		}
		if err := leaf(recs, rides[pi]); err != nil {
			return err
		}
	}
	return nil
}

// ---- Grace dedup ----

// dedupRows is the governed duplicate-elimination entry of the batched
// engine: the plain in-place pass (package dedupRows) under the grant,
// graceDedup beyond it. The caller must own rows, like package dedupRows.
func (db *DB) dedupRows(rows [][]value.Value) ([][]value.Value, error) {
	grace, charged, err := db.admit("dedup set", rows, 0)
	if err != nil {
		return nil, err
	}
	if grace {
		return db.graceDedup(rows)
	}
	defer db.releaseMem(charged)
	return dedupRows(rows), nil
}

// graceDedup is the out-of-core dedupRows: rows are partitioned to disk
// by rowHash, each leaf partition deduplicates independently, and
// survivors merge by original row index — which reconstructs the exact
// first-occurrence order of the in-memory pass, over the very same row
// slices (the decoded disk copies are only used for the membership
// checks). The caller must own rows, like dedupRows.
func (db *DB) graceDedup(rows [][]value.Value) ([][]value.Value, error) {
	ps := &partSet{db: db}
	defer ps.close()
	for i, row := range rows {
		if err := ps.route(hashRowFn(row), uint64(i), row); err != nil {
			return nil, err
		}
	}
	keep := make([]bool, len(rows))
	if err := db.graceWalk(ps, nil, nil, func(recs []spillRecord, _ []int) error {
		return db.dedupRecords(recs, keep)
	}); err != nil {
		return nil, err
	}
	out := rows[:0]
	for i, row := range rows {
		if keep[i] {
			out = append(out, row)
		}
	}
	return out, nil
}

// dedupRecords, grace dedup's leaf, marks the first occurrence of each
// distinct row of one partition in the keep bitmap. Records arrive in
// original row order, so a row's first miss in the set is its globally
// first occurrence — distinct rows never span partitions. The set runs on
// the hashes the records carry, sized once for the partition.
func (db *DB) dedupRecords(recs []spillRecord, keep []bool) error {
	charged := int64(0)
	defer func() { db.releaseMem(charged) }()
	var seen rowSet
	seen.reserve(len(recs))
	for _, rec := range recs {
		if err := db.tickRow(); err != nil {
			return err
		}
		if rec.idx >= uint64(len(keep)) {
			return errSpillCorrupt
		}
		if !seen.addHashed(rec.hash, rec.row) {
			continue
		}
		n := rowMemBytes(rec.row) + setEntryBytes
		charged += n
		db.chargeMem(n)
		keep[rec.idx] = true
	}
	return nil
}

// ---- Grace hash join ----

// graceJoin is the out-of-core SEARCH equi-join: build rows spill to
// hash partitions, probe rows stay in memory and ride the walk by the
// same key hash, and each leaf partition builds its (bounded) joinIndex
// and probes the probe rows that reached it, in original order. Like the
// in-memory producers it only enumerates pairs: k judges each one and
// emits the stage's output row for the survivors, partition by partition.
// Beside each emitted row one word records its probe row; all of a probe
// row's matches lie in its one partition, so a stable counting sort by
// probe row places every row where the in-memory probe-order output has
// it, and k hands them over straight into those places.
func (db *DB) graceJoin(probe, build [][]value.Value, leftKeys, rightKeys []int, k *searchKernel) ([][]value.Value, error) {
	ride := make([]int, len(probe))
	rideHash := make([]uint64, len(probe))
	for i, prow := range probe {
		if err := db.tickRow(); err != nil {
			return nil, err
		}
		ride[i], rideHash[i] = i, hashKeyFn(prow, leftKeys)
	}
	ps := &partSet{db: db}
	defer ps.close()
	for i, brow := range build {
		if err := ps.route(hashKeyFn(brow, rightKeys), uint64(i), brow); err != nil {
			return nil, err
		}
	}
	surv := make([]int32, 0, len(probe)) // per emitted row, its probe row
	if err := db.graceWalk(ps, ride, rideHash, func(recs []spillRecord, idxs []int) error {
		return db.joinPart(recs, idxs, probe, leftKeys, rightKeys, k, &surv)
	}); err != nil {
		return nil, err
	}
	if k.err != nil {
		return nil, k.err
	}
	// A counting sort by probe row: at[i] is where probe row i's matches go,
	// and each word becomes its row's place in the output.
	at := make([]int32, len(probe)+1)
	for _, p := range surv {
		at[p+1]++
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	for j, p := range surv {
		surv[j] = at[p]
		at[p]++
	}
	return k.rows(surv), nil
}

// joinPart, grace join's leaf, indexes one loaded build partition and
// probes it with the probe rows idxs — through the in-memory join's own
// probe loop, so JoinPairs and ticks account per probe row exactly as
// there — noting in surv the probe row of each row k emits.
func (db *DB) joinPart(recs []spillRecord, idxs []int, probe [][]value.Value, leftKeys, rightKeys []int, k *searchKernel, surv *[]int32) error {
	charged := int64(0)
	for _, rec := range recs {
		charged += rowMemBytes(rec.row) + setEntryBytes
	}
	db.chargeMem(charged)
	defer db.releaseMem(charged)
	ix := indexRecords(recs, rightKeys)
	var i int // the probe row the loop below is on; emit is built once
	emit := func(_, c int) {
		n := k.n
		if k.pair(probe[i], ix.rows[c]); k.n > n {
			*surv = append(*surv, int32(i))
		}
	}
	for _, i = range idxs {
		if err := db.probeEach(ix, probe[i:i+1], leftKeys, emit); err != nil {
			return err
		}
	}
	return nil
}

// ---- Spilled membership sets ----

// spillSet is the out-of-core online membership set: row payloads live
// in a spill stream of the set's own file, memory holds only
// hash→(offset,length) buckets into it, and the collision-checked
// equality fallback re-reads candidate rows — from disk, or from the
// stream's block while they are not yet written. Membership semantics are
// exactly rowSet's, so first-seen behavior — and with it every downstream
// row — is untouched by the migration.
type spillSet struct {
	db      *DB
	f       spillStream // the stored payloads, in insertion order
	size    int64       // bytes stored: where the next payload starts
	buckets map[uint64][]spillRef
	mem     int64 // charged bookkeeping bytes
	scratch []byte
}

type spillRef struct {
	off int64
	n   int32
}

// find reports whether a stored row under hash h equals row, reading each
// candidate back (one SpillStats.Reads apiece).
func (s *spillSet) find(h uint64, row []value.Value) (bool, error) {
	for _, ref := range s.buckets[h] {
		if cap(s.scratch) < int(ref.n) {
			s.scratch = make([]byte, ref.n)
		}
		buf := s.scratch[:ref.n]
		if _, err := s.f.ReadAt(buf, ref.off); err != nil {
			return false, err
		}
		s.db.Spill.Reads++
		stored, err := decodeRow(buf)
		if err != nil {
			return false, err
		}
		if rowKeyEq(stored, row) {
			return true, nil
		}
	}
	return false, nil
}

// insert appends row under hash h without a membership check.
func (s *spillSet) insert(h uint64, row []value.Value) error {
	payload := appendRow(s.scratch[:0], row)
	s.scratch = payload[:0]
	if err := s.f.append(payload); err != nil {
		return err
	}
	s.buckets[h] = append(s.buckets[h], spillRef{off: s.size, n: int32(len(payload))})
	s.size += int64(len(payload))
	s.db.chargeMem(setEntryBytes)
	s.mem += setEntryBytes
	return nil
}

// add inserts row and reports whether it was newly added.
func (s *spillSet) add(row []value.Value) (bool, error) {
	h := hashRowFn(row)
	if found, err := s.find(h, row); found || err != nil {
		return false, err
	}
	return true, s.insert(h, row)
}

// has reports membership without inserting.
func (s *spillSet) has(row []value.Value) (bool, error) {
	return s.find(hashRowFn(row), row)
}

// close releases the set's file and charged bookkeeping.
func (s *spillSet) close() {
	s.f.file.close()
	s.db.releaseMem(s.mem)
	s.mem = 0
}

// memSet is the budgeted online membership set of the batched engine:
// an ordinary hashed rowSet while under the grant — grown lazily from its
// small first table, so an empty set costs nothing — migrating its row
// storage to a spillSet the moment the tracked estimate crosses it.
// Used for fixpoint seen-sets and INTERN/DIFF membership — the sites
// where membership answers are consumed mid-stream and a partition pass
// is impossible.
type memSet struct {
	db    *DB
	label string
	grant int64
	set   rowSet
	bytes int64
	sp    *spillSet
}

func (db *DB) newMemSet(label string) *memSet {
	return &memSet{db: db, label: label, grant: db.memGrant()}
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

// migrate moves the set's row storage to a spillSet, walking the row store
// in insertion order: the spill file's bytes and every spillRef are a
// function of the rows added, the same on every run. (Answers need only
// the order of candidates under one hash, which this keeps too.)
func (m *memSet) migrate() error {
	if !m.db.spillOK() {
		return m.db.errMemBudget(m.label, m.bytes)
	}
	f, err := m.db.newSpillFile()
	if err != nil {
		return err
	}
	m.db.noteSpill(1, 0)
	sp := &spillSet{db: m.db, f: spillStream{file: f}, buckets: map[uint64][]spillRef{}}
	for o, row := range m.set.rows {
		if err := m.db.tickRow(); err != nil {
			sp.close()
			return err
		}
		if err := sp.insert(m.set.hashes[o], row); err != nil {
			sp.close()
			return err
		}
	}
	m.db.releaseMem(m.bytes)
	m.bytes = 0
	m.set = rowSet{}
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
