package engine

// Per-operator execution statistics — the engine's first in-band account
// of where execution work goes, operator by operator, rather than the
// single flat Counters total. Collection is opt-in (DB.CollectStats); the
// disabled path is one nil check per operator evaluation and allocates
// nothing, so production queries that don't ask for EXPLAIN ANALYZE pay
// nothing.

import (
	"fmt"
	"strings"
	"time"
)

// MaxOpChildren bounds the fanout of one OpStats node: a fixpoint body
// re-evaluated for hundreds of rounds must not grow the stats tree
// without bound. Dropped children still contribute to the parent's
// inclusive counters; Truncated counts them.
const MaxOpChildren = 64

// FixRound records one fixpoint iteration: how many new rows the round
// contributed and the accumulated total afterwards.
type FixRound struct {
	Round int `json:"round"`
	Delta int `json:"delta"`
	Total int `json:"total"`
}

// OpStats is one node of the per-operator execution statistics tree.
// Counter fields (Scanned, JoinPairs, Emitted, PredEvals, FixIterations
// via Incl) are inclusive of the subtree; Self* accessors subtract the
// retained children.
type OpStats struct {
	Op     string `json:"op"`               // operator functor: SEARCH, JOIN, FIX, REL, ...
	Detail string `json:"detail,omitempty"` // relation name, fixpoint name and mode, ...
	Rows   int    `json:"rows"`             // rows produced by this operator
	Width  int    `json:"width,omitempty"`  // arity of the output relation (declared even when empty)
	// Incl aggregates the work counters over this operator's subtree.
	Incl Counters `json:"counters"`
	// Rounds holds per-iteration deltas for FIX nodes (both naive and
	// semi-naive evaluation record them).
	Rounds []FixRound `json:"rounds,omitempty"`
	// SpillPartitions/SpillBytes record out-of-core activity of this
	// operator (spill.go). Like Duration they are rendered only with
	// timings — the deterministic Format(false) output must stay
	// bit-identical between spilled and in-memory runs.
	SpillPartitions int64 `json:"spillPartitions,omitempty"`
	SpillBytes      int64 `json:"spillBytes,omitempty"`
	// Index names the sorted column index (relation.column) stage 1 of a
	// SEARCH read through (indexscan.go); rendered only with timings, as
	// the index and the scan are otherwise indistinguishable.
	Index string `json:"index,omitempty"`
	// Distinct names the column (relation.column) whose distinct cells let
	// a SEARCH skip its duplicate elimination (batchsearch.go); rendered
	// only with timings, like Index.
	Distinct  string        `json:"distinct,omitempty"`
	Duration  time.Duration `json:"durationNs"`
	Children  []*OpStats    `json:"children,omitempty"`
	Truncated int           `json:"truncatedChildren,omitempty"`
}

// Self returns the node's own work: the inclusive counters minus the
// retained children's inclusive counters. When children were truncated
// their work stays attributed here — the totals remain exact, only the
// attribution coarsens.
func (o *OpStats) Self() Counters {
	c := o.Incl
	for _, ch := range o.Children {
		c.Scanned -= ch.Incl.Scanned
		c.JoinPairs -= ch.Incl.JoinPairs
		c.Emitted -= ch.Incl.Emitted
		c.PredEvals -= ch.Incl.PredEvals
		c.FixIterations -= ch.Incl.FixIterations
	}
	return c
}

// Format renders the stats tree as an indented outline. With withTimings
// false the output is deterministic for a fixed database and plan, which
// is what the trace-determinism regression pins.
func (o *OpStats) Format(withTimings bool) string {
	var sb strings.Builder
	o.format(&sb, 0, withTimings)
	return sb.String()
}

func (o *OpStats) format(sb *strings.Builder, depth int, withTimings bool) {
	indent := strings.Repeat("  ", depth)
	sb.WriteString(indent)
	sb.WriteString(o.Op)
	if o.Detail != "" {
		sb.WriteByte(' ')
		sb.WriteString(o.Detail)
	}
	self := o.Self()
	fmt.Fprintf(sb, " rows=%d", o.Rows)
	// Width is printed only for empty outputs: with rows present the arity
	// is evident, and this keeps previously pinned renderings unchanged
	// while surfacing the formerly under-reported empty-result arity.
	if o.Rows == 0 && o.Width > 0 {
		fmt.Fprintf(sb, " width=%d", o.Width)
	}
	if self.Scanned > 0 {
		fmt.Fprintf(sb, " scanned=%d", self.Scanned)
	}
	if self.JoinPairs > 0 {
		fmt.Fprintf(sb, " pairs=%d", self.JoinPairs)
	}
	if self.PredEvals > 0 {
		fmt.Fprintf(sb, " evals=%d", self.PredEvals)
	}
	if len(o.Rounds) > 0 {
		fmt.Fprintf(sb, " rounds=%d", len(o.Rounds))
	}
	if withTimings {
		if o.SpillPartitions > 0 || o.SpillBytes > 0 {
			fmt.Fprintf(sb, " spill=%dp/%dB", o.SpillPartitions, o.SpillBytes)
		}
		if o.Index != "" {
			fmt.Fprintf(sb, " index=%s", o.Index)
		}
		if o.Distinct != "" {
			fmt.Fprintf(sb, " distinct=%s", o.Distinct)
		}
		fmt.Fprintf(sb, " (%s)", o.Duration.Round(time.Microsecond))
	}
	sb.WriteByte('\n')
	for _, r := range o.Rounds {
		fmt.Fprintf(sb, "%s  · round %d: +%d rows (total %d)\n", indent, r.Round, r.Delta, r.Total)
	}
	for _, c := range o.Children {
		c.format(sb, depth+1, withTimings)
	}
	if o.Truncated > 0 {
		fmt.Fprintf(sb, "%s  (%d more operator evaluations truncated)\n", indent, o.Truncated)
	}
}

// LastExecStats returns the per-operator statistics tree of the most
// recent EvalCtx run with CollectStats enabled (nil otherwise). The root
// is a synthetic "eval" node whose single child is the query's top
// operator.
func (db *DB) LastExecStats() *OpStats { return db.lastStats }

// statsEnter opens a stats node for the operator t and returns the
// parent frame to restore. Called only when collection is on.
func (db *DB) statsEnter(op string) (node, parent *OpStats) {
	g := db.g
	parent = g.cur
	node = &OpStats{Op: op, Incl: db.Count}
	if len(parent.Children) >= MaxOpChildren {
		parent.Truncated++
		node.Children = nil
		// The node is still tracked (so counters and rounds attribute
		// correctly) but not retained in the tree.
	} else {
		parent.Children = append(parent.Children, node)
	}
	g.cur = node
	return node, parent
}

// statsExit closes a stats node: converts the entry counter snapshot into
// an inclusive delta, records output size and duration, and restores the
// parent frame.
func (db *DB) statsExit(node, parent *OpStats, start time.Time, out *Relation) {
	snap := node.Incl
	node.Incl = db.Count
	node.Incl.Scanned -= snap.Scanned
	node.Incl.JoinPairs -= snap.JoinPairs
	node.Incl.Emitted -= snap.Emitted
	node.Incl.PredEvals -= snap.PredEvals
	node.Incl.FixIterations -= snap.FixIterations
	if out != nil {
		node.Rows = len(out.Rows)
		node.Width = out.Arity()
	}
	node.Duration = time.Since(start)
	db.g.cur = parent
}

// recordFixRound appends one fixpoint-iteration record to the current
// stats node (a no-op unless collection is on and a FIX node is open).
func (db *DB) recordFixRound(round, delta, total int) {
	g := db.g
	if g == nil || g.cur == nil || g.cur.Op != "FIX" {
		return
	}
	g.cur.Rounds = append(g.cur.Rounds, FixRound{Round: round, Delta: delta, Total: total})
}

// setStatsDetail annotates the current stats node (no-op when collection
// is off).
func (db *DB) setStatsDetail(detail string) {
	g := db.g
	if g == nil || g.cur == nil {
		return
	}
	g.cur.Detail = detail
}
