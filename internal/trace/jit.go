package trace

import "slices"

// This file is the trace side of the trace-JIT layer (internal/jit): a
// super-op must replay the exact counter increments the recorded trap
// sequence would have produced, so the collector exposes a snapshot
// (CounterMark), a pure-addition diff (CounterDelta), and a replay
// application. The diff is computed only while promoting a recording — the
// replay hit path applies a precomputed delta and allocates nothing.

// JITStats counts super-op dispatch outcomes. Exactly one of Hits, Misses,
// or Bailouts increments per dispatched trap: Hits (a super-op replayed),
// Misses (no super-op for the trap cause yet), or Bailouts (a super-op
// existed but its guard did not match and the trap ran interpreted).
// Evictions counts chain variants dropped because a later parameterized
// variant covers their states; it is not per-dispatch.
type JITStats struct {
	Hits      uint64
	Misses    uint64
	Bailouts  uint64
	Evictions uint64
}

// Add returns the field-wise sum (for aggregating per-cell stats).
func (s JITStats) Add(o JITStats) JITStats {
	return JITStats{s.Hits + o.Hits, s.Misses + o.Misses, s.Bailouts + o.Bailouts, s.Evictions + o.Evictions}
}

// Sub returns the field-wise difference (for per-cell deltas on a reused
// engine).
func (s JITStats) Sub(o JITStats) JITStats {
	return JITStats{s.Hits - o.Hits, s.Misses - o.Misses, s.Bailouts - o.Bailouts, s.Evictions - o.Evictions}
}

// BeginCounterLog arms the touched-location log: until the matching
// EndCounterLog (or AbortCounterLog), Trap appends the location of every
// counter it increments. The recording's delta is then the multiset of
// logged locations — every Trap increment is exactly +1 — so the cost is
// proportional to the increments the recording made, not to the size of
// the counter tables. The log's backing storage is reused across
// recordings.
func (c *Collector) BeginCounterLog() {
	c.tReasons = c.tReasons[:0]
	c.tDense = c.tDense[:0]
	c.tSparse = c.tSparse[:0]
	c.logGen = c.gen
	c.logging = true
}

// AbortCounterLog disarms the log without producing a delta.
func (c *Collector) AbortCounterLog() { c.logging = false }

type denseEntry struct {
	idx int32
	n   uint64
}

type sparseEntry struct {
	k addrKey
	n uint64
}

// CounterDelta is the aggregate counter increment between a mark and a later
// collector state, expressible purely as additions. Applying it commutes, so
// the order entries were discovered in does not affect the final counters.
type CounterDelta struct {
	byReason [numReasons]uint64
	dense    []denseEntry
	sparse   []sparseEntry
}

// Empty reports whether the delta changes nothing.
func (d *CounterDelta) Empty() bool {
	if len(d.dense) != 0 || len(d.sparse) != 0 {
		return false
	}
	for _, n := range d.byReason {
		if n != 0 {
			return false
		}
	}
	return true
}

// EndCounterLog disarms the log and aggregates it into d. It returns
// false — the recording is not promotable — when the log is not a faithful
// account of the counter mutations since BeginCounterLog: event recording
// or the recent ring is active (replay cannot reproduce retained Event
// values), or a Reset or checkpoint Restore rewrote the counters behind
// the log's back (the generation moved).
func (c *Collector) EndCounterLog(d *CounterDelta) bool {
	c.logging = false
	if c.record || c.recent != nil || c.gen != c.logGen {
		return false
	}
	d.byReason = [numReasons]uint64{}
	for _, r := range c.tReasons {
		d.byReason[r]++
	}
	// The touched lists are tiny (one entry per trap in one recorded
	// sequence), so duplicate aggregation is a linear scan.
	d.dense = d.dense[:0]
	for _, idx := range c.tDense {
		merged := false
		for i := range d.dense {
			if d.dense[i].idx == idx {
				d.dense[i].n++
				merged = true
				break
			}
		}
		if !merged {
			d.dense = append(d.dense, denseEntry{idx: idx, n: 1})
		}
	}
	d.sparse = d.sparse[:0]
	for _, k := range c.tSparse {
		merged := false
		for i := range d.sparse {
			if d.sparse[i].k == k {
				d.sparse[i].n++
				merged = true
				break
			}
		}
		if !merged {
			d.sparse = append(d.sparse, sparseEntry{k: k, n: 1})
		}
	}
	return true
}

// Clone returns a copy of d that shares no storage with it, its lists
// sized to their contents: the JIT aggregates each recording into one
// reused scratch delta and keeps a clone only when it promotes.
func (d *CounterDelta) Clone() *CounterDelta {
	return &CounterDelta{byReason: d.byReason, dense: slices.Clone(d.dense), sparse: slices.Clone(d.sparse)}
}

// Equal reports whether two deltas describe the same counter increments in
// the same discovery order. The JIT's chain eviction uses it to decide that
// one super-op variant's counting effect matches another's; a false
// negative (same multiset, different order) only keeps a variant alive.
func (d *CounterDelta) Equal(o *CounterDelta) bool {
	if d.byReason != o.byReason || len(d.dense) != len(o.dense) || len(d.sparse) != len(o.sparse) {
		return false
	}
	for i := range d.dense {
		if d.dense[i] != o.dense[i] {
			return false
		}
	}
	for i := range d.sparse {
		if d.sparse[i] != o.sparse[i] {
			return false
		}
	}
	return true
}

// ApplyCounterDelta replays the delta onto the collector: the counting
// effect of the recorded trap sequence in one step.
func (c *Collector) ApplyCounterDelta(d *CounterDelta) {
	for i, n := range d.byReason {
		if n != 0 {
			c.byReason[i] += n
		}
	}
	for _, e := range d.dense {
		c.dense[e.idx] += e.n
	}
	for _, e := range d.sparse {
		c.sparse[e.k] += e.n
	}
}

// JITMode packs the collector configuration bits that change what Trap()
// does — and therefore what a super-op's counter delta must reproduce —
// into one word the JIT pins as its generation (jit.Hooks.Gen).
func (c *Collector) JITMode() uint64 {
	if c == nil {
		return 0
	}
	m := uint64(1)
	if c.enabled {
		m |= 2
	}
	if c.record {
		m |= 4
	}
	if c.recent != nil {
		m |= 8
	}
	return m
}
