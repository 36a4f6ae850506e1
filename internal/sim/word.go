package sim

import (
	"thinunison/internal/sa"
)

// This file is the word-parallel execution mode (Options.WordParallel): when
// the algorithm's state space fits in a machine word (sa.WordKernel), the
// engine swaps the scalar per-node signal construction and transition
// decoding for batch word kernels — per-node one-word self-signals kept
// current across every state write, neighborhood signals built by a CSR
// OR-scan (sa.BuildSignals), and δ evaluated 64-bits-at-a-time from
// precompiled masks (sa.WordEval). Word mode is a branch of the stage phase
// of the engine's single step pipeline; select and apply are shared with the
// scalar path (apply additionally keeps the self-words current), so word
// runs are byte-identical to scalar runs in every mode (dense/frontier, any
// Parallelism, churn), which the differential suites enforce.
//
// The kernel's fused goodness plane (WordEval.EvalGood) additionally powers
// an O(n/64) per-step stabilization verdict: when a step provably refreshed
// the goodness bit of every node whose signal may have drifted — a full
// dense activation, or a frontier step that evaluated the entire frontier —
// and the plane reads all-ones, the configuration at the start of the step
// was graph-good. Since an all-good configuration stays good under any set
// of fired transitions (AF needs an unprotected or inward-faulty sense, FA
// needs a faulty node, and AA's Λ ⊆ {ℓ, φℓ} guard preserves pairwise
// adjacency), the verdict extends to the post-step configuration and is
// handed to the observer via WordVerdictObserver.NoteWordStep, letting
// core.GoodMonitor answer Good() from a cached bit instead of a scan.

// WordVerdictObserver is an optional ConfigObserver extension consuming the
// word engine's per-step goodness verdict. After every word-parallel step the
// engine calls NoteWordStep(certified): certified == true asserts that every
// node satisfies the algorithm's local legitimacy predicate in the post-step
// configuration (derived from the kernel's goodness plane plus the
// transition-closure argument above); false makes no claim either way.
// Any Apply delivered after a NoteWordStep supersedes its verdict.
type WordVerdictObserver interface {
	ConfigObserver
	NoteWordStep(certified bool)
}

// WordBatchObserver is an optional WordVerdictObserver extension taking a
// certified step's changes as one batch. When the pre-apply configuration
// was certified graph-good (and hence, by closure, the post-step one is
// too), a sequential word engine skips the per-node Apply stream — whose
// O(deg) bookkeeping dominates steady steps where every clock ticks — and
// delivers the changed nodes plus the post-step configuration in a single
// call, followed by the usual NoteWordStep(true). The observer must absorb
// the batch equivalently to the per-node stream (core.GoodMonitor refreshes
// its mirror and transition counters and lets its goodness counters go
// stale until the next scalar touch). Uncertified steps always use the
// per-node stream.
type WordBatchObserver interface {
	WordVerdictObserver
	ApplyWordBatch(changed []int, cfg sa.Config)
}

// wordRuntime holds the word-parallel execution state of an engine. The
// scalar configuration e.cfg stays authoritative; the runtime mirrors it as
// per-node self-words (self[v] = 1 << cfg[v], the one-word signal
// contribution of v) maintained on every state write, plus the per-shard
// goodness-plane slabs and the batch scratch. All buffers are sized once at
// construction, so word steps allocate nothing.
type wordRuntime struct {
	kern sa.WordEval

	// Raw CSR adjacency, re-fetched after every churn re-compaction (the
	// graph may replace the backing arrays).
	offsets   []int
	neighbors []int

	self []uint64   // self[v] = 1 << cfg[v]
	sws  []uint64   // sense-word scratch, node-indexed like the staging scratch
	cur  []sa.State // gathered current states of a sparse batch, node-indexed likewise

	// good holds each slab's batch goodness scratch for sparse batches:
	// stage s gathers into good[s], so parallel workers never share it.
	good [][]uint64

	// slabs is the goodness bit-plane: slab s covers the nodes of shard s
	// (bit i ↔ node lo+i), a single slab covers the whole graph in classic
	// mode. Each slab is its own allocation so parallel workers never
	// read-modify-write a shared word (shard bounds are not 64-aligned).
	// Invariant: a node's bit reports the good-node predicate as of its most
	// recent kernel evaluation; tail bits beyond the covered range are 1.
	slabs [][]uint64

	// certified is the completed step's verdict (see WordVerdictObserver).
	certified bool

	// chg is the changed-node buffer of the batched apply path.
	chg []int
}

// newWordRuntime builds the word runtime for an engine whose algorithm
// offered a kernel. The self-words are materialized through the bit-plane
// codec: pack the scalar configuration into sa.Planes, derive the one-hot
// self-words, and maintain them incrementally from there.
func newWordRuntime(e *Engine, kern sa.WordEval) *wordRuntime {
	n := e.g.N()
	lanes := 1
	if e.par != nil {
		lanes = e.par.part.P()
	}
	wr := &wordRuntime{
		kern: kern,
		self: make([]uint64, n),
		sws:  make([]uint64, n),
		cur:  make([]sa.State, n),
		good: make([][]uint64, lanes),
		chg:  make([]int, 0, n),
	}
	for s := range wr.good {
		wr.good[s] = make([]uint64, sa.PlaneWords(n))
	}
	wr.offsets, wr.neighbors = e.g.CSR()
	planes := sa.NewPlanes(n, e.alg.NumStates())
	planes.Pack(e.cfg)
	planes.SelfWords(wr.self)
	wr.rebuildSlabs(e)
	return wr
}

// rebuildSlabs (re)carves the goodness-plane slabs for the engine's current
// partition — one slab per shard, or a single whole-graph slab in classic
// mode — and refreshes every bit from the current configuration. Called at
// construction and after a churn-triggered repartition (the shard bounds
// move, so the old slab layout is meaningless).
func (wr *wordRuntime) rebuildSlabs(e *Engine) {
	n := e.g.N()
	if pr := e.par; pr != nil {
		wr.slabs = pr.part.PlaneSlabs()
		for s := range wr.slabs {
			lo, hi := pr.part.Range(s)
			wr.refreshSlab(e, s, lo, hi)
		}
		return
	}
	wr.slabs = [][]uint64{make([]uint64, sa.PlaneWords(n))}
	wr.refreshSlab(e, 0, 0, n)
}

// refreshSlab recomputes slab s — covering nodes [lo, hi) — from the current
// configuration. It runs between steps, so the transition outputs land in
// the engine's staging scratch and are discarded; only the goodness bits
// (and their forced-1 tail) are kept.
func (wr *wordRuntime) refreshSlab(e *Engine, s, lo, hi int) {
	if lo == hi {
		if len(wr.slabs[s]) > 0 {
			wr.slabs[s][0] = ^uint64(0)
		}
		return
	}
	wr.evalRange(e, s, lo, hi, e.scratch[lo:hi])
}

// evalRange evaluates every node of [lo, hi) into res and rewrites slab s
// in place: one BuildSignals + EvalGood pass, O(edges of the range).
func (wr *wordRuntime) evalRange(e *Engine, s, lo, hi int, res []sa.State) {
	sa.BuildSignals(wr.self, wr.offsets, wr.neighbors, lo, hi, wr.sws[lo:hi])
	wr.kern.EvalGood(e.cfg[lo:hi], wr.sws[lo:hi], res, wr.slabs[s])
}

// refreshCSR re-fetches the graph's CSR arrays; call after any topology
// mutation (churn ApplyDelta re-compacts them in place and may replace the
// backing storage).
func (wr *wordRuntime) refreshCSR(e *Engine) {
	wr.offsets, wr.neighbors = e.g.CSR()
}

// slabsAllOnes reports whether the whole goodness plane reads good: every
// word is all-ones (slab tails are forced 1).
func (wr *wordRuntime) slabsAllOnes() bool {
	for _, slab := range wr.slabs {
		for _, w := range slab {
			if w != ^uint64(0) {
				return false
			}
		}
	}
	return true
}

// eval is the word branch of the stage phase: it evaluates list — ascending
// nodes inside [lo, hi) — on the kernel into res, refreshes their bits in
// goodness slab s, and returns their current states. A list covering the
// whole range builds its signals and writes the slab in place; a sparser
// list is gathered into a batch and its bits scattered back.
func (wr *wordRuntime) eval(e *Engine, list []int, s, lo, hi int, res []sa.State) []sa.State {
	k := len(list)
	if k == hi-lo {
		wr.evalRange(e, s, lo, hi, res)
		return e.cfg[lo:hi]
	}
	cur, sws := wr.cur[lo:lo+k], wr.sws[lo:lo+k]
	good := wr.good[s][:sa.PlaneWords(k)]
	wr.gather(e.cfg, list, cur, sws)
	wr.kern.EvalGood(cur, sws, res, good)
	scatterGood(wr.slabs[s], good, list, lo)
	return cur
}

// gather fills the batch inputs for a non-contiguous evaluation list: the
// current states and the one-word inclusive-neighborhood signals of each
// listed node.
func (wr *wordRuntime) gather(cfg sa.Config, list []int, cur []sa.State, sws []uint64) {
	for i, v := range list {
		cur[i] = cfg[v]
		sw := wr.self[v]
		for _, u := range wr.neighbors[wr.offsets[v]:wr.offsets[v+1]] {
			sw |= wr.self[u]
		}
		sws[i] = sw
	}
}

// scatterGood writes the batch goodness bits back to slab positions: bit i
// of good belongs to node list[i], which maps to slab bit list[i]−lo.
func scatterGood(slab []uint64, good []uint64, list []int, lo int) {
	for i, v := range list {
		b := v - lo
		if good[i>>6]&(1<<uint(i&63)) != 0 {
			slab[b>>6] |= 1 << uint(b&63)
		} else {
			slab[b>>6] &^= 1 << uint(b&63)
		}
	}
}
