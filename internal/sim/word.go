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
// precompiled masks (sa.WordEval). The step bodies mirror the scalar ones
// phase for phase — stage against the immutable C_t, then apply in canonical
// order feeding the observer — so word runs are byte-identical to scalar
// runs in every mode (dense/frontier, any Parallelism, churn), which the
// differential suites enforce.
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
	sws  []uint64   // sense-word scratch: node-indexed on contiguous batches
	next []sa.State // staged next states (classic mode; sharded uses pr.res)
	cur  []sa.State // gathered current states for non-contiguous batches
	gbuf []uint64   // batch goodness scratch for non-contiguous batches

	// slabs is the goodness bit-plane: slab s covers the nodes of shard s
	// (bit i ↔ node lo+i), a single slab covers the whole graph in classic
	// mode. Each slab is its own allocation so parallel workers never
	// read-modify-write a shared word (shard bounds are not 64-aligned).
	// Invariant: a node's bit reports the good-node predicate as of its most
	// recent kernel evaluation; tail bits beyond the covered range are 1.
	slabs [][]uint64

	// Per-shard gathered-batch scratch, grown lazily by the owning worker.
	curB [][]sa.State
	swsB [][]uint64
	gbB  [][]uint64

	// certified is the completed step's verdict (see WordVerdictObserver).
	certified bool

	// chg is the changed-node buffer of the batched apply path.
	chg []int

	// stage and applyInterior are the sharded word phase bodies, built once.
	stage         func(s int)
	applyInterior func(s int)
}

// newWordRuntime builds the word runtime for an engine whose algorithm
// offered a kernel. The self-words are materialized through the bit-plane
// codec: pack the scalar configuration into sa.Planes, derive the one-hot
// self-words, and maintain them incrementally from there.
func newWordRuntime(e *Engine, kern sa.WordEval) *wordRuntime {
	n := e.g.N()
	wr := &wordRuntime{
		kern: kern,
		self: make([]uint64, n),
		sws:  make([]uint64, n),
		next: make([]sa.State, n),
		cur:  make([]sa.State, n),
		gbuf: make([]uint64, sa.PlaneWords(n)),
		chg:  make([]int, 0, n),
	}
	wr.offsets, wr.neighbors = e.g.CSR()
	planes := sa.NewPlanes(n, e.alg.NumStates())
	planes.Pack(e.cfg)
	planes.SelfWords(wr.self)
	wr.rebuildSlabs(e)
	if pr := e.par; pr != nil {
		p := pr.part.P()
		wr.curB = make([][]sa.State, p)
		wr.swsB = make([][]uint64, p)
		wr.gbB = make([][]uint64, p)
		wr.stage = func(s int) { wr.stageShard(e, s) }
		wr.applyInterior = func(s int) { wr.applyInteriorShard(e, s) }
	}
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
// configuration: one BuildSignals + EvalGood pass, O(edges of the range).
// The transition outputs land in scratch and are discarded; only the
// goodness bits (and their forced-1 tail) are kept.
func (wr *wordRuntime) refreshSlab(e *Engine, s, lo, hi int) {
	if lo == hi {
		if len(wr.slabs[s]) > 0 {
			wr.slabs[s][0] = ^uint64(0)
		}
		return
	}
	sa.BuildSignals(wr.self, wr.offsets, wr.neighbors, lo, hi, wr.sws[lo:hi])
	wr.kern.EvalGood(e.cfg[lo:hi], wr.sws[lo:hi], wr.next[lo:hi], wr.slabs[s])
}

// refreshCSR re-fetches the graph's CSR arrays; call after any topology
// mutation (churn ApplyDelta re-compacts them in place and may replace the
// backing storage).
func (wr *wordRuntime) refreshCSR(e *Engine) {
	wr.offsets, wr.neighbors = e.g.CSR()
}

// noteWrite keeps the self-word mirror current for an out-of-step state
// write (SetState, InjectFaults). In-step applies update self inline.
func (wr *wordRuntime) noteWrite(v int, q sa.State) {
	wr.self[v] = 1 << uint(q)
}

// allOnes reports whether every word is all-ones (slab tails are forced 1,
// so this is the "every covered node good" test).
func allOnes(words []uint64) bool {
	for _, w := range words {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// slabsAllOnes reports whether the whole goodness plane reads good.
func (wr *wordRuntime) slabsAllOnes() bool {
	for _, slab := range wr.slabs {
		if !allOnes(slab) {
			return false
		}
	}
	return true
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

// stepSequentialWord is the classic word step body. A full activation runs
// the contiguous fast path — one CSR OR-scan plus one fused kernel pass over
// the whole graph, refreshing the entire goodness plane — and is the only
// dense step shape that can certify the plane (a partial step leaves
// unevaluated nodes' bits stale, so it makes no claim). The apply phase is
// the scalar loop plus the self-word update.
func (e *Engine) stepSequentialWord(activated []int) {
	wr := e.wr
	n := e.g.N()
	full := len(activated) == n
	var next []sa.State
	if full {
		next = wr.next[:n]
		sa.BuildSignals(wr.self, wr.offsets, wr.neighbors, 0, n, wr.sws[:n])
		wr.kern.EvalGood(e.cfg, wr.sws[:n], next, wr.slabs[0])
		wr.certified = allOnes(wr.slabs[0])
	} else {
		wr.certified = false
		k := len(activated)
		cur, sws := wr.cur[:k], wr.sws[:k]
		next = wr.next[:k]
		wr.gather(e.cfg, activated, cur, sws)
		wr.kern.Eval(cur, sws, next)
	}
	if wr.certified && e.wBatch != nil {
		chg := wr.chg[:0]
		for i, v := range activated {
			q := next[i]
			if q == e.cfg[v] {
				continue
			}
			e.cfg[v] = q
			wr.self[v] = 1 << uint(q)
			chg = append(chg, v)
		}
		wr.chg = chg
		e.stepChg += len(chg)
		e.wBatch.ApplyWordBatch(chg, e.cfg)
		return
	}
	for i, v := range activated {
		q := next[i]
		if q == e.cfg[v] {
			continue
		}
		e.cfg[v] = q
		wr.self[v] = 1 << uint(q)
		e.stepChg++
		if e.obs != nil {
			e.obs.Apply(v, q)
		}
	}
}

// stepSequentialFrontierWord is the classic frontier word step body: the
// evaluation set (A_t ∩ frontier) is gathered into a batch, the fused kernel
// yields next states, settled certificates (next == cur, the kernel's None
// verdict) and goodness bits in one pass, and the goodness bits are scattered
// into the persistent plane. Settled nodes' plane bits stay valid across
// steps — their signals are unchanged since their last evaluation by the
// frontier invariant — so the plane covers the whole graph and certifies
// whenever this step evaluated the entire frontier.
func (e *Engine) stepSequentialFrontierWord(eval []int, frBefore int) {
	wr, fr := e.wr, e.fr
	k := len(eval)
	cur, sws, next := wr.cur[:k], wr.sws[:k], wr.next[:k]
	good := wr.gbuf[:sa.PlaneWords(k)]
	wr.gather(e.cfg, eval, cur, sws)
	wr.kern.EvalGood(cur, sws, next, good)
	var settles uint64
	for i, v := range eval {
		if next[i] == cur[i] {
			// Clears happen strictly before the apply loop's invalidation
			// sets, so a neighbor changing in this same step re-dirties v.
			fr.set.Remove(v)
			settles++
		}
	}
	scatterGood(wr.slabs[0], good, eval, 0)
	e.tally.Settled += settles
	wr.certified = k == frBefore && allOnes(wr.slabs[0])
	if wr.certified && e.wBatch != nil {
		chg := wr.chg[:0]
		for i, v := range eval {
			q := next[i]
			if q == e.cfg[v] {
				continue
			}
			e.cfg[v] = q
			wr.self[v] = 1 << uint(q)
			fr.invalidate(e.g, v)
			chg = append(chg, v)
		}
		wr.chg = chg
		e.stepChg += len(chg)
		e.wBatch.ApplyWordBatch(chg, e.cfg)
		return
	}
	for i, v := range eval {
		q := next[i]
		if q == e.cfg[v] {
			continue
		}
		e.cfg[v] = q
		wr.self[v] = 1 << uint(q)
		e.stepChg++
		fr.invalidate(e.g, v)
		if e.obs != nil {
			e.obs.Apply(v, q)
		}
	}
}

// stageShard is the sharded word staging phase for shard s: evaluate the
// shard's activation bucket against the immutable C_t into pr.res[s]. A
// bucket equal to the shard's full contiguous range (every synchronous step)
// slices cfg and the node-indexed sense scratch directly and lets the fused
// kernel write the shard's goodness slab in place; sparser buckets gather
// into shard-local buffers and scatter the goodness bits back. Frontier
// engines settle-clear certified nodes on the way (own-shard bits only, so
// clears never race the later phases' sets).
func (wr *wordRuntime) stageShard(e *Engine, s int) {
	pr := e.par
	acts := pr.acts[s]
	res := pr.res[s]
	if cap(res) < len(acts) {
		res = make([]sa.State, len(acts))
	}
	res = res[:len(acts)]
	lo, hi := pr.part.Range(s)
	slab := wr.slabs[s]
	fr := e.fr
	var settles uint64
	if len(acts) == hi-lo {
		cur := e.cfg[lo:hi]
		sa.BuildSignals(wr.self, wr.offsets, wr.neighbors, lo, hi, wr.sws[lo:hi])
		wr.kern.EvalGood(cur, wr.sws[lo:hi], res, slab)
		if fr != nil {
			for i, q := range cur {
				if res[i] == q {
					fr.set.Remove(lo + i)
					settles++
				}
			}
		}
	} else {
		k := len(acts)
		if cap(wr.curB[s]) < k {
			wr.curB[s] = make([]sa.State, k)
			wr.swsB[s] = make([]uint64, k)
		}
		if cap(wr.gbB[s]) < sa.PlaneWords(k) {
			wr.gbB[s] = make([]uint64, sa.PlaneWords(k))
		}
		cur, sws := wr.curB[s][:k], wr.swsB[s][:k]
		good := wr.gbB[s][:sa.PlaneWords(k)]
		wr.gather(e.cfg, acts, cur, sws)
		wr.kern.EvalGood(cur, sws, res, good)
		if fr != nil {
			for i, v := range acts {
				if res[i] == cur[i] {
					fr.set.Remove(v)
					settles++
				}
			}
		}
		scatterGood(slab, good, acts, lo)
	}
	pr.res[s] = res
	pr.stl[s] = settles
}

// applyInteriorShard is the sharded word merge phase for shard s: the scalar
// applyInterior plus the self-word update. An interior node's whole
// neighborhood lives in its owner shard, so the writes never race.
func (wr *wordRuntime) applyInteriorShard(e *Engine, s int) {
	pr := e.par
	fr := e.fr
	var changes uint64
	for i, v := range pr.acts[s] {
		if !pr.part.Interior(v) {
			continue
		}
		if q := pr.res[s][i]; q != e.cfg[v] {
			e.cfg[v] = q
			wr.self[v] = 1 << uint(q)
			changes++
			if fr != nil {
				fr.invalidate(e.g, v)
			}
			if pr.shObs != nil {
				pr.shObs.Apply(v, q)
			}
		}
	}
	pr.chg[s] = changes
}

// stepShardedWord is the sharded word step body (dense and frontier alike;
// pass frBefore < 0 for dense). Bucketing, staging fan-out and the merge
// discipline — concurrent interior merge with a ShardedObserver, canonical
// sequential merge otherwise, boundary updates through the coordinator —
// mirror stepSharded/stepShardedFrontier exactly, so sharded word runs stay
// byte-identical to every other mode at any worker count.
func (e *Engine) stepShardedWord(list []int, frBefore int) {
	pr := e.par
	wr := e.wr
	fr := e.fr
	p := pr.part.P()

	if len(list) == e.g.N() {
		for s := 0; s < p; s++ {
			lo, hi := pr.part.Range(s)
			pr.acts[s] = list[lo:hi]
		}
	} else {
		for s := 0; s < p; s++ {
			pr.actBufs[s] = pr.actBufs[s][:0]
		}
		for _, v := range list {
			s := pr.part.ShardOf(v)
			pr.actBufs[s] = append(pr.actBufs[s], v)
		}
		copy(pr.acts, pr.actBufs)
	}

	pr.pool.Run(wr.stage)
	if fr != nil {
		e.sumSettles()
		wr.certified = len(list) == frBefore && wr.slabsAllOnes()
	} else {
		wr.certified = len(list) == e.g.N() && wr.slabsAllOnes()
	}

	if e.obs != nil && pr.shObs == nil {
		// Order-sensitive observer: sequential canonical merge (shards
		// ascend and buckets ascend within shards).
		for s := 0; s < p; s++ {
			for i, v := range pr.acts[s] {
				if q := pr.res[s][i]; q != e.cfg[v] {
					e.cfg[v] = q
					wr.self[v] = 1 << uint(q)
					e.stepChg++
					if fr != nil {
						fr.invalidate(e.g, v)
					}
					e.obs.Apply(v, q)
				}
			}
		}
		return
	}

	pr.pool.Run(wr.applyInterior)
	e.sumInteriorChanges()
	var boundary uint64
	for s := 0; s < p; s++ {
		for i, v := range pr.acts[s] {
			if pr.part.Interior(v) {
				continue
			}
			if q := pr.res[s][i]; q != e.cfg[v] {
				e.cfg[v] = q
				wr.self[v] = 1 << uint(q)
				e.stepChg++
				boundary++
				if fr != nil {
					fr.invalidate(e.g, v)
				}
				if e.obs != nil {
					e.obs.Apply(v, q)
				}
			}
		}
	}
	e.tally.BoundaryApplies += boundary
}
