package core

import (
	"fmt"
	"sync/atomic"

	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sa"
	"thinunison/internal/snapshot"
)

// Monitor checks, online, the run-time guarantees of AlgAU: the monotone
// invariants of Sec. 2.3.1 (out-protected nodes stay out-protected; a good
// graph stays good) and — once the graph has become good — the AU task's
// safety and liveness conditions. Attach it to a sim.Engine as a hook via
// its Check method. It deliberately re-verifies the whole graph every step
// (that is what makes it a verification oracle); production runs that only
// need the stabilization verdict use the incremental GoodMonitor below.
type Monitor struct {
	au *AU
	g  *graph.Graph

	prev         sa.Config
	prevOutProt  []bool
	goodSince    int // step at which the graph first became good; -1 before
	clockUpdates []int
	step         int
}

// NewMonitor returns a fresh monitor for au on g.
func NewMonitor(au *AU, g *graph.Graph) *Monitor {
	return &Monitor{
		au:           au,
		g:            g,
		goodSince:    -1,
		clockUpdates: make([]int, g.N()),
	}
}

// GoodSince returns the step index at which the graph first became good, or
// -1 if it has not yet.
func (m *Monitor) GoodSince() int { return m.goodSince }

// ClockUpdates returns, for each node, the number of clock advances (AA
// transitions) observed since the graph became good.
func (m *Monitor) ClockUpdates() []int {
	out := make([]int, len(m.clockUpdates))
	copy(out, m.clockUpdates)
	return out
}

// Check inspects the configuration after one engine step. It must be called
// once per step with the post-step configuration.
func (m *Monitor) Check(cfg sa.Config) error {
	defer func() { m.step++ }()

	outProt := make([]bool, m.g.N())
	for v := range outProt {
		outProt[v] = m.au.NodeOutProtected(m.g, cfg, v)
	}

	if m.prev != nil {
		// Obs. 2.3: out-protected nodes remain out-protected.
		for v := range m.prevOutProt {
			if m.prevOutProt[v] && !outProt[v] {
				return fmt.Errorf("core: Obs 2.3 violated at step %d: node %d lost out-protection", m.step, v)
			}
		}
		// Obs. 2.4: a node that changed its level must now be out-protected.
		for v := range cfg {
			if m.au.LevelOf(cfg, v) != m.au.LevelOf(m.prev, v) && !outProt[v] {
				return fmt.Errorf("core: Obs 2.4 violated at step %d: node %d changed level while not out-protected", m.step, v)
			}
		}

		if m.goodSince >= 0 {
			// Lem. 2.10: good graphs stay good; safety must hold.
			if !m.au.GraphGood(m.g, cfg) {
				return fmt.Errorf("core: Lem 2.10 violated at step %d: graph stopped being good", m.step)
			}
			if !m.au.SafetyHolds(m.g, cfg) {
				return fmt.Errorf("core: AU safety violated at step %d", m.step)
			}
			// Post-stabilization clock updates are exactly +1 (AA) steps.
			for v := range cfg {
				was, now := m.au.Turn(m.prev[v]), m.au.Turn(cfg[v])
				if was == now {
					continue
				}
				if was.Faulty || now.Faulty {
					return fmt.Errorf("core: faulty turn after good at step %d, node %d", m.step, v)
				}
				if m.au.Levels().Phi(was.Level) != now.Level {
					return fmt.Errorf("core: node %d moved %v -> %v, not a +1 clock update", v, was, now)
				}
				m.clockUpdates[v]++
			}
		}
	}

	if m.goodSince < 0 && m.au.GraphGood(m.g, cfg) {
		m.goodSince = m.step
	}
	m.prev = cfg.Clone()
	m.prevOutProt = outProt
	return nil
}

// Cached verdicts of a GoodMonitor (its verdict field).
const (
	verdictUnknown uint32 = iota // nothing known: Good() polls
	verdictGood                  // a word-parallel engine certified the configuration good
	verdictBad                   // the last poll answered false and nothing changed since
)

// maxWitnesses bounds the bad-node witness cache of a deferred GoodMonitor:
// each deferred Good() check first re-tests the cached witnesses in O(Δ)
// before falling back to a scan, and each scan refills the cache with the
// first maxWitnesses bad nodes it passes, so near-quiescent churn phases
// rarely rescan.
const maxWitnesses = 8

// GoodMonitor tracks the AlgAU stabilization predicate GraphGood, adapting
// its strategy to the regime:
//
//   - During churn (from construction until the graph first turns good) it
//     runs *deferred*: Apply is a single raw-state store (no decode, no
//     neighbor walk), and Good() answers by checking a small cache of
//     known-bad witnesses in O(Δ) — falling back to an early-exit scan only
//     when every witness has healed. While the graph is bad this is as
//     cheap as the full-scan predicate's short circuit, without the
//     counter-maintenance overhead that used to make the incremental
//     monitor a net loss on stabilization sweeps (0.77–0.92x vs full scan).
//   - On the first good verdict it *promotes* to incremental: per-node
//     violation counters — unprotected incident edges and faulty neighbors —
//     plus a not-good node count, maintained in O(deg v) per change, make
//     every further check O(1) (O(P) sharded). The promotion recount itself
//     is lazy — it runs on the Good() call after the one that turned good,
//     so a run that stops at stabilization never pays it. Fault bursts into
//     a stabilized run are exactly the regime where the counters win by
//     orders of magnitude (see the recovery series of BENCH_hotpath.json).
//
// It implements sim.ConfigObserver: register it on an engine with
// Engine.Observe and it sees every node state change (steps, SetState,
// InjectFaults). Good() then always agrees with au.GraphGood(g, cfg).
//
// A bad verdict is cached: when Good() returns false and no Apply,
// ApplyWordBatch, RewireEdge, Reset or RestoreState happens before the next
// call, that call returns false in O(1). Under an asynchronous scheduler most
// steps change no node, so most polls of a bad graph take this path. Were it
// computed, such a repeated poll would keep every witness and leave the
// regime as the first poll left it, so the cache changes neither the witness
// order, nor the promotion step, nor CheckpointState bytes.
//
// It also implements sim.ShardedObserver: its maintenance is
// order-independent and per-node (deferred) or per-shard (incremental), so
// on a sharded engine workers apply their shard's interior changes
// concurrently — every slot touched when an interior node changes belongs
// to that node's shard — and Good combines the per-shard counts in O(P).
type GoodMonitor struct {
	au *AU
	g  *graph.Graph

	raw []sa.State // mirror of the configuration (deferred-regime state)

	level  []Level // current level λ_v per node (incremental regime)
	faulty []bool  // current faulty flag per node (incremental regime)

	deferred  bool  // true until the promotion recount has run
	promote   bool  // the graph turned good; recount on the next Good()
	witnesses []int // recently observed bad nodes (deferred mode only)

	unprot  []int32 // number of unprotected incident edges per node
	fnbrs   []int32 // number of faulty neighbors per node
	bad     []int   // not-good node counts; one slot per shard (one total when unsharded)
	shardOf []int32 // owner-shard table from AttachShards; nil when unsharded

	// verdict caches what is known of the current configuration without
	// looking: verdictGood is a word-parallel engine's certified per-step
	// verdict (see NoteWordStep), verdictBad the last poll's false answer.
	// Either lets Good() answer O(1) without touching counters or scanning.
	// Every Apply / ApplyWordBatch / RewireEdge / Reset resets it to
	// verdictUnknown (atomically — sharded engines deliver interior Applies
	// concurrently), which costs one uncontended store per change.
	verdict atomic.Uint32

	// stale marks the incremental counters out of date after a batched word
	// apply (ApplyWordBatch): on the certified steady path the monitor takes
	// the whole step's changes as one raw-mirror pass and skips the O(deg)
	// per-node goodness bookkeeping — the word verdict answers Good() — so
	// the counters lag until the next scalar touch resyncs them. Only
	// sequential engines batch (sharded merges keep per-node Applies), so
	// stale is coordinator-private and needs no atomicity.
	stale bool

	mx *obs.Metrics // nil unless Instrument attached a metric set
}

// Instrument attaches a metric set: the monitor counts its regime
// promotions (deferred → incremental) and classifies applied transitions by
// turn shape (AA/AF/FA). Transition classification costs two turn decodes
// per Apply in the deferred regime — uninstrumented monitors keep the
// single-store fast path.
func (m *GoodMonitor) Instrument(mx *obs.Metrics) { m.mx = mx }

// countTransition classifies a turn change by shape into the metric set.
// Counter updates are atomic, so concurrent interior-shard Apply calls are
// safe.
func (m *GoodMonitor) countTransition(oldF, newF bool) {
	switch {
	case !oldF && !newF:
		m.mx.TransAA.Add(1)
	case !oldF && newF:
		m.mx.TransAF.Add(1)
	case oldF && !newF:
		m.mx.TransFA.Add(1)
	}
}

// NewGoodMonitor returns a monitor initialized from cfg. It starts in the
// deferred regime (an O(n) raw copy, no decode, no counter scan); the
// incremental counters are built once, when the graph first turns good.
func NewGoodMonitor(au *AU, g *graph.Graph, cfg sa.Config) *GoodMonitor {
	n := g.N()
	m := &GoodMonitor{
		au:       au,
		g:        g,
		raw:      make([]sa.State, n),
		level:    make([]Level, n),
		faulty:   make([]bool, n),
		unprot:   make([]int32, n),
		fnbrs:    make([]int32, n),
		bad:      make([]int, 1),
		deferred: true,
	}
	copy(m.raw, cfg)
	return m
}

// NoteWordStep implements sim.WordVerdictObserver: a word-parallel engine
// reports, after each step's applies, whether its fused goodness plane
// certified the configuration graph-good (certified == true asserts every
// node is good post-step; false asserts nothing). The verdict is cached so
// Good() answers O(1) on the certified steady path — fed by the kernel's
// popcount-style plane instead of counters or scans — and any later Apply,
// RewireEdge or Reset clears the cache, falling back to the regular regimes.
// A certified verdict agrees with GraphGood by construction, so verdict
// sequences (and hence the promotion step, a trajectory-pinned counter) are
// identical to scalar runs.
//
// An uncertified step asserts nothing, so it withdraws only a certified
// verdict: a known-bad verdict survives it, since such a step delivers every
// change through Apply or ApplyWordBatch first.
func (m *GoodMonitor) NoteWordStep(certified bool) {
	if certified {
		m.verdict.Store(verdictGood)
	} else {
		m.verdict.CompareAndSwap(verdictGood, verdictUnknown)
	}
}

// ApplyWordBatch implements sim.WordBatchObserver: a word-parallel engine
// delivers a certified step's changed nodes as one batch — cfg is the
// engine's post-step configuration — instead of per-node Apply calls. The
// pre-apply configuration was graph-good and complete, so by the closure
// property the post-step one is too; the monitor therefore only refreshes
// its raw mirror and classifies the transitions (by the same turn-shape rule
// as Apply, aggregated into three atomic adds), deferring the counter
// bookkeeping: the incremental counters go stale and resync lazily on the
// next scalar touch. Transition totals, verdicts and the promotion step stay
// byte-identical to a scalar run feeding the same changes through Apply.
func (m *GoodMonitor) ApplyWordBatch(changed []int, cfg sa.Config) {
	m.verdict.Store(verdictUnknown)
	if m.mx != nil {
		// Faulty turns occupy the dense suffix 2k..4k−3, so the turn-shape
		// classification of countTransition reduces to two threshold tests.
		order := 2 * m.au.ls.k
		var aa, af, fa uint64
		for _, v := range changed {
			oldF, newF := m.raw[v] >= order, cfg[v] >= order
			switch {
			case !oldF && !newF:
				aa++
			case !oldF:
				af++
			case !newF:
				fa++
			}
			m.raw[v] = cfg[v]
		}
		if aa != 0 {
			m.mx.TransAA.Add(aa)
		}
		if af != 0 {
			m.mx.TransAF.Add(af)
		}
		if fa != 0 {
			m.mx.TransFA.Add(fa)
		}
	} else {
		for _, v := range changed {
			m.raw[v] = cfg[v]
		}
	}
	if !m.deferred {
		m.stale = true
	}
}

// resync rebuilds the incremental counters from the raw mirror after batched
// word applies left them stale — the same O(n·Δ) pass as a promotion, paid
// once per word-to-scalar regime transition.
func (m *GoodMonitor) resync() {
	m.decode()
	m.recount()
}

// decode rebuilds the per-node turn decode from the raw mirror.
func (m *GoodMonitor) decode() {
	for v, q := range m.raw {
		t := m.au.Turn(q)
		m.level[v] = t.Level
		m.faulty[v] = t.Faulty
	}
}

// AttachShards implements sim.ShardedObserver: the monitor re-buckets its
// not-good count into one slot per shard (indexed through the engine
// partition's owner table), so concurrent workers touch only their own
// shard's slot and Good combines the slots in O(nshards).
func (m *GoodMonitor) AttachShards(shardOf []int32, nshards int) {
	if nshards < 1 {
		nshards = 1
	}
	m.shardOf = shardOf
	m.bad = make([]int, nshards)
	if !m.deferred {
		if m.stale {
			// After a batched word apply the turn mirror (level/faulty) lags
			// the raw mirror; recounting from it would rebuild the per-shard
			// counts against stale turns. Resync decodes from raw first.
			m.resync()
		} else {
			m.recount()
		}
	}
}

// shard returns the bad-count slot of node v.
func (m *GoodMonitor) shard(v int) int {
	if m.shardOf == nil {
		return 0
	}
	return int(m.shardOf[v])
}

// Reset reloads the monitor from cfg. Use it when the configuration was
// rewritten wholesale outside the monitor's view. The current regime is
// kept: an incremental monitor rebuilds its counters, a deferred one only
// refreshes its turn mirror (and drops its witnesses).
func (m *GoodMonitor) Reset(cfg sa.Config) {
	copy(m.raw, cfg)
	m.verdict.Store(verdictUnknown)
	m.witnesses = m.witnesses[:0]
	m.promote = false
	if !m.deferred {
		m.decode()
		m.recount()
	}
}

// recount rebuilds the violation counters and per-shard bad counts from the
// turn mirror — the one full O(n·Δ) pass of a promotion.
func (m *GoodMonitor) recount() {
	m.stale = false
	for s := range m.bad {
		m.bad[s] = 0
	}
	for v := 0; v < m.g.N(); v++ {
		var unprot, fnbrs int32
		for _, u := range m.g.Neighbors(v) {
			if !m.au.ls.Adjacent(m.level[v], m.level[u]) {
				unprot++
			}
			if m.faulty[u] {
				fnbrs++
			}
		}
		m.unprot[v] = unprot
		m.fnbrs[v] = fnbrs
		if !m.nodeGood(v) {
			m.bad[m.shard(v)]++
		}
	}
}

// nodeGood mirrors AU.NodeGood over the counters: able, all incident edges
// protected, no faulty neighbor. Valid only in the incremental regime.
func (m *GoodMonitor) nodeGood(v int) bool {
	return !m.faulty[v] && m.unprot[v] == 0 && m.fnbrs[v] == 0
}

// nodeGoodScan re-derives NodeGood from the raw mirror in O(deg v),
// without counters — the deferred regime's primitive.
func (m *GoodMonitor) nodeGoodScan(v int) bool {
	tv := m.au.Turn(m.raw[v])
	if tv.Faulty {
		return false
	}
	for _, u := range m.g.Neighbors(v) {
		tu := m.au.Turn(m.raw[u])
		if tu.Faulty || !m.au.ls.Adjacent(tv.Level, tu.Level) {
			return false
		}
	}
	return true
}

// Apply implements sim.ConfigObserver: node v changed its state to q. In
// the deferred regime it is a single raw-mirror store; in the incremental
// regime the update costs O(deg v) and keeps Good() consistent. Applying a
// sequence of single-node changes in any order yields the state of the
// final configuration, so simultaneous updates may be fed one node at a
// time.
func (m *GoodMonitor) Apply(v int, q sa.State) {
	m.verdict.Store(verdictUnknown)
	if m.deferred {
		if m.mx != nil {
			was, now := m.au.Turn(m.raw[v]), m.au.Turn(q)
			if was != now {
				m.countTransition(was.Faulty, now.Faulty)
			}
		}
		m.raw[v] = q
		return
	}
	if m.stale {
		m.resync()
	}
	// Keep the raw mirror current through the incremental regime too: it is
	// the baseline ApplyWordBatch classifies against and resyncs from, so it
	// must track every state change, not just deferred-regime ones.
	m.raw[v] = q
	t := m.au.Turn(q)
	oldL, oldF := m.level[v], m.faulty[v]
	newL, newF := t.Level, t.Faulty
	if newL == oldL && newF == oldF {
		return
	}
	if m.mx != nil {
		m.countTransition(oldF, newF)
	}
	vWasGood := m.nodeGood(v)
	var fdelta int32
	if oldF != newF {
		if newF {
			fdelta = 1
		} else {
			fdelta = -1
		}
	}
	var dunprot int32 // accumulated change to unprot[v]
	for _, u := range m.g.Neighbors(v) {
		uWasGood := m.nodeGood(u)
		m.fnbrs[u] += fdelta
		if newL != oldL {
			oldP := m.au.ls.Adjacent(oldL, m.level[u])
			newP := m.au.ls.Adjacent(newL, m.level[u])
			if oldP && !newP {
				m.unprot[u]++
				dunprot++
			} else if !oldP && newP {
				m.unprot[u]--
				dunprot--
			}
		}
		if uGood := m.nodeGood(u); uGood != uWasGood {
			if uGood {
				m.bad[m.shard(u)]--
			} else {
				m.bad[m.shard(u)]++
			}
		}
	}
	m.level[v] = newL
	m.faulty[v] = newF
	m.unprot[v] += dunprot
	if vGood := m.nodeGood(v); vGood != vWasGood {
		if vGood {
			m.bad[m.shard(v)]--
		} else {
			m.bad[m.shard(v)]++
		}
	}
}

// RewireEdge implements sim.TopologyObserver: the undirected edge (u, v)
// was added to or removed from the monitor's graph by a topology mutation
// (graph.Delta applied at a step boundary). In the deferred regime nothing
// needs repair — the raw mirror is topology-free and every scan walks the
// graph's current adjacency. In the incremental regime the counters are
// patched in O(1): the edge contributes one unprotected-incident-edge unit
// to each endpoint when their levels are not adjacent, and one
// faulty-neighbor unit to the endpoint across from a faulty node.
//
// RewireEdge must run on the coordinator between steps (the engines apply
// churn only there), so the per-shard bad slots of a sharded monitor may be
// touched for both endpoints even when they live in different shards.
func (m *GoodMonitor) RewireEdge(u, v int, added bool) {
	m.verdict.Store(verdictUnknown)
	if m.deferred {
		return
	}
	if m.stale {
		// The counters lag a batched word apply, and the pending lazy resync
		// recounts against the graph's CURRENT adjacency — which already
		// includes this edge change (deltas commit before the rewire
		// notifications fan out). Patching here would double-count the edge:
		// once now, once in the recount. Worse, resyncing eagerly would
		// incorporate the whole committed batch and then let the remaining
		// RewireEdge deliveries of the same batch double-patch their edges.
		// So a stale monitor must leave churn entirely to the resync.
		return
	}
	uWasGood, vWasGood := m.nodeGood(u), m.nodeGood(v)
	var d int32 = 1
	if !added {
		d = -1
	}
	if !m.au.ls.Adjacent(m.level[u], m.level[v]) {
		m.unprot[u] += d
		m.unprot[v] += d
	}
	if m.faulty[v] {
		m.fnbrs[u] += d
	}
	if m.faulty[u] {
		m.fnbrs[v] += d
	}
	if uGood := m.nodeGood(u); uGood != uWasGood {
		if uGood {
			m.bad[m.shard(u)]--
		} else {
			m.bad[m.shard(u)]++
		}
	}
	if vGood := m.nodeGood(v); vGood != vWasGood {
		if vGood {
			m.bad[m.shard(v)]--
		} else {
			m.bad[m.shard(v)]++
		}
	}
}

// Good reports whether the graph is good (every node good) — the AlgAU
// stabilization condition. In the incremental regime (after the graph first
// turned good) it is O(1) (O(P) per-shard combine when sharded). In the
// deferred regime it re-tests the cached bad witnesses in O(Δ) and only
// scans — with early exit, refilling the witness cache — when all of them
// have healed; the scan that finds no bad node is the promotion point. A
// false answer is cached until the next change (see GoodMonitor).
func (m *GoodMonitor) Good() bool {
	switch m.verdict.Load() {
	case verdictBad:
		return false
	case verdictGood:
		// The word engine certified the configuration good (NoteWordStep).
		// A deferred monitor must still walk the exact promotion protocol of
		// goodDeferred — first good verdict schedules the promotion, the
		// next call performs it — because MonitorPromotions is a trajectory
		// counter pinned across modes by the differential suites.
		if m.deferred {
			if m.promote {
				m.promote = false
				m.deferred = false
				if m.mx != nil {
					m.mx.MonitorPromotions.Add(1)
				}
				m.decode()
				m.recount()
			} else {
				m.promote = true
			}
		}
		return true
	}
	if m.deferred {
		if !m.goodDeferred() {
			m.verdict.Store(verdictBad)
			return false
		}
		return true
	}
	if m.stale {
		m.resync()
	}
	for _, b := range m.bad {
		if b != 0 {
			m.verdict.Store(verdictBad)
			return false
		}
	}
	return true
}

// goodDeferred is the deferred-regime Good: witness check, then early-exit
// scan, then promotion when the scan comes up clean.
func (m *GoodMonitor) goodDeferred() bool {
	if m.promote {
		// The previous check found the graph good; build the incremental
		// counters now (concurrency-safe: Good runs on the coordinator
		// between steps, never during a sharded merge).
		m.promote = false
		m.deferred = false
		if m.mx != nil {
			m.mx.MonitorPromotions.Add(1)
		}
		m.decode()
		m.recount()
		for _, b := range m.bad {
			if b != 0 {
				return false
			}
		}
		return true
	}
	keep := m.witnesses[:0]
	for _, w := range m.witnesses {
		if !m.nodeGoodScan(w) {
			keep = append(keep, w)
		}
	}
	m.witnesses = keep
	if len(m.witnesses) > 0 {
		return false
	}
	// Early-exit scan: stop at the first bad node, collecting a few extra
	// witnesses within a bounded overscan so endgame phases (few, scattered
	// bad nodes) do not rescan from scratch every step.
	n := m.g.N()
	limit := n
	for v := 0; v < limit; v++ {
		if !m.nodeGoodScan(v) {
			if len(m.witnesses) == 0 {
				if over := 2*v + 256; over < limit {
					limit = over
				}
			}
			m.witnesses = append(m.witnesses, v)
			if len(m.witnesses) >= maxWitnesses {
				break
			}
		}
	}
	if len(m.witnesses) > 0 {
		return false
	}
	// The graph is good: schedule the promotion to the incremental regime.
	// By Lem. 2.10 a good graph stays good, so from here on the counters pay
	// for themselves — every later check (and every fault-burst recovery)
	// is O(1) instead of a rescan. The recount itself runs on the next
	// call, so a run that stops at stabilization never pays it.
	m.promote = true
	return true
}

// BadNodes returns the current number of not-good nodes (a progress metric
// for traces and campaigns). Incremental regime: an O(P) per-shard combine.
// Deferred regime: a full O(n·Δ) recount — this is an oracle-priced
// diagnostic there, not a hot-path primitive.
func (m *GoodMonitor) BadNodes() int {
	if m.deferred {
		total := 0
		for v := 0; v < m.g.N(); v++ {
			if !m.nodeGoodScan(v) {
				total++
			}
		}
		return total
	}
	if m.stale {
		m.resync()
	}
	total := 0
	for _, b := range m.bad {
		total += b
	}
	return total
}

// BadNodesFast returns the not-good node count when it is cheap — the O(P)
// per-shard combine of the incremental regime — and -1 in the deferred
// regime, where an exact count would cost a full rescan. Step tracers use
// it to enrich sampled snapshots without perturbing the hot path. After
// batched word applies the first call resyncs the counters (amortized
// across the sampling interval).
func (m *GoodMonitor) BadNodesFast() int {
	if m.deferred {
		return -1
	}
	if m.stale {
		m.resync()
	}
	total := 0
	for _, b := range m.bad {
		total += b
	}
	return total
}

// CheckpointState serializes the monitor for a step-boundary snapshot: the
// raw configuration mirror, the regime flags (deferred / pending promotion /
// stale word-batch counters / cached word verdict) and the deferred-regime
// witness cache in its exact order. The derived incremental state — turn
// mirror, violation counters, per-shard bad counts — is deliberately NOT
// serialized: it is a pure function of (raw, current adjacency, shard
// attachment) and is rebuilt on restore, which both shrinks snapshots and
// makes a round-trip a cross-check of the incremental maintenance.
func (m *GoodMonitor) CheckpointState() []byte {
	var e snapshot.Enc
	e.IntsFunc(len(m.raw), func(v int) int { return int(m.raw[v]) })
	e.Bool(m.deferred)
	e.Bool(m.promote)
	e.Bool(m.stale)
	// A known-bad verdict encodes as unknown: the restored monitor recomputes
	// it on its first poll, to the same answer and the same witnesses.
	e.Bool(m.verdict.Load() == verdictGood)
	e.Ints(m.witnesses)
	return e.Bytes()
}

// RestoreState restores a CheckpointState payload into a freshly constructed
// monitor for the same algorithm and (restored) graph. An incremental-regime
// monitor rebuilds its counters from the raw mirror against the current
// adjacency; the stale flag is preserved so the verdict and resync behavior
// of the restored run replays the saved one's exactly.
func (m *GoodMonitor) RestoreState(data []byte) error {
	d := snapshot.NewDec(data)
	if n := d.Int(); n != len(m.raw) && d.Err() == nil {
		return fmt.Errorf("core: monitor snapshot for %d nodes restored into %d", n, len(m.raw))
	}
	for v := range m.raw {
		m.raw[v] = sa.State(d.Int())
	}
	deferred, promote, stale, wordOK := d.Bool(), d.Bool(), d.Bool(), d.Bool()
	witnesses := d.Ints()
	if err := d.Done(); err != nil {
		return err
	}
	m.deferred = deferred
	m.promote = promote
	m.witnesses = witnesses
	m.verdict.Store(verdictUnknown)
	if wordOK {
		m.verdict.Store(verdictGood)
	}
	if !m.deferred {
		m.resync()
	}
	// resync clears stale; reinstate the saved flag afterwards. A restored
	// stale monitor has exact counters already, so the extra lazy resync it
	// will run on its next touch is idempotent — and keeping the flag keeps
	// CheckpointState round-trips byte-identical.
	m.stale = stale
	return nil
}
