// Package sim executes stone age algorithms on graphs under adversarial
// schedulers, exactly following the discrete-step semantics of the paper:
// at step t every activated node reads the configuration C_t (its signal)
// and all activated nodes update simultaneously to produce C_{t+1}.
//
// The engine is deterministic given its seed, tracks rounds via the round
// operator ϱ, and exposes hooks for invariant checking and tracing. Its hot
// path is incremental and allocation-free: steps stage updates in reusable
// scratch (no per-step configuration copy), and registered ConfigObservers
// receive each node state change so stabilization predicates are maintained
// in O(|A_t|·Δ) per step rather than rescanned over the whole graph.
//
// Large single runs shard across cores: Options.Parallelism >= 1 partitions
// the graph into contiguous node shards (internal/shard) and fans each
// step's staging over a persistent worker pool, with transition coin tosses
// drawn from counter-based per-(step, node) streams so a sharded run is
// byte-identical to a sequential run of the same seed at any worker count.
//
// Near-quiescent runs go frontier-sparse: Options.Frontier maintains a
// per-node settled flag (δ on the current signal is certified a coin-free
// self-loop by the algorithm's sa.SelfLooper capability) and skips settled
// activated nodes wholesale, so a step costs O(|A_t ∩ frontier|·Δ) rather
// than O(|A_t|·Δ) while staying byte-identical to the dense run at every
// parallelism.
//
// The topology itself may churn mid-run: Options.Churn applies scripted or
// stochastic graph.Delta mutations at step boundaries (cells die, divide
// back, links rewire), repairing the frontier, the registered observer and
// the shard classification in the same motion — see churn.go and
// Engine.ApplyDelta. Churn draws from its own rng, so churn runs remain
// byte-identical across all execution modes.
//
// Every mode combination is checkpointable: Engine.SaveState serializes the
// full run state at a step boundary (configuration, churned topology,
// frontier bitset, partition bounds, word slabs, round tracker, rng stream
// cursors, churn bookkeeping, scheduler position) and Restore rebuilds an
// engine in a fresh process that continues the run byte-identically — run K
// steps, snapshot, restore, run K more ≡ an uninterrupted 2K-step run, in
// every mode × parallelism × churn cell. See snapshot.go; the campaign
// -restore-check guard enforces the contract in CI.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"thinunison/internal/failpoint"
	"thinunison/internal/frontier"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/shard"
)

// ErrBudgetExhausted is returned by RunUntil when the predicate did not hold
// within the allotted number of rounds.
var ErrBudgetExhausted = errors.New("sim: round budget exhausted before condition held")

// ErrWordInvariant and ErrFrontierInvariant report a self-check violation in
// the word-parallel kernel or the frontier bookkeeping. They are currently
// raised only through the corresponding failpoint sites (the differentials
// enforce the real invariants in CI), giving the campaign's graceful
// degradation ladder a deterministic trigger: a run failing with one of
// these is demoted to the scalar/dense oracle path and re-executed.
var (
	ErrWordInvariant     = errors.New("sim: word-parallel kernel invariant violated")
	ErrFrontierInvariant = errors.New("sim: frontier invariant violated")
)

// evalFailpoints evaluates the engine's chaos sites at a step boundary. Only
// called when a failpoint schedule is armed; the invariant sites fire only
// when the corresponding execution mode is active, mirroring where a real
// self-check would live.
func (e *Engine) evalFailpoints() error {
	if f := failpoint.Eval(failpoint.SimStep); f.Kind != failpoint.None {
		if f.Kind == failpoint.FailPanic {
			panic(f)
		}
		return fmt.Errorf("sim: step %d: %w", e.step, f.Err())
	}
	if e.wr != nil {
		if f := failpoint.Eval(failpoint.SimWordInvariant); f.Kind != failpoint.None {
			return fmt.Errorf("%w (injected at step %d, hit %d)", ErrWordInvariant, e.step, f.Hit)
		}
	}
	if e.fr != nil {
		if f := failpoint.Eval(failpoint.SimFrontierInvariant); f.Kind != failpoint.None {
			return fmt.Errorf("%w (injected at step %d, hit %d)", ErrFrontierInvariant, e.step, f.Hit)
		}
	}
	return nil
}

// Hook observes the engine after each step. Hooks may record traces or check
// invariants; returning an error aborts the run.
type Hook func(e *Engine) error

// ConfigObserver is notified of every individual node state change the
// engine performs — scheduler steps, SetState, and InjectFaults alike. It is
// the incremental counterpart of a post-step Hook: observers such as
// core.GoodMonitor maintain violation counters in O(deg v) per change, so
// stabilization predicates need no per-step full-graph rescan.
//
// Ordering contract: within a step, the changes of the simultaneously
// updating activation set are delivered one node at a time, in ascending
// node order, each node at most once — regardless of the order (or
// duplication) of the scheduler's activation list, and regardless of the
// engine's Parallelism. SetState and InjectFaults deliver in call order.
// Observers that additionally implement ShardedObserver opt out of the
// ascending guarantee on sharded engines in exchange for concurrent
// delivery; plain observers always receive the canonical sequential order.
type ConfigObserver interface {
	// Apply records that node v now holds state q.
	Apply(v int, q sa.State)
}

// ShardedObserver extends ConfigObserver for observers whose Apply is
// order-independent and safe to call concurrently for nodes owned by
// distinct shards (all state touched when node v changes — v and its
// neighbors — must be guarded by v's shard, which the engine guarantees by
// only delivering interior nodes concurrently). core.GoodMonitor is the
// canonical implementation: it keeps its violation counters per shard and
// combines them in O(P).
//
// AttachShards is invoked by a sharded engine when the observer is
// registered: shardOf is the dense owner-shard table (indexed by node, owned
// by the engine's partition) and nshards the shard count.
type ShardedObserver interface {
	ConfigObserver
	AttachShards(shardOf []int32, nshards int)
}

// Engine drives one execution of an sa.Algorithm.
type Engine struct {
	g     *graph.Graph
	alg   sa.Algorithm
	sched sched.Scheduler
	rng   *rand.Rand

	cfg     sa.Config
	scratch sa.Config // per-step new states of the activated set
	signal  sa.Signal
	step    int
	tracker *sched.RoundTracker
	hooks   []Hook
	obs     ConfigObserver

	lastActivated []int
	faultBuf      []int // reusable permutation buffer for InjectFaults
	actBuf        []int // canonicalization buffer for unsorted activation lists

	par    *parRuntime         // sharded-execution runtime; nil in classic mode
	fr     *frontierRuntime    // frontier-sparse runtime; nil in dense mode
	churn  *churnRuntime       // topology-churn driver; nil when Options.Churn is off
	wr     *wordRuntime        // word-parallel runtime; nil in scalar mode
	wObs   WordVerdictObserver // obs, when it consumes per-step word verdicts
	wBatch WordBatchObserver   // obs, when it additionally takes batched applies

	// mx is the engine's metric set — always non-nil (allocated at New when
	// Options.Metrics is nil). The per-step counters reach it through tally,
	// published in batches (see publish). tracer is nil unless Options.Trace
	// attached one.
	mx     *obs.Metrics
	tally  obs.Tally
	tracer *obs.Tracer
	coin   *randx.Counting // classic-mode rng draw counter; nil if unavailable
	seed   int64           // Options.Seed, retained for checkpointing

	// stepAct/stepEval/stepChg are the current step's tallies, filled by the
	// step bodies and folded into tally (and the tracer sample) once per step.
	stepAct  int
	stepEval int
	stepChg  int
}

// frontierRuntime holds the frontier-sparse execution state of an engine:
// the dirty set of unsettled nodes (per-shard word arrays when sharded) and
// the algorithm's self-loop certifier. A node leaves the frontier when an
// evaluation certifies its (state, signal) pair as a deterministic coin-free
// self-loop, and re-enters — in O(deg v), the same CSR walk core.GoodMonitor
// uses — whenever it or a neighbor changes state or suffers a fault.
type frontierRuntime struct {
	set     *frontier.Set
	looper  sa.SelfLooper
	settler sa.Settler // non-nil when the algorithm fuses δ and the certificate

	evalBuf []int // A_t ∩ frontier scratch for non-sparse schedulers
	lastBuf []int // lazy LastActivated materialization buffer

	// lastFull / lastAllBut describe the most recent step's full activation
	// set when a SparseActivator summarized it instead of materializing it.
	lastFull   bool
	lastAllBut int
}

// parRuntime holds the sharded-execution state of an engine: the partition,
// the persistent worker pool, per-shard staging buffers and per-worker
// scratch (signal, reseedable rng). See Options.Parallelism.
type parRuntime struct {
	part *shard.Partition
	pool *shard.Pool
	seed int64

	acts    [][]int           // per-shard activation views for the current step
	actBufs [][]int           // backing buffers for acts when bucketing is needed
	res     [][]sa.State      // per-shard staged next states, aligned with acts
	seqs    []*randx.Seq      // per-worker reseedable coin-toss sources
	coins   []*randx.Counting // per-worker draw counters wrapping seqs
	rngs    []*rand.Rand      // per-worker rand.Rand over the counted seqs
	sigs    []sa.Signal       // per-worker signal scratch

	// chg and stl are per-shard tallies (changes applied by applyInterior,
	// settle-promotions certified by stage). Each slot is written by one
	// worker during its phase and summed by the coordinator after the pool
	// phase completes — the pool's channel handoffs order the accesses — so
	// counter aggregation costs O(P) adds per step, not per-node atomics.
	chg []uint64
	stl []uint64

	shObs ShardedObserver // obs, when it supports concurrent interior delivery

	// churnAccum is the accumulated topology-churn weight since the last
	// (re)partition; crossing the repartition threshold triggers a full
	// rebuild (see rewire).
	churnAccum int

	// stage and applyInterior are the per-phase worker bodies, built once at
	// construction so the steady step loop allocates no closures.
	stage         func(s int)
	applyInterior func(s int)
}

// Options configures an Engine.
type Options struct {
	// Initial is the adversarially chosen initial configuration C0.
	// If nil, a uniformly random configuration is drawn from the engine's
	// rng (the standard self-stabilization benchmark initialization).
	Initial sa.Config

	// Scheduler decides activation sets. If nil, the synchronous scheduler
	// is used.
	Scheduler sched.Scheduler

	// Seed seeds the engine's private rng (coin tosses and, if Initial is
	// nil, the initial configuration).
	Seed int64

	// Parallelism selects the sharded execution mode. P >= 1 partitions the
	// graph into P contiguous shards (clamped to the node count) and runs
	// each step's activation set across a persistent worker pool; call Close
	// when done with the engine to release the workers.
	//
	// Sharded runs are byte-identical for equal seeds at ANY P: transition
	// coin tosses come from counter-based per-(step, node) streams
	// (randx.NodeSeed) instead of the engine's shared rng, so results do not
	// depend on execution order. P = 1 runs the same semantics inline —
	// compare it against higher P to validate sharding (the differential
	// harness in internal/shard does exactly that). For algorithms that
	// ignore rng (AlgAU), sharded runs are also byte-identical to classic
	// sequential runs.
	//
	// P = 0 (the default) is the classic sequential engine: transition coin
	// tosses are drawn from the engine's single rng stream in activation
	// order.
	Parallelism int

	// Frontier enables frontier-sparse execution: the engine maintains a
	// per-node settled flag (node v is settled when δ applied to its current
	// signal is deterministically a self-loop with no coin toss, as certified
	// by the algorithm's sa.SelfLooper capability) and skips settled
	// activated nodes wholesale, so a step costs O(|A_t ∩ frontier|·Δ)
	// instead of O(|A_t|·Δ). Schedulers implementing sched.SparseActivator
	// additionally stop materializing O(n) activation slices.
	//
	// Frontier runs are byte-identical to dense runs of the same seed at
	// every Parallelism: a skipped node provably keeps its state and — by
	// the SelfLooper contract — would have consumed no randomness, so the
	// classic engine's shared rng stream and the sharded engines'
	// per-(step, node) streams are both undisturbed. The differential
	// harness in internal/sim and internal/campaign enforces this.
	//
	// The option is ignored (dense execution) when the algorithm does not
	// implement sa.SelfLooper.
	Frontier bool

	// WordParallel enables word-parallel execution: when the algorithm
	// implements sa.WordKernel and its state space fits in a machine word,
	// each step's signals are built by a CSR OR-scan over per-node one-word
	// self-signals and δ is evaluated by the algorithm's batch kernel from
	// precompiled masks, instead of the scalar per-node Signal construction
	// and transition decoding. The kernel contract (deterministic, coin-free,
	// next == cur ⟺ settled) makes word runs byte-identical to scalar runs
	// of the same seed in every mode — dense or frontier, any Parallelism,
	// with or without churn — which the differential suites and the campaign
	// -plane-check guard enforce.
	//
	// The fused goodness plane additionally certifies full-refresh steps
	// (see WordVerdictObserver), so an attached core.GoodMonitor answers
	// Good() in O(1) on the steady path instead of scanning.
	//
	// The option is silently ignored (scalar execution) when the algorithm
	// does not implement sa.WordKernel or Kernel() returns nil (|Q| > 64).
	WordParallel bool

	// Metrics, when non-nil, receives the engine's counters (see obs.Metrics
	// for the catalog). When nil the engine allocates a private set —
	// counters are always maintained, so instrumented and uninstrumented
	// runs execute identical code — reachable via Engine.Metrics.
	//
	// Per-step counters are published in batches (obs.Tally): the set is
	// exact after every return of RunUntil, RunRounds and RunToStabilization
	// (errors and budget exhaustion included), a failed Step, InjectFaults,
	// SaveState, Close and Engine.Metrics. Between those boundaries — for a
	// caller stepping with Step, or a reader on another goroutine — it lags
	// the engine by less than obs.PublishEvery steps plus activations.
	Metrics *obs.Metrics

	// Trace attaches a sampled step tracer / flight recorder. After every
	// step the engine feeds it a cheap snapshot (activation, evaluation and
	// change counts, frontier occupancy); the tracer's ring write is
	// allocation-free and its sink sampling is keyed by step number only,
	// so traced runs stay byte-identical to untraced ones in every mode.
	Trace *obs.Tracer

	// Churn enables mid-run topology churn: the spec's scripted events and
	// stochastic edge flips are applied at step boundaries through
	// ApplyDelta, so every incremental layer (frontier, observer counters,
	// shard classification) is repaired in the same motion. nil (or an
	// empty spec) freezes the topology, the classic behavior. Churn draws
	// from its own rng (ChurnSpec.Seed), so churn runs remain
	// byte-identical across execution modes (dense/frontier, any
	// Parallelism) exactly like churn-free runs.
	Churn *ChurnSpec

	// restoring is set only by Restore. A snapshot taken while churn crash
	// victims are down carries a CSR with those victims isolated — a graph
	// the engine handles fine mid-run (KeepConnected guards alive-subgraph
	// connectivity only) but full-graph Validate would reject. Restore
	// validates the alive subgraph against the crash set itself.
	restoring bool
}

// New returns an engine for alg on g.
func New(g *graph.Graph, alg sa.Algorithm, opts Options) (*Engine, error) {
	if !opts.restoring {
		if err := g.Validate(); err != nil {
			return nil, err
		}
	}
	s := opts.Scheduler
	if s == nil {
		s = sched.NewSynchronous()
	}
	// Count rng draws by wrapping the source; the wrapper is a pass-through
	// (and still a Source64), so the produced stream — and therefore the
	// run — is byte-identical to an unwrapped engine.
	src := rand.NewSource(opts.Seed)
	var coin *randx.Counting
	if s64, ok := src.(rand.Source64); ok {
		coin = randx.NewCounting(s64)
		src = coin
	}
	rng := rand.New(src)
	cfg := opts.Initial
	if cfg == nil {
		cfg = sa.Random(g.N(), alg.NumStates(), rng)
	} else {
		if len(cfg) != g.N() {
			return nil, fmt.Errorf("sim: initial configuration has %d states for %d nodes", len(cfg), g.N())
		}
		for v, q := range cfg {
			if q < 0 || q >= alg.NumStates() {
				return nil, fmt.Errorf("sim: initial state %d of node %d out of range [0,%d)", q, v, alg.NumStates())
			}
		}
		cfg = cfg.Clone()
	}
	e := &Engine{
		g:       g,
		alg:     alg,
		sched:   s,
		rng:     rng,
		cfg:     cfg,
		scratch: make(sa.Config, 0, g.N()),
		signal:  sa.NewSignal(alg.NumStates()),
		tracker: sched.NewRoundTracker(g.N()),
		mx:      opts.Metrics,
		tracer:  opts.Trace,
		coin:    coin,
		seed:    opts.Seed,
	}
	if e.mx == nil {
		e.mx = &obs.Metrics{}
	}
	if opts.Frontier {
		if lp, ok := alg.(sa.SelfLooper); ok {
			e.fr = &frontierRuntime{looper: lp, lastAllBut: -1}
			if st, ok := alg.(sa.Settler); ok {
				e.fr.settler = st
			}
		}
	}
	if opts.Parallelism >= 1 {
		part := shard.NewPartition(g, opts.Parallelism)
		p := part.P()
		pr := &parRuntime{
			part:    part,
			pool:    shard.NewPool(p),
			seed:    opts.Seed,
			acts:    make([][]int, p),
			actBufs: make([][]int, p),
			res:     make([][]sa.State, p),
			seqs:    make([]*randx.Seq, p),
			coins:   make([]*randx.Counting, p),
			rngs:    make([]*rand.Rand, p),
			sigs:    make([]sa.Signal, p),
			chg:     make([]uint64, p),
			stl:     make([]uint64, p),
		}
		for i := 0; i < p; i++ {
			pr.seqs[i] = &randx.Seq{}
			pr.coins[i] = randx.NewCounting(pr.seqs[i])
			pr.rngs[i] = rand.New(pr.coins[i])
			pr.sigs[i] = sa.NewSignal(alg.NumStates())
		}
		// The worker bodies read e.step and the staged buffers directly;
		// both are written only by the coordinator between pool phases, and
		// the pool's channel handoffs order those writes.
		pr.stage = func(s int) {
			acts := pr.acts[s]
			res := pr.res[s][:0]
			rng, seq := pr.rngs[s], pr.seqs[s]
			sig := &pr.sigs[s]
			var settles uint64
			if fr := e.fr; fr != nil {
				for _, v := range acts {
					seq.Reseed(randx.NodeSeed(pr.seed, e.step, v))
					e.SignalOf(v, sig)
					q, settled := fr.evalNode(e, v, sig, rng)
					res = append(res, q)
					if settled {
						// Settle-clear: only v's own (in-shard) bit is
						// touched, and any invalidation by a changing
						// neighbor happens in a later phase, so sets always
						// win over clears.
						fr.set.Remove(v)
						settles++
					}
				}
			} else {
				for _, v := range acts {
					seq.Reseed(randx.NodeSeed(pr.seed, e.step, v))
					e.SignalOf(v, sig)
					res = append(res, e.alg.Transition(e.cfg[v], *sig, rng))
				}
			}
			pr.res[s] = res
			pr.stl[s] = settles
		}
		pr.applyInterior = func(s int) {
			fr := e.fr
			var changes uint64
			for i, v := range pr.acts[s] {
				if !pr.part.Interior(v) {
					continue
				}
				if q := pr.res[s][i]; q != e.cfg[v] {
					e.cfg[v] = q
					changes++
					if fr != nil {
						// An interior node's whole neighborhood lives in its
						// owner shard, so these dirty bits never race.
						fr.invalidate(e.g, v)
					}
					if pr.shObs != nil {
						pr.shObs.Apply(v, q)
					}
				}
			}
			pr.chg[s] = changes
		}
		e.par = pr
	}
	if e.fr != nil {
		if e.par != nil {
			e.fr.set = frontier.NewSharded(g.N(), e.par.part.Starts(), e.par.part.ShardIndex())
		} else {
			e.fr.set = frontier.New(g.N())
		}
		e.fr.set.Fill() // nothing is certified yet: every node starts dirty
	}
	if opts.Churn.active() {
		cr, err := newChurnRuntime(g, *opts.Churn)
		if err != nil {
			return nil, err
		}
		e.churn = cr
	}
	if opts.WordParallel {
		if wk, ok := alg.(sa.WordKernel); ok {
			if kern := wk.Kernel(); kern != nil {
				e.wr = newWordRuntime(e, kern)
			}
		}
	}
	return e, nil
}

// evalNode runs δ for node v together with the frontier certificate: the
// next state plus whether v settles (its (state, signal) pair is a
// certified coin-free self-loop). Algorithms implementing sa.Settler fuse
// the two into one δ evaluation; otherwise the certificate costs a second
// SelfLoop call on no-op transitions only.
func (fr *frontierRuntime) evalNode(e *Engine, v int, sig *sa.Signal, rng *rand.Rand) (sa.State, bool) {
	if fr.settler != nil {
		return fr.settler.TransitionSettled(e.cfg[v], *sig, rng)
	}
	q := e.alg.Transition(e.cfg[v], *sig, rng)
	return q, q == e.cfg[v] && fr.looper.SelfLoop(e.cfg[v], *sig)
}

// invalidate re-dirties node v and its neighbors: v's state changed, so the
// settled certificates of everything sensing v are void.
func (fr *frontierRuntime) invalidate(g *graph.Graph, v int) {
	fr.set.Add(v)
	for _, u := range g.Neighbors(v) {
		fr.set.Add(u)
	}
}

// Close publishes the pending counters and releases the worker goroutines of
// a sharded engine (Parallelism >= 1). It is idempotent; a classic sequential
// engine has no workers to release.
func (e *Engine) Close() {
	e.publish()
	if e.par != nil {
		e.par.pool.Close()
	}
}

// AddHook registers a post-step hook.
func (e *Engine) AddHook(h Hook) { e.hooks = append(e.hooks, h) }

// Observe registers the engine's configuration observer (at most one; nil
// unregisters). The observer must already reflect the engine's current
// configuration — construct it from Config(), e.g. core.NewGoodMonitor.
//
// On a sharded engine (Options.Parallelism >= 1), an observer implementing
// ShardedObserver is attached to the engine's partition and receives
// interior-node changes concurrently during the merge phase; plain
// observers force the merge through the coordinator in canonical ascending
// node order.
func (e *Engine) Observe(o ConfigObserver) {
	e.obs = o
	e.wObs = nil
	e.wBatch = nil
	if wo, ok := o.(WordVerdictObserver); ok {
		e.wObs = wo
	}
	if wb, ok := o.(WordBatchObserver); ok {
		e.wBatch = wb
	}
	if e.par == nil {
		return
	}
	e.par.shObs = nil
	if so, ok := o.(ShardedObserver); ok {
		so.AttachShards(e.par.part.ShardIndex(), e.par.part.P())
		e.par.shObs = so
	}
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Algorithm returns the algorithm under execution.
func (e *Engine) Algorithm() sa.Algorithm { return e.alg }

// Config returns the current configuration. The slice is owned by the
// engine; clone it before mutating.
func (e *Engine) Config() sa.Config { return e.cfg }

// SetState overwrites the state of node v in the current configuration.
// It models a transient fault (adversarial state corruption).
func (e *Engine) SetState(v int, q sa.State) error {
	if v < 0 || v >= e.g.N() {
		return fmt.Errorf("sim: node %d out of range", v)
	}
	if q < 0 || q >= e.alg.NumStates() {
		return fmt.Errorf("sim: state %d out of range", q)
	}
	e.cfg[v] = q
	if e.wr != nil {
		e.wr.noteWrite(v, q)
	}
	if e.fr != nil {
		e.fr.invalidate(e.g, v)
	}
	if e.obs != nil {
		e.obs.Apply(v, q)
	}
	return nil
}

// InjectFaults corrupts count distinct random nodes to uniformly random
// states, returning the affected nodes. It models a burst of transient
// faults mid-execution. The count is clamped to [0, n]: negative counts
// inject nothing rather than panicking.
//
// The victims are drawn by a partial Fisher–Yates shuffle over a reusable
// buffer, so repeated bursts allocate nothing and cost O(count) rather than
// O(n). The returned slice is owned by the engine and valid until the next
// call.
func (e *Engine) InjectFaults(count int) []int {
	// Publish before the writes, so the gauges keep their post-step values,
	// and again after, so the burst's draws are counted on return.
	e.publish()
	hit := randx.PartialShuffle(&e.faultBuf, e.g.N(), count, e.rng)
	for _, v := range hit {
		e.cfg[v] = e.rng.Intn(e.alg.NumStates())
		if e.wr != nil {
			e.wr.noteWrite(v, e.cfg[v])
		}
		if e.fr != nil {
			e.fr.invalidate(e.g, v)
		}
		if e.obs != nil {
			e.obs.Apply(v, e.cfg[v])
		}
	}
	e.mx.Faults.Add(uint64(len(hit)))
	e.publish()
	return hit
}

// Step executes one step: it queries the scheduler for A_t, computes the
// signal of each activated node under C_t, applies δ simultaneously, and
// advances to C_{t+1}.
//
// The hot path is allocation-free: new states of the activation set are
// staged in reusable scratch (no O(n) configuration copy per step) and
// written back only after every activated node has read C_t, preserving the
// paper's simultaneous-update semantics. On a sharded engine the staging
// fans out across the worker pool; see Options.Parallelism.
//
// A step that fails publishes the pending counters before returning, so
// Metrics reflects every completed step when the error is seen.
func (e *Engine) Step() error {
	if err := e.stepOnce(); err != nil {
		e.publish()
		return err
	}
	return nil
}

// stepOnce is the body of Step.
func (e *Engine) stepOnce() error {
	if failpoint.Armed() {
		if err := e.evalFailpoints(); err != nil {
			return err
		}
	}
	if e.churn != nil {
		// Step-boundary churn: mutate the topology before this step's
		// activation set is drawn, so the step runs on the new graph.
		if err := e.applyChurn(); err != nil {
			return fmt.Errorf("sim: churn at step %d: %w", e.step, err)
		}
	}
	e.stepChg = 0
	if e.fr != nil {
		e.stepFrontier()
	} else {
		activated := canonActivations(e.sched.Activations(e.step, e.g.N()), &e.actBuf)
		e.stepAct, e.stepEval = len(activated), len(activated)
		switch {
		case e.wr != nil && e.par != nil:
			e.stepShardedWord(activated, -1)
		case e.wr != nil:
			e.stepSequentialWord(activated)
		case e.par != nil:
			e.stepSharded(activated)
		default:
			e.stepSequential(activated)
		}
		e.tracker.Observe(activated)
		e.lastActivated = activated
	}
	if e.wr != nil && e.wObs != nil {
		// Delivered after every apply of the step, so a later Apply (fault
		// injection, churn) supersedes the verdict at the observer.
		e.wObs.NoteWordStep(e.wr.certified)
	}
	e.step++
	if err := e.endStep(); err != nil {
		return err
	}
	for _, h := range e.hooks {
		if err := h(e); err != nil {
			return fmt.Errorf("sim: hook at step %d: %w", e.step, err)
		}
	}
	return nil
}

// endStep folds the completed step's tallies into the pending tally,
// publishing it once the pending work reaches obs.PublishEvery, and, if a
// tracer is attached, records the step sample. The hot path pays a few plain
// adds plus one allocation-free ring write, independent of n.
func (e *Engine) endStep() error {
	if e.wr != nil {
		e.tally.WordSteps++
	}
	if e.tally.Add(e.stepAct, e.stepEval, e.stepChg) {
		e.publish()
	}
	if e.tracer != nil {
		s := obs.Sample{
			Step:        int64(e.step),
			Round:       int64(e.tracker.Rounds()),
			Activated:   int64(e.stepAct),
			Evaluated:   int64(e.stepEval),
			Changes:     int64(e.stepChg),
			Frontier:    int64(e.FrontierLen()),
			Violations:  -1,
			ClockSpread: -1,
		}
		if err := e.tracer.Observe(s); err != nil {
			return fmt.Errorf("sim: trace at step %d: %w", e.step, err)
		}
	}
	return nil
}

// publish drains the rng draw counters (the classic stream plus every
// sharded worker stream, O(P)) into the pending tally and folds the tally
// into the metric set. It runs between steps: at every return of the run
// loops, around fault injection, before a snapshot, on Close and in the
// Metrics accessor, so the set is exact wherever it is read — and mid-run
// whenever the pending work reaches obs.PublishEvery.
func (e *Engine) publish() {
	if e.coin != nil {
		e.tally.CoinDraws += e.coin.Take()
	}
	if e.par != nil {
		for _, c := range e.par.coins {
			e.tally.CoinDraws += c.Take()
		}
	}
	e.tally.Publish(e.mx, e.tracker.Rounds(), e.FrontierLen())
}

// Metrics publishes the pending counters and returns the engine's metric set
// (never nil). Options.Metrics states when the set is exact without it.
func (e *Engine) Metrics() *obs.Metrics {
	e.publish()
	return e.mx
}

// Tracer returns the attached step tracer, or nil.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// stepFrontier is the frontier-sparse step body: the scheduler's activation
// set is intersected with the dirty frontier — via the scheduler's
// SparseActivator fast path when it has one, by scanning the activation
// list otherwise — and only the surviving nodes are evaluated. Settled
// activated nodes are skipped wholesale; round tracking still counts the
// full A_t, summarized in O(1) when the sparse path reports it as V or
// V \ {v} instead of a list.
func (e *Engine) stepFrontier() {
	fr := e.fr
	n := e.g.N()
	// The frontier occupancy before any of this step's settle-clears: the
	// word path certifies its goodness plane only when the step evaluated
	// the entire frontier (settled nodes' plane bits are valid by the
	// settled invariant; unevaluated frontier nodes' are not).
	frBefore := fr.set.Len()
	var eval []int
	fr.lastFull, fr.lastAllBut = false, -1
	if sp, ok := e.sched.(sched.SparseActivator); ok {
		raw, cov := sp.SparseActivations(e.step, n, fr.set)
		eval = canonActivations(raw, &e.actBuf)
		switch {
		case cov.Full:
			e.tracker.ObserveFull()
			fr.lastFull = true
			e.lastActivated = nil
			e.stepAct = n
		case cov.AllBut >= 0:
			e.tracker.ObserveAllBut(cov.AllBut)
			fr.lastAllBut = cov.AllBut
			e.lastActivated = nil
			e.stepAct = n - 1
		default:
			e.tracker.Observe(cov.List)
			e.lastActivated = cov.List
			e.stepAct = len(cov.List)
		}
	} else {
		activated := canonActivations(e.sched.Activations(e.step, n), &e.actBuf)
		buf := fr.evalBuf[:0]
		for _, v := range activated {
			if fr.set.Contains(v) {
				buf = append(buf, v)
			}
		}
		fr.evalBuf = buf
		eval = buf
		e.tracker.Observe(activated)
		e.lastActivated = activated
		e.stepAct = len(activated)
	}
	e.stepEval = len(eval)
	switch {
	case e.wr != nil && e.par != nil:
		e.stepShardedWord(eval, frBefore)
	case e.wr != nil:
		e.stepSequentialFrontierWord(eval, frBefore)
	case e.par != nil:
		e.stepShardedFrontier(eval)
	default:
		e.stepSequentialFrontier(eval)
	}
}

// stepSequentialFrontier stages the evaluation set's new states against C_t
// (settle-certifying no-op nodes on the way), then applies the changes in
// ascending node order, invalidating each changed node's neighborhood.
func (e *Engine) stepSequentialFrontier(eval []int) {
	fr := e.fr
	e.scratch = e.scratch[:0]
	var settles uint64
	for _, v := range eval {
		e.SignalOf(v, &e.signal)
		q, settled := fr.evalNode(e, v, &e.signal, e.rng)
		e.scratch = append(e.scratch, q)
		if settled {
			// Clears happen strictly before the apply loop's invalidation
			// sets, so a neighbor changing in this same step re-dirties v.
			fr.set.Remove(v)
			settles++
		}
	}
	e.tally.Settled += settles
	for i, v := range eval {
		q := e.scratch[i]
		if q == e.cfg[v] {
			continue
		}
		e.cfg[v] = q
		e.stepChg++
		fr.invalidate(e.g, v)
		if e.obs != nil {
			e.obs.Apply(v, q)
		}
	}
}

// stepShardedFrontier is stepSharded over the evaluation set: staging
// settle-clears own-shard bits, the interior merge invalidates own-shard
// neighborhoods concurrently, and boundary updates invalidate cross-shard
// through the coordinator.
func (e *Engine) stepShardedFrontier(eval []int) {
	pr := e.par
	fr := e.fr
	p := pr.part.P()

	if len(eval) == e.g.N() {
		// Every node is dirty and activated (the first steps of a run):
		// the canonical full set buckets into the partition's contiguous
		// ranges — alias them instead of copying.
		for s := 0; s < p; s++ {
			lo, hi := pr.part.Range(s)
			pr.acts[s] = eval[lo:hi]
		}
	} else {
		for s := 0; s < p; s++ {
			pr.actBufs[s] = pr.actBufs[s][:0]
		}
		for _, v := range eval {
			s := pr.part.ShardOf(v)
			pr.actBufs[s] = append(pr.actBufs[s], v)
		}
		copy(pr.acts, pr.actBufs)
	}

	pr.pool.Run(pr.stage)
	e.sumSettles()

	if e.obs != nil && pr.shObs == nil {
		// Order-sensitive observer: sequential canonical merge (shards
		// ascend and buckets ascend within shards).
		for s := 0; s < p; s++ {
			for i, v := range pr.acts[s] {
				if q := pr.res[s][i]; q != e.cfg[v] {
					e.cfg[v] = q
					e.stepChg++
					fr.invalidate(e.g, v)
					e.obs.Apply(v, q)
				}
			}
		}
		return
	}

	pr.pool.Run(pr.applyInterior)
	e.sumInteriorChanges()
	var boundary uint64
	for s := 0; s < p; s++ {
		for i, v := range pr.acts[s] {
			if pr.part.Interior(v) {
				continue
			}
			if q := pr.res[s][i]; q != e.cfg[v] {
				e.cfg[v] = q
				e.stepChg++
				boundary++
				fr.invalidate(e.g, v)
				if e.obs != nil {
					e.obs.Apply(v, q)
				}
			}
		}
	}
	e.tally.BoundaryApplies += boundary
}

// sumSettles folds the per-shard settle tallies written by the stage phase
// into the pending Settled count (O(P)).
func (e *Engine) sumSettles() {
	for _, n := range e.par.stl {
		e.tally.Settled += n
	}
}

// sumInteriorChanges folds the per-shard change tallies written by the
// applyInterior phase into the step's change count (O(P)).
func (e *Engine) sumInteriorChanges() {
	var chg uint64
	for _, n := range e.par.chg {
		chg += n
	}
	e.stepChg += int(chg)
}

// canonActivations returns the activation set in canonical form: strictly
// ascending node order, each node at most once. The built-in schedulers
// already emit canonical sets and pass through untouched; scripted or
// custom schedulers with unsorted or duplicated lists are copied, sorted
// and deduplicated into buf. The ConfigObserver ordering contract and the
// sharded engines' deterministic merge are both anchored on this
// canonicalization (the engine previously applied updates in raw
// activation-list order, leaking scheduler quirks — duplicate activations
// double-applied a node's transition — into observer deliveries).
func canonActivations(activated []int, buf *[]int) []int {
	canonical := true
	for i := 1; i < len(activated); i++ {
		if activated[i] <= activated[i-1] {
			canonical = false
			break
		}
	}
	if canonical {
		return activated
	}
	b := append((*buf)[:0], activated...)
	sort.Ints(b)
	k := 0
	for _, v := range b {
		if k == 0 || v != b[k-1] {
			b[k] = v
			k++
		}
	}
	*buf = b[:k]
	return *buf
}

// stepSequential is the classic single-threaded step body: stage the
// activation set's new states against C_t, then apply them in ascending
// node order, feeding the observer.
func (e *Engine) stepSequential(activated []int) {
	e.scratch = e.scratch[:0]
	for _, v := range activated {
		e.SignalOf(v, &e.signal)
		e.scratch = append(e.scratch, e.alg.Transition(e.cfg[v], e.signal, e.rng))
	}
	for i, v := range activated {
		q := e.scratch[i]
		if q == e.cfg[v] {
			continue
		}
		e.cfg[v] = q
		e.stepChg++
		if e.obs != nil {
			e.obs.Apply(v, q)
		}
	}
}

// stepSharded is the sharded step body: bucket the activation set by owner
// shard, stage every shard's new states concurrently against the immutable
// C_t (coin tosses from per-(step, node) streams, so the result is
// independent of worker count and interleaving), then merge.
//
// The merge applies interior-node updates concurrently — an interior node's
// whole neighborhood lives in its owner shard, so those writes (and a
// ShardedObserver's counters) never race — and routes boundary-node updates
// through the coordinator. With a plain order-sensitive observer the whole
// merge runs on the coordinator in canonical ascending node order instead.
func (e *Engine) stepSharded(activated []int) {
	pr := e.par
	p := pr.part.P()

	if len(activated) == e.g.N() {
		// Synchronous step: the canonical full set buckets into the
		// partition's contiguous ranges — alias them instead of copying.
		for s := 0; s < p; s++ {
			lo, hi := pr.part.Range(s)
			pr.acts[s] = activated[lo:hi]
		}
	} else {
		for s := 0; s < p; s++ {
			pr.actBufs[s] = pr.actBufs[s][:0]
		}
		for _, v := range activated {
			s := pr.part.ShardOf(v)
			pr.actBufs[s] = append(pr.actBufs[s], v)
		}
		copy(pr.acts, pr.actBufs)
	}

	pr.pool.Run(pr.stage)

	if e.obs != nil && pr.shObs == nil {
		// Order-sensitive observer: sequential canonical merge. Shards
		// ascend and buckets ascend within shards, so this is ascending
		// node order.
		for s := 0; s < p; s++ {
			for i, v := range pr.acts[s] {
				if q := pr.res[s][i]; q != e.cfg[v] {
					e.cfg[v] = q
					e.stepChg++
					e.obs.Apply(v, q)
				}
			}
		}
		return
	}

	pr.pool.Run(pr.applyInterior)
	e.sumInteriorChanges()
	var boundary uint64
	for s := 0; s < p; s++ {
		for i, v := range pr.acts[s] {
			if pr.part.Interior(v) {
				continue
			}
			if q := pr.res[s][i]; q != e.cfg[v] {
				e.cfg[v] = q
				e.stepChg++
				boundary++
				if e.obs != nil {
					e.obs.Apply(v, q)
				}
			}
		}
	}
	e.tally.BoundaryApplies += boundary
}

// SignalOf computes the signal of node v under the current configuration
// into sig (which is reset first).
func (e *Engine) SignalOf(v int, sig *sa.Signal) {
	sig.Reset()
	sig.Set(e.cfg[v])
	for _, u := range e.g.Neighbors(v) {
		sig.Set(e.cfg[u])
	}
}

// Step returns the number of steps executed so far (the current time t).
func (e *Engine) StepCount() int { return e.step }

// Rounds returns the number of completed rounds R(i) <= current time.
func (e *Engine) Rounds() int { return e.tracker.Rounds() }

// RoundBoundary returns R(i) in steps. Only the most recent boundaries are
// retained (see sched.RoundTracker.Boundary).
func (e *Engine) RoundBoundary(i int) int { return e.tracker.Boundary(i) }

// LastActivated returns the activation set of the most recent step. On a
// frontier engine whose scheduler summarized A_t instead of materializing
// it, the set is materialized lazily here — the O(n) cost is paid only by
// callers that actually inspect it.
func (e *Engine) LastActivated() []int {
	if e.fr != nil && (e.fr.lastFull || e.fr.lastAllBut >= 0) {
		buf := e.fr.lastBuf[:0]
		for v := 0; v < e.g.N(); v++ {
			if v == e.fr.lastAllBut {
				continue
			}
			buf = append(buf, v)
		}
		e.fr.lastBuf = buf
		return buf
	}
	return e.lastActivated
}

// FrontierLen returns the number of unsettled nodes of a frontier-sparse
// engine, or -1 when frontier mode is inactive (Options.Frontier unset, or
// an algorithm without the sa.SelfLooper capability).
func (e *Engine) FrontierLen() int {
	if e.fr == nil {
		return -1
	}
	return e.fr.set.Len()
}

// WordActive reports whether the engine executes on the word-parallel kernel
// path (Options.WordParallel set and the algorithm offered a kernel).
func (e *Engine) WordActive() bool { return e.wr != nil }

// Planes materializes the bit-plane view of the current configuration: a
// fresh sa.Planes packed from C_t. It is a checkpoint/inspection interchange
// format (O(n·⌈log2|Q|⌉/64) to build), not a live view — the engine's hot
// word state is the one-hot self-word array derived from it at construction.
func (e *Engine) Planes() *sa.Planes {
	p := sa.NewPlanes(e.g.N(), e.alg.NumStates())
	p.Pack(e.cfg)
	return p
}

// RunRounds executes steps until the given number of additional rounds have
// completed.
func (e *Engine) RunRounds(rounds int) error {
	defer e.publish()
	target := e.tracker.Rounds() + rounds
	for e.tracker.Rounds() < target {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil executes steps until cond holds (checked after every step) or
// maxRounds rounds elapse, returning the number of rounds consumed. If the
// budget is exhausted it returns ErrBudgetExhausted.
func (e *Engine) RunUntil(cond func(e *Engine) bool, maxRounds int) (int, error) {
	defer e.publish()
	start := e.tracker.Rounds()
	if cond(e) {
		return 0, nil
	}
	for e.tracker.Rounds()-start < maxRounds {
		if err := e.Step(); err != nil {
			return e.tracker.Rounds() - start, err
		}
		if cond(e) {
			return e.tracker.Rounds() - start, nil
		}
	}
	e.mx.BudgetExhausted.Add(1)
	return e.tracker.Rounds() - start, ErrBudgetExhausted
}

// StabilizationResult reports the outcome of RunToStabilization.
type StabilizationResult struct {
	// Rounds is the number of rounds until the stability condition first
	// held (the paper's stabilization time), counted from the call. On
	// error paths it reports the rounds actually consumed by the call.
	Rounds int
	// Steps is the corresponding number of scheduler steps, counted from
	// the call. On error paths it reports the steps actually consumed.
	Steps int
}

// RunToStabilization runs until cond holds and then verifies that it keeps
// holding for confirmRounds further rounds (self-stabilization demands
// closure, not just a lucky snapshot). If the condition is violated during
// confirmation the search resumes. Returns the stabilization round count.
// Every path — success, step error, budget exhaustion — reports the actual
// progress made; the round budget never goes negative across a failed
// confirmation.
func (e *Engine) RunToStabilization(cond func(e *Engine) bool, confirmRounds, maxRounds int) (StabilizationResult, error) {
	defer e.publish()
	start := e.tracker.Rounds()
	startSteps := e.step
	progress := func() StabilizationResult {
		return StabilizationResult{Rounds: e.tracker.Rounds() - start, Steps: e.step - startSteps}
	}
	for {
		remaining := maxRounds - (e.tracker.Rounds() - start)
		if remaining < 0 {
			remaining = 0 // confirmation steps may have consumed rounds past the budget
		}
		if _, err := e.RunUntil(cond, remaining); err != nil {
			return progress(), err
		}
		hitRounds := e.tracker.Rounds()
		hitSteps := e.step
		ok := true
		for e.tracker.Rounds()-hitRounds < confirmRounds {
			if err := e.Step(); err != nil {
				return progress(), err
			}
			if !cond(e) {
				ok = false
				break
			}
		}
		if ok {
			return StabilizationResult{Rounds: hitRounds - start, Steps: hitSteps - startSteps}, nil
		}
	}
}
