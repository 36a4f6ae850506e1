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
// Every step, in every execution mode, is one pipeline of three phases.
// Select draws A_t, feeds round tracking and returns the evaluation list
// (A_t, or A_t ∩ frontier). Stage evaluates δ for an ascending node list
// within one node range against the immutable C_t into node-indexed scratch:
// once over [0, n) on the engine's rng, or once per shard on a worker pool.
// Apply writes the staged states through one helper that keeps the derived
// word and frontier state current, delivering each change to the observer.
// The modes below are parameters of these phases; the dense scalar inline
// case is the reference the mode differentials compare against.
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
// Algorithms whose state space fits in a machine word go word-parallel:
// Options.WordParallel swaps stage's per-node signal and δ for a batch
// kernel over one-word signals, whose goodness bit-plane certifies
// stabilized steps — see word.go.
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
	g      *graph.Graph
	alg    sa.Algorithm
	sched  sched.Scheduler
	sparse sched.SparseActivator // sched, when it offers the frontier fast path
	rng    *rand.Rand

	cfg     sa.Config
	scratch sa.Config // staged next states, node-indexed: a stage over [lo, hi) fills scratch[lo:]
	lane    lane      // the inline engine's staging lane, over rng
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
	// step phases and folded into tally (and the tracer sample) once per step.
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

// lane is the scratch of one staging goroutine: a signal buffer, a coin-toss
// stream and the tallies of its last phase. The inline engine stages on one
// lane over the engine's rng; a sharded engine gives each pool worker a lane
// whose stream is reseeded per (step, node).
//
// A worker's tallies are written only by that worker during a pool phase and
// summed by the coordinator after it — the pool's channel handoffs order the
// accesses — so counter aggregation costs O(P) adds per step, not per-node
// atomics.
type lane struct {
	sig  sa.Signal
	rng  *rand.Rand
	seq  *randx.Seq      // rng's reseedable source; nil on the inline lane
	coin *randx.Counting // draw counter between seq and rng; nil on the inline lane

	settles uint64 // nodes the last stage settle-cleared
	changes int    // interior changes the last applyInterior wrote
}

// parRuntime holds the sharded-execution state of an engine: the partition,
// the persistent worker pool, per-shard staging views and one lane per
// worker. See Options.Parallelism.
type parRuntime struct {
	part *shard.Partition
	pool *shard.Pool

	acts  [][]int      // per-shard views of the step's evaluation list
	res   [][]sa.State // per-shard staged next states, aligned with acts
	lanes []lane       // per-worker staging lanes

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
		scratch: make(sa.Config, g.N()),
		lane:    lane{sig: sa.NewSignal(alg.NumStates()), rng: rng},
		tracker: sched.NewRoundTracker(g.N()),
		mx:      opts.Metrics,
		tracer:  opts.Trace,
		coin:    coin,
		seed:    opts.Seed,
	}
	if e.mx == nil {
		e.mx = &obs.Metrics{}
	}
	e.sparse, _ = s.(sched.SparseActivator)
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
			part:  part,
			pool:  shard.NewPool(p),
			acts:  make([][]int, p),
			res:   make([][]sa.State, p),
			lanes: make([]lane, p),
		}
		for i := range pr.lanes {
			ln := &pr.lanes[i]
			ln.sig = sa.NewSignal(alg.NumStates())
			ln.seq = &randx.Seq{}
			ln.coin = randx.NewCounting(ln.seq)
			ln.rng = rand.New(ln.coin)
		}
		// The worker bodies read e.step, the partition and the staged
		// buffers directly; all are written only by the coordinator between
		// pool phases, and the pool's channel handoffs order those writes.
		pr.stage = func(s int) {
			lo, hi := pr.part.Range(s)
			pr.res[s] = e.stage(&pr.lanes[s], pr.acts[s], s, lo, hi)
		}
		pr.applyInterior = func(s int) {
			pr.lanes[s].changes = e.applyList(pr.acts[s], pr.res[s], pr.part, true)
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

// invalidate re-dirties node v and its neighbors on a frontier engine: v's
// state or adjacency changed, so the settled certificates of everything
// sensing v are void.
func (e *Engine) invalidate(v int) {
	set := e.fr.set
	set.Add(v)
	for _, u := range e.g.Neighbors(v) {
		set.Add(u)
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
	e.write(v, q)
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
		q := e.rng.Intn(e.alg.NumStates())
		e.write(v, q)
		if e.obs != nil {
			e.obs.Apply(v, q)
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
	list := e.selectEval()
	want := 0
	if e.wr != nil {
		want = e.certifiableLen() // before stage's settle-clears
	}
	var res []sa.State
	if e.par != nil {
		e.stageSharded(list)
	} else {
		res = e.stage(&e.lane, list, 0, 0, e.g.N())
		e.tally.Settled += e.lane.settles
	}
	if wr := e.wr; wr != nil {
		// The plane certifies only a step that refreshed every drifted bit.
		wr.certified = len(list) == want && wr.slabsAllOnes()
	}
	switch {
	case e.par != nil:
		e.applySharded()
	case e.wr != nil && e.wr.certified && e.wBatch != nil:
		e.applyBatch(list, res)
	default:
		// The inline apply: ascending node order, one delivery per change.
		// It is applyList without the shard filter, written out because the
		// call is a measurable share of a one-node step.
		for i, v := range list {
			if q := res[i]; q != e.cfg[v] {
				e.write(v, q)
				e.stepChg++
				if e.obs != nil {
					e.obs.Apply(v, q)
				}
			}
		}
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
		for i := range e.par.lanes {
			e.tally.CoinDraws += e.par.lanes[i].coin.Take()
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

// selectEval is the select phase of a step. It draws A_t from the scheduler,
// feeds it to round tracking and LastActivated, and returns the evaluation
// list in canonical order: A_t itself on a dense engine, A_t ∩ frontier on a
// frontier engine — via the scheduler's SparseActivator fast path when it has
// one (a full A_t summarized as V or V \ {v} is tracked in O(1)), by
// scanning A_t otherwise.
func (e *Engine) selectEval() []int {
	fr := e.fr
	n := e.g.N()
	if fr != nil {
		fr.lastFull, fr.lastAllBut = false, -1
		if e.sparse != nil {
			raw, cov := e.sparse.SparseActivations(e.step, n, fr.set)
			list := canonActivations(raw, &e.actBuf)
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
			e.stepEval = len(list)
			return list
		}
	}
	activated := canonActivations(e.sched.Activations(e.step, n), &e.actBuf)
	e.tracker.Observe(activated)
	e.lastActivated = activated
	e.stepAct = len(activated)
	list := activated
	if fr != nil {
		list = fr.evalBuf[:0]
		for _, v := range activated {
			if fr.set.Contains(v) {
				list = append(list, v)
			}
		}
		fr.evalBuf = list
	}
	e.stepEval = len(list)
	return list
}

// certifiableLen is, on a word engine, the evaluation-list length at which a
// step refreshes the goodness bit of every node whose signal may have
// drifted: n when dense, the frontier occupancy before any of the step's
// settle-clears when frontier-sparse (settled nodes' bits are valid by the
// settled invariant; unevaluated frontier nodes' are not).
func (e *Engine) certifiableLen() int {
	if e.fr != nil {
		return e.fr.set.Len()
	}
	return e.g.N()
}

// stage is the stage phase of a step for list — ascending nodes, all inside
// [lo, hi) — on lane ln. It evaluates δ for every listed node against the
// immutable C_t and returns the next states, staged in the node-indexed
// scratch at [lo, lo+len(list)); ln.settles counts the nodes it
// settle-cleared from the frontier. The inline engine stages [0, n) on its
// own lane; each pool worker stages its shard s on its lane, reseeding the
// stream per (step, node) so the coin tosses do not depend on execution
// order.
//
// The word path evaluates on the kernel (wordRuntime.eval), where a next
// state equal to the current one is the settled certificate. The scalar path
// builds each signal and runs δ, fused with the certificate on a frontier
// engine. Settle-clears touch only the node's own bit and precede every
// invalidation of the apply phase, so a neighbor changing in this same step
// re-dirties the node.
func (e *Engine) stage(ln *lane, list []int, s, lo, hi int) []sa.State {
	k := len(list)
	res := e.scratch[lo : lo+k]
	fr := e.fr
	var settles uint64
	if e.wr != nil {
		cur := e.wr.eval(e, list, s, lo, hi, res)
		if fr != nil {
			for i, v := range list {
				if res[i] == cur[i] {
					fr.set.Remove(v)
					settles++
				}
			}
		}
		ln.settles = settles
		return res
	}
	for i, v := range list {
		if ln.seq != nil {
			ln.seq.Reseed(randx.NodeSeed(e.seed, e.step, v))
		}
		e.SignalOf(v, &ln.sig)
		if fr == nil {
			res[i] = e.alg.Transition(e.cfg[v], ln.sig, ln.rng)
			continue
		}
		q, settled := fr.evalNode(e, v, &ln.sig, ln.rng)
		res[i] = q
		if settled {
			fr.set.Remove(v)
			settles++
		}
	}
	ln.settles = settles
	return res
}

// stageSharded splits the ascending list into per-shard views — shards are
// contiguous node ranges, so each view is a subslice — and stages every
// shard on the worker pool.
func (e *Engine) stageSharded(list []int) {
	pr := e.par
	for s := range pr.acts {
		_, hi := pr.part.Range(s)
		k := sort.SearchInts(list, hi)
		pr.acts[s], list = list[:k], list[k:]
	}
	pr.pool.Run(pr.stage)
	for i := range pr.lanes {
		e.tally.Settled += pr.lanes[i].settles
	}
}

// write sets node v to state q and keeps the derived state current: the
// word runtime's self-word, and the frontier, where v's neighborhood must be
// re-evaluated. Delivery to the observer is the caller's.
func (e *Engine) write(v int, q sa.State) {
	e.cfg[v] = q
	if e.wr != nil {
		e.wr.self[v] = 1 << uint(q)
	}
	if e.fr != nil {
		e.invalidate(v)
	}
}

// applyList writes the staged states res of list in list order, skipping
// unchanged nodes and — when part is non-nil — nodes whose interior status
// differs from interior, and delivers every change to the observer. It
// returns the number of changes. Concurrent interior calls are safe: they
// run only when the observer, if any, is a ShardedObserver.
func (e *Engine) applyList(list []int, res []sa.State, part *shard.Partition, interior bool) int {
	changes := 0
	for i, v := range list {
		if part != nil && part.Interior(v) != interior {
			continue
		}
		q := res[i]
		if q == e.cfg[v] {
			continue
		}
		e.write(v, q)
		changes++
		if e.obs != nil {
			e.obs.Apply(v, q)
		}
	}
	return changes
}

// applyBatch is the apply phase of a certified inline word step with a
// WordBatchObserver: the changes reach the observer in one batch instead of
// one node at a time.
func (e *Engine) applyBatch(list []int, res []sa.State) {
	wr := e.wr
	chg := wr.chg[:0]
	for i, v := range list {
		if q := res[i]; q != e.cfg[v] {
			e.write(v, q)
			chg = append(chg, v)
		}
	}
	wr.chg = chg
	e.stepChg += len(chg)
	e.wBatch.ApplyWordBatch(chg, e.cfg)
}

// applySharded is the apply phase of a sharded engine. With a plain
// order-sensitive observer the whole merge runs on the coordinator: shards
// ascend and their views ascend, so delivery is in ascending node order.
// Otherwise interior nodes — whose whole neighborhood lives in their owner
// shard, so neither their writes nor a ShardedObserver's counters race — are
// merged concurrently, and boundary nodes through the coordinator.
func (e *Engine) applySharded() {
	pr := e.par
	if e.obs != nil && pr.shObs == nil {
		for s, acts := range pr.acts {
			e.stepChg += e.applyList(acts, pr.res[s], nil, false)
		}
		return
	}
	pr.pool.Run(pr.applyInterior)
	boundary := 0
	for s, acts := range pr.acts {
		e.stepChg += pr.lanes[s].changes
		boundary += e.applyList(acts, pr.res[s], pr.part, false)
	}
	e.stepChg += boundary
	e.tally.BoundaryApplies += uint64(boundary)
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

// SignalOf computes the signal of node v under the current configuration
// into sig (which is reset first).
func (e *Engine) SignalOf(v int, sig *sa.Signal) {
	sig.Reset()
	sig.Set(e.cfg[v])
	for _, u := range e.g.Neighbors(v) {
		sig.Set(e.cfg[u])
	}
}

// StepCount returns the number of steps executed so far (the current time t).
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
