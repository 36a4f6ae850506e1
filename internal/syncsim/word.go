package syncsim

import (
	"fmt"

	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sa"
)

// WordEngine is the word-parallel synchronous driver: for a kernel-backed
// algorithm (sa.WordKernel with a one-word state space) a round is one
// batched pass — a CSR OR-scan building every node's one-word signal
// followed by a single WordEval.EvalGood call — instead of n scalar
// sense/step invocations. The kernel contract (deterministic, coin-free)
// makes the trajectory byte-identical to the scalar Engine running the same
// algorithm's Transition under the synchronous schedule, which the
// differential tests enforce.
//
// The fused goodness plane doubles as the stabilization verdict: after a
// Round — which always evaluates every node — AllGood() reads the
// whole-graph legitimacy predicate by word scan, no per-node oracle pass.
type WordEngine struct {
	g         *graph.Graph
	kern      sa.WordEval
	offsets   []int
	neighbors []int
	cfg       sa.Config
	next      sa.Config
	self      []uint64
	sws       []uint64
	good      []uint64
	round     int
	changed   []int
	mx        *obs.Metrics
	tally     obs.Tally // per-round counters pending publication into mx
}

// NewWord returns a word-parallel synchronous engine for alg, which must
// offer a word kernel (it returns an error otherwise — unlike the
// asynchronous engines there is no scalar body here to fall back to; use
// syncsim.New for kernel-less programs).
func NewWord(g *graph.Graph, alg sa.Algorithm, initial sa.Config) (*WordEngine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(initial) != g.N() {
		return nil, fmt.Errorf("syncsim: %d initial states for %d nodes", len(initial), g.N())
	}
	wk, ok := alg.(sa.WordKernel)
	if !ok {
		return nil, fmt.Errorf("syncsim: %T offers no word kernel", alg)
	}
	kern := wk.Kernel()
	if kern == nil {
		return nil, fmt.Errorf("syncsim: %T kernel unavailable (state space exceeds one word)", alg)
	}
	n := g.N()
	e := &WordEngine{
		g:    g,
		kern: kern,
		cfg:  initial.Clone(),
		next: make(sa.Config, n),
		self: make([]uint64, n),
		sws:  make([]uint64, n),
		good: make([]uint64, sa.PlaneWords(n)),
		mx:   &obs.Metrics{},
	}
	e.offsets, e.neighbors = g.CSR()
	planes := sa.NewPlanes(n, alg.NumStates())
	planes.Pack(e.cfg)
	planes.SelfWords(e.self)
	return e, nil
}

// Instrument redirects the engine's counters into mx (call before the first
// Round).
func (e *WordEngine) Instrument(mx *obs.Metrics) { e.mx = mx }

// Metrics publishes the pending counters and returns the engine's metric set
// (never nil).
func (e *WordEngine) Metrics() *obs.Metrics {
	e.tally.Publish(e.mx, e.round, -1)
	return e.mx
}

// Round executes one synchronous round as a single batched evaluation. The
// steady-state loop performs no allocation.
func (e *WordEngine) Round() {
	n := e.g.N()
	sa.BuildSignals(e.self, e.offsets, e.neighbors, 0, n, e.sws)
	e.kern.EvalGood(e.cfg, e.sws, e.next, e.good)
	e.changed = e.changed[:0]
	for v, q := range e.next {
		if q != e.cfg[v] {
			e.cfg[v] = q
			e.self[v] = 1 << uint(q)
			e.changed = append(e.changed, v)
		}
	}
	e.round++
	e.tally.WordSteps++
	if e.tally.Add(n, n, len(e.changed)) {
		e.tally.Publish(e.mx, e.round, -1)
	}
}

// AllGood reports whether every node satisfied the algorithm's local
// legitimacy predicate at the last Round's evaluation point — the graph-good
// verdict by word scan. It is false before the first Round.
func (e *WordEngine) AllGood() bool {
	if e.round == 0 {
		return false
	}
	for _, w := range e.good {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// Rounds returns the number of rounds executed.
func (e *WordEngine) Rounds() int { return e.round }

// Changed returns the nodes whose state changed in the most recent Round
// (engine-owned, valid until the next Round).
func (e *WordEngine) Changed() []int { return e.changed }

// State returns the current state of node v.
func (e *WordEngine) State(v int) sa.State { return e.cfg[v] }

// Config returns a copy of the current configuration.
func (e *WordEngine) Config() sa.Config { return e.cfg.Clone() }

// SetState overwrites the state of node v (transient fault injection).
func (e *WordEngine) SetState(v int, q sa.State) {
	e.cfg[v] = q
	e.self[v] = 1 << uint(q)
}
