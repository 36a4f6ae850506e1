package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// shardedSchedulers returns fresh scheduler instances per call (schedulers
// are stateful), each built from the same seed so two engines see identical
// activation streams.
func shardedSchedulers(seed int64) map[string]func() sched.Scheduler {
	return map[string]func() sched.Scheduler{
		"synchronous":   func() sched.Scheduler { return sched.NewSynchronous() },
		"round-robin":   func() sched.Scheduler { return sched.NewRoundRobin() },
		"random-subset": func() sched.Scheduler { return sched.NewRandomSubset(0.4, 8, rand.New(rand.NewSource(seed))) },
		"laggard":       func() sched.Scheduler { return sched.NewLaggard(1, 3) },
		"permuted":      func() sched.Scheduler { return sched.NewPermuted(rand.New(rand.NewSource(seed))) },
	}
}

func shardedTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	gs := map[string]*graph.Graph{}
	var err error
	if gs["cycle"], err = graph.Cycle(40); err != nil {
		t.Fatal(err)
	}
	if gs["star"], err = graph.Star(33); err != nil {
		t.Fatal(err)
	}
	if gs["grid"], err = graph.Grid(6, 6); err != nil {
		t.Fatal(err)
	}
	if gs["boundedD"], err = graph.BoundedDiameter(80, 3, rng); err != nil {
		t.Fatal(err)
	}
	return gs
}

// TestShardedAUMatchesSequential is the engine-level differential harness
// for AlgAU: for every graph family and scheduler, a sharded engine at P ∈
// {1, 2, 3, 8} must track the classic sequential engine configuration-for-
// configuration through steps and fault bursts (AlgAU ignores rng, so even
// classic and sharded modes coincide byte-for-byte).
func TestShardedAUMatchesSequential(t *testing.T) {
	const seed = 42
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for gname, g := range shardedTestGraphs(t) {
		for sname, mk := range shardedSchedulers(seed) {
			ref, err := sim.New(g, au, sim.Options{Scheduler: mk(), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			engines := []*sim.Engine{ref}
			for _, p := range []int{1, 2, 3, 8} {
				e, err := sim.New(g, au, sim.Options{Scheduler: mk(), Seed: seed, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				engines = append(engines, e)
			}
			steps := 6 * g.N()
			for i := 0; i < steps; i++ {
				if i == steps/2 {
					for _, e := range engines {
						e.InjectFaults(5)
					}
				}
				for _, e := range engines {
					if err := e.Step(); err != nil {
						t.Fatalf("%s/%s: step %d: %v", gname, sname, i, err)
					}
				}
				for j, e := range engines[1:] {
					if !ref.Config().Equal(e.Config()) {
						t.Fatalf("%s/%s: step %d: P=%d diverged from sequential", gname, sname, i, []int{1, 2, 3, 8}[j])
					}
					if ref.Rounds() != e.Rounds() || ref.StepCount() != e.StepCount() {
						t.Fatalf("%s/%s: step %d: round/step counts diverged", gname, sname, i)
					}
				}
			}
		}
	}
}

// randomizedAlg is a test algorithm that draws from rng on every transition,
// so it exposes any execution-order dependence of the sharded coin-toss
// streams: nodes flip between two states based on a coin and their signal.
type randomizedAlg struct{}

func (randomizedAlg) NumStates() int           { return 4 }
func (randomizedAlg) IsOutput(q sa.State) bool { return true }
func (randomizedAlg) Output(q sa.State) int    { return q }
func (randomizedAlg) Transition(q sa.State, sig sa.Signal, rng *rand.Rand) sa.State {
	next := rng.Intn(4)
	if sig.Has(next) && rng.Intn(2) == 0 {
		next = (next + 1) % 4
	}
	return next
}

// TestShardedRandomizedByteIdentical pins the tentpole determinism claim on
// an rng-hungry algorithm: equal seeds give byte-identical configurations at
// every worker count P >= 1 (execution order and worker interleaving must
// not leak into results).
func TestShardedRandomizedByteIdentical(t *testing.T) {
	const seed = 99
	alg := randomizedAlg{}
	for gname, g := range shardedTestGraphs(t) {
		for sname, mk := range shardedSchedulers(seed) {
			ref, err := sim.New(g, alg, sim.Options{Scheduler: mk(), Seed: seed, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			engines := []*sim.Engine{}
			ps := []int{2, 3, 8}
			for _, p := range ps {
				e, err := sim.New(g, alg, sim.Options{Scheduler: mk(), Seed: seed, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				engines = append(engines, e)
			}
			for i := 0; i < 3*g.N(); i++ {
				if i == g.N() {
					ref.InjectFaults(7)
					for _, e := range engines {
						e.InjectFaults(7)
					}
				}
				if err := ref.Step(); err != nil {
					t.Fatal(err)
				}
				for j, e := range engines {
					if err := e.Step(); err != nil {
						t.Fatal(err)
					}
					if !ref.Config().Equal(e.Config()) {
						t.Fatalf("%s/%s: step %d: P=%d diverged from P=1", gname, sname, i, ps[j])
					}
				}
			}
		}
	}
}

// TestShardedGoodMonitorParity checks the per-shard violation-counter
// combine: on a sharded engine with concurrent interior delivery, the
// monitor's O(P) verdict must agree with the oracle GraphGood rescan after
// every step and fault burst.
func TestShardedGoodMonitorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := graph.BoundedDiameter(120, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 8} {
		eng, err := sim.New(g, au, sim.Options{Seed: 21, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		mon := core.NewGoodMonitor(au, g, eng.Config())
		eng.Observe(mon)
		for i := 0; i < 300; i++ {
			if i%97 == 31 {
				eng.InjectFaults(9)
			}
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			if got, want := mon.Good(), au.GraphGood(g, eng.Config()); got != want {
				t.Fatalf("P=%d step %d: monitor Good() = %v, GraphGood = %v", p, i, got, want)
			}
			bad := 0
			for v := 0; v < g.N(); v++ {
				if !au.NodeGood(g, eng.Config(), v) {
					bad++
				}
			}
			if mon.BadNodes() != bad {
				t.Fatalf("P=%d step %d: BadNodes() = %d, want %d", p, i, mon.BadNodes(), bad)
			}
		}
	}
}

// stepLog records observer deliveries step by step: Apply appends to the
// open step, endStep closes it.
type stepLog struct {
	steps   [][]int
	current []int
}

func (r *stepLog) Apply(v int, q sa.State) { r.current = append(r.current, v) }

func (r *stepLog) endStep() {
	r.steps = append(r.steps, r.current)
	r.current = nil
}

// observerCell is one execution mode of the observer-ordering tests.
type observerCell struct {
	par            int
	frontier, word bool
}

func (c observerCell) String() string {
	return fmt.Sprintf("P=%d/frontier=%v/word=%v", c.par, c.frontier, c.word)
}

// observerCells returns every frontier × word × P∈{0,1,3} cell plus dense
// scalar cells at the extra parallelisms, so each ordered merge — the inline
// scalar and word apply loops and the sharded merge at P=1 and P>1, dense
// and frontier — is pinned against the P=0 dense scalar reference.
func observerCells(extraDense ...int) []observerCell {
	var cells []observerCell
	for _, fr := range []bool{false, true} {
		for _, word := range []bool{false, true} {
			for _, p := range []int{0, 1, 3} {
				cells = append(cells, observerCell{par: p, frontier: fr, word: word})
			}
		}
	}
	for _, p := range extraDense {
		cells = append(cells, observerCell{par: p})
	}
	return cells
}

// recordDeliveries runs the script for steps steps in the given cell and
// returns the per-step observer deliveries and the final configuration. It
// fails the test when the cell's mode did not engage, so a silent fallback
// to the scalar or dense path cannot pass as coverage.
func recordDeliveries(t *testing.T, g *graph.Graph, alg sa.Algorithm, script [][]int, seed int64, steps int, c observerCell) ([][]int, sa.Config) {
	t.Helper()
	eng, err := sim.New(g, alg, sim.Options{
		Scheduler:    sched.NewScripted(script, true),
		Seed:         seed,
		Parallelism:  c.par,
		Frontier:     c.frontier,
		WordParallel: c.word,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.WordActive() != c.word || (eng.FrontierLen() >= 0) != c.frontier {
		t.Fatalf("%v: mode not engaged (word=%v, frontier len %d)", c, eng.WordActive(), eng.FrontierLen())
	}
	rec := &stepLog{}
	eng.Observe(rec)
	for s := 0; s < steps; s++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		rec.endStep()
	}
	delivered := 0
	for _, step := range rec.steps {
		delivered += len(step)
	}
	if delivered == 0 {
		t.Fatalf("%v: no deliveries, so the ordering checks would be vacuous", c)
	}
	return rec.steps, eng.Config().Clone()
}

// TestObserverCanonicalOrder is the regression test for the ConfigObserver
// ordering contract: an engine once fed observers in raw activation-list
// order, so a scripted scheduler emitting an unsorted or duplicated list
// leaked that order — and double-applied duplicated nodes' transitions —
// into observer deliveries. The engine canonicalizes A_t (ascending,
// deduplicated) before staging, so in every execution mode both scripts
// must deliver, step for step, exactly what the P=0 dense scalar engine
// delivers on the canonical script.
func TestObserverCanonicalOrder(t *testing.T) {
	g, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(2)
	if err != nil {
		t.Fatal(err)
	}
	messy := [][]int{{5, 1, 3, 1, 5}, {7, 0, 2, 2}, {6, 6, 4}, {0, 1, 2, 3, 4, 5, 6, 7}}
	canon := [][]int{{1, 3, 5}, {0, 2, 7}, {4, 6}, {0, 1, 2, 3, 4, 5, 6, 7}}
	const seed, steps = 3, 24
	want, wantCfg := recordDeliveries(t, g, au, canon, seed, steps, observerCell{})
	for _, c := range observerCells(2) {
		for name, script := range map[string][][]int{"messy": messy, "canon": canon} {
			got, cfg := recordDeliveries(t, g, au, script, seed, steps, c)
			if !cfg.Equal(wantCfg) {
				t.Fatalf("%v/%s: configuration diverged from the P=0 dense scalar run", c, name)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v/%s: observer deliveries differ:\ngot:  %v\nwant: %v", c, name, got, want)
			}
		}
	}
}

// TestObserverAscendingWithinStep pins the ascending, at-most-once delivery
// guarantee within each step, and that every mode delivers the P=0 dense
// scalar sequence.
func TestObserverAscendingWithinStep(t *testing.T) {
	g, err := graph.Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(2)
	if err != nil {
		t.Fatal(err)
	}
	script := [][]int{{9, 3, 7, 3}, {8, 8, 1, 0}, {2, 5, 4, 9, 0}}
	const seed, steps = 13, 30
	want, _ := recordDeliveries(t, g, au, script, seed, steps, observerCell{})
	for _, c := range observerCells() {
		got, _ := recordDeliveries(t, g, au, script, seed, steps, c)
		for s, step := range got {
			for i := 1; i < len(step); i++ {
				if step[i] <= step[i-1] {
					t.Fatalf("%v: step %d: deliveries not ascending or duplicated: %v", c, s, step)
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v: observer deliveries differ:\ngot:  %v\nwant: %v", c, got, want)
		}
	}
}
