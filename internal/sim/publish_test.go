package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/obs/obstest"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// TestPublicationContract pins when the engine's batched counters reach its
// metric set. In every mode cell — dense, frontier and word, at P ∈ {0,1,8},
// with and without churn, on a coin-free and a coin-drawing algorithm, under
// one-node and Θ(n) steps — the set must be exact at every boundary (return
// of RunUntil / RunRounds / RunToStabilization, budget exhaustion included,
// InjectFaults, SaveState, a failed Step, the Metrics accessor, Close):
// equal to the sums of a TraceEvery=1 sink and to a twin engine whose set is
// published after every step. Between boundaries it may lag by less than
// obs.PublishEvery.
func TestPublicationContract(t *testing.T) {
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := graph.RandomConnected(48, 0.15, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	algs := map[string]sa.Algorithm{"au": au, "coins": randomizedAlg{}}
	scheds := map[string]func() sched.Scheduler{
		"round-robin": func() sched.Scheduler { return sched.NewRoundRobin() },
		"synchronous": func() sched.Scheduler { return sched.NewSynchronous() },
	}
	for aname, alg := range algs {
		for sname, mkSched := range scheds {
			for _, mode := range []string{"dense", "frontier", "word"} {
				for _, p := range []int{0, 1, 8} {
					for _, churn := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/%s/p=%d/churn=%v", aname, sname, mode, p, churn)
						t.Run(name, func(t *testing.T) {
							opts := func(mx *obs.Metrics) sim.Options {
								o := sim.Options{
									Scheduler:    mkSched(),
									Seed:         3,
									Parallelism:  p,
									Frontier:     mode == "frontier",
									WordParallel: mode == "word",
									Metrics:      mx,
								}
								if churn {
									o.Churn = churnSpec()
								}
								return o
							}
							testPublication(t, base, alg, opts, mkSched)
						})
					}
				}
			}
		}
	}
}

func testPublication(t *testing.T, base *graph.Graph, alg sa.Algorithm, opts func(*obs.Metrics) sim.Options, mkSched func() sched.Scheduler) {
	mx, refMx, sink := &obs.Metrics{}, &obs.Metrics{}, &obs.Mem{}
	o := opts(mx)
	o.Trace = obs.NewTracer(0, 1, sink)
	eng, err := sim.New(cloneGraph(t, base), alg, o)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref, err := sim.New(cloneGraph(t, base), alg, opts(refMx))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	failNext := false
	errHook := errors.New("hook failure")
	eng.AddHook(func(*sim.Engine) error {
		if failNext {
			failNext = false
			return errHook
		}
		return nil
	})

	// refTo advances the per-step reference to eng's position.
	refTo := func() obs.Snapshot {
		t.Helper()
		for ref.StepCount() < eng.StepCount() {
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
			ref.Metrics()
		}
		return ref.Metrics().Snapshot()
	}
	exact := func(at string) {
		t.Helper()
		obstest.Exact(t, at, mx, sink, refTo())
	}

	for i := 0; i < 300; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		obstest.Lag(t, fmt.Sprintf("step %d", i), mx, sink)
	}
	if got := eng.Metrics(); got != mx {
		t.Fatal("Metrics accessor returned a different set")
	}
	exact("Metrics accessor")

	target := eng.StepCount() + 700
	if _, err := eng.RunUntil(func(e *sim.Engine) bool { return e.StepCount() >= target }, 1<<20); err != nil {
		t.Fatal(err)
	}
	exact("RunUntil")
	if _, err := eng.RunUntil(func(*sim.Engine) bool { return false }, 2); !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatalf("RunUntil without a condition: %v", err)
	}
	ref.RunUntil(func(*sim.Engine) bool { return ref.StepCount() >= eng.StepCount() }, 1<<20)
	ref.Metrics().BudgetExhausted.Add(1)
	exact("budget exhaustion")
	if err := eng.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	exact("RunRounds")

	for i := 0; i < 50; i++ { // leave steps pending across the burst
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	eng.InjectFaults(6)
	refTo()
	ref.InjectFaults(6)
	exact("InjectFaults")

	if _, err := eng.RunToStabilization(func(e *sim.Engine) bool { return e.StepCount()%5 == 0 }, 1, 40); err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatal(err)
	}
	refTo()
	refMx.BudgetExhausted.Store(mx.BudgetExhausted.Load()) // the condition's outcome is not under test
	exact("RunToStabilization")

	failNext = true
	if err := eng.Step(); !errors.Is(err, errHook) {
		t.Fatalf("failing step: %v", err)
	}
	exact("failed Step")
	failNext = true
	if _, err := eng.RunUntil(func(*sim.Engine) bool { return false }, 1<<20); !errors.Is(err, errHook) {
		t.Fatalf("RunUntil over a failing step: %v", err)
	}
	exact("RunUntil over a failed Step")

	for i := 0; i < 100; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := eng.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	exact("SaveState")
	restoredMx := &obs.Metrics{}
	restored, _, err := sim.Restore(bytes.NewReader(buf.Bytes()), alg, sim.RestoreOptions{Scheduler: mkSched(), Metrics: restoredMx})
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
	if got, want := restoredMx.Snapshot(), refTo(); got != want {
		t.Fatalf("checkpointed metric words differ from the per-step reference:\n got %+v\nwant %+v", got, want)
	}

	for i := 0; i < 100; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	exact("Close")
}

// TestSparseStepZeroAllocs pins the one-node steady step at 0 allocs/op in
// every mode, across publications: 8192 round-robin steps cross the
// obs.PublishEvery threshold several times.
func TestSparseStepZeroAllocs(t *testing.T) {
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.RandomConnected(200, 0.05, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"dense", "frontier", "word"} {
		for _, p := range []int{0, 1} {
			eng, err := sim.New(g, au, sim.Options{
				Scheduler:    sched.NewRoundRobin(),
				Seed:         2,
				Parallelism:  p,
				Frontier:     mode == "frontier",
				WordParallel: mode == "word",
				Trace:        obs.NewTracer(0, 0, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			mon := core.NewGoodMonitor(au, g, eng.Config())
			eng.Observe(mon)
			if _, err := eng.RunUntil(func(*sim.Engine) bool { return mon.Good() }, 1<<20); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(8192, func() {
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				mon.Good()
			})
			eng.Close()
			if avg != 0 {
				t.Errorf("%s p=%d: one-node step allocates %.4f allocs/op, want 0", mode, p, avg)
			}
		}
	}
}
