package asyncsim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/obs/obstest"
	"thinunison/internal/sched"
	"thinunison/internal/snapshot"
)

// TestPublicationContract pins when the engine's batched step counters reach
// its metric set, under one-node (round-robin) and random-subset steps, with
// and without churn: exact at every boundary (RunUntil, budget exhaustion
// included, RunRounds, InjectFaults, SaveState, the Metrics accessor)
// against a TraceEvery=1 sink and a twin engine published after every step,
// and lagging by less than obs.PublishEvery in between.
func TestPublicationContract(t *testing.T) {
	base, err := graph.RandomConnected(32, 0.2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	scheds := map[string]func() sched.Scheduler{
		"round-robin":   func() sched.Scheduler { return sched.NewRoundRobin() },
		"random-subset": func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.5, 6, 14) },
	}
	for sname, mkSched := range scheds {
		for _, churn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/churn=%v", sname, churn), func(t *testing.T) {
				testPublication(t, base, mkSched, churn)
			})
		}
	}
}

func testPublication(t *testing.T, base *graph.Graph, mkSched func() sched.Scheduler, churn bool) {
	initial := make([]int, base.N())
	for v := range initial {
		initial[v] = v % 512
	}
	build := func() (*asyncsim.Engine[int], *graph.Delta) {
		g, err := graph.New(base.N(), base.Edges())
		if err != nil {
			t.Fatal(err)
		}
		e, err := asyncsim.New(g, jitterStep, initial, mkSched(), 13)
		if err != nil {
			t.Fatal(err)
		}
		return e, graph.NewDelta(g)
	}
	eng, engD := build()
	ref, refD := build()
	mx, sink := &obs.Metrics{}, &obs.Mem{}
	eng.Instrument(mx)
	eng.Trace(obs.NewTracer(0, 1, sink))

	rng := rand.New(rand.NewSource(77))
	// step advances both engines by one step with the same churn flip; the
	// twin publishes every step.
	step := func() {
		t.Helper()
		if churn && eng.Steps()%25 == 7 {
			u, v := rng.Intn(base.N()), rng.Intn(base.N()-1)
			if v >= u {
				v++
			}
			for _, x := range []struct {
				e *asyncsim.Engine[int]
				d *graph.Delta
			}{{eng, engD}, {ref, refD}} {
				var err error
				if x.d.HasEdge(u, v) {
					err = x.d.DeleteEdge(u, v)
				} else {
					err = x.d.InsertEdge(u, v)
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := x.e.ApplyDelta(x.d); err != nil {
					t.Fatal(err)
				}
			}
		}
		eng.Step()
		ref.Step()
		ref.Metrics()
	}
	exact := func(at string) {
		t.Helper()
		obstest.Exact(t, at, mx, sink, ref.Metrics().Snapshot())
	}

	for i := 0; i < 3000; i++ {
		step()
		obstest.Lag(t, fmt.Sprintf("step %d", i), mx, sink)
	}
	eng.Metrics()
	exact("Metrics accessor")

	target := eng.Steps() + 500
	until := func(e *asyncsim.Engine[int]) bool { return e.Steps() >= target }
	if _, ok := eng.RunUntil(until, 1<<20); !ok {
		t.Fatal("RunUntil did not reach its target")
	}
	ref.RunUntil(until, 1<<20)
	exact("RunUntil")
	never := func(*asyncsim.Engine[int]) bool { return false }
	if _, ok := eng.RunUntil(never, 2); ok {
		t.Fatal("RunUntil without a condition succeeded")
	}
	ref.RunUntil(never, 2)
	exact("budget exhaustion")
	eng.RunRounds(3)
	ref.RunRounds(3)
	exact("RunRounds")

	for i := 0; i < 100; i++ {
		step()
	}
	random := func(rng *rand.Rand) int { return rng.Intn(512) }
	eng.InjectFaults(4, random)
	ref.InjectFaults(4, random)
	exact("InjectFaults")

	for i := 0; i < 100; i++ {
		step()
	}
	var buf bytes.Buffer
	if err := eng.SaveState(&buf, func(e *snapshot.Enc, s int) { e.Int(s) }); err != nil {
		t.Fatal(err)
	}
	exact("SaveState")
	restored, _, err := asyncsim.Restore(bytes.NewReader(buf.Bytes()), func(d *snapshot.Dec) int { return d.Int() },
		asyncsim.RestoreOptions[int]{Step: jitterStep, Scheduler: mkSched()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Metrics().Snapshot(), ref.Metrics().Snapshot(); got != want {
		t.Fatalf("checkpointed metric words differ from the per-step reference:\n got %+v\nwant %+v", got, want)
	}
}

// TestStepZeroAllocs pins the steady asynchronous step at 0 allocs/op across
// publications: 8192 round-robin steps cross obs.PublishEvery repeatedly.
func TestStepZeroAllocs(t *testing.T) {
	g, err := graph.RandomConnected(64, 0.1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// A saturated max-flood never changes again, so the engine's change
	// list stops growing and the step reaches its steady state.
	e, err := asyncsim.New(g, maxStep, make([]int, g.N()), sched.NewRoundRobin(), 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Trace(obs.NewTracer(0, 0, nil))
	e.RunRounds(2)
	if n := testing.AllocsPerRun(8192, e.Step); n != 0 {
		t.Fatalf("steady step allocates %.4f allocs/op, want 0", n)
	}
}
