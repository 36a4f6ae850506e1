package syncsim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/obs/obstest"
	"thinunison/internal/snapshot"
	"thinunison/internal/syncsim"
)

// TestPublicationContract pins when the engine's batched round counters
// reach its metric set, dense and frontier, at P ∈ {0,1,8}, with and without
// churn: exact at every boundary (RunUntil, budget exhaustion included,
// InjectFaults, SaveState, the Metrics accessor, Close) against a
// TraceEvery=1 sink and a twin engine published after every round, and
// lagging by less than obs.PublishEvery in between.
func TestPublicationContract(t *testing.T) {
	base := gossipGraph(t)
	for _, frontier := range []bool{false, true} {
		for _, p := range []int{0, 1, 8} {
			for _, churn := range []bool{false, true} {
				t.Run(fmt.Sprintf("frontier=%v/p=%d/churn=%v", frontier, p, churn), func(t *testing.T) {
					testPublication(t, base, frontier, p, churn)
				})
			}
		}
	}
}

func testPublication(t *testing.T, base *graph.Graph, frontier bool, p int, churn bool) {
	init := gossipInitial(base.N(), 5)
	build := func() (*syncsim.Engine[gossip], *graph.Delta) {
		g, err := graph.New(base.N(), base.Edges())
		if err != nil {
			t.Fatal(err)
		}
		e, err := syncsim.NewParallel(g, gossipStep, init, 9, p)
		if err != nil {
			t.Fatal(err)
		}
		if frontier {
			e.EnableFrontier(gossipSettled)
		}
		return e, graph.NewDelta(g)
	}
	eng, engD := build()
	defer eng.Close()
	ref, refD := build()
	defer ref.Close()
	mx, sink := &obs.Metrics{}, &obs.Mem{}
	eng.Instrument(mx)
	eng.Trace(obs.NewTracer(0, 1, sink))

	rng := rand.New(rand.NewSource(77))
	// round advances both engines by one round, with the same churn flip
	// and the same state write on each; the twin publishes every round.
	round := func() {
		t.Helper()
		r := eng.Rounds()
		if churn && r%10 == 5 {
			u, v := rng.Intn(base.N()), rng.Intn(base.N()-1)
			if v >= u {
				v++
			}
			for _, x := range []struct {
				e *syncsim.Engine[gossip]
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
		if r%40 == 20 {
			eng.SetState(3, gossip{Val: 1000 + r})
			ref.SetState(3, gossip{Val: 1000 + r})
		}
		eng.Round()
		ref.Round()
		ref.Metrics()
	}
	exact := func(at string) {
		t.Helper()
		obstest.Exact(t, at, mx, sink, ref.Metrics().Snapshot())
	}

	for i := 0; i < 200; i++ {
		round()
		obstest.Lag(t, fmt.Sprintf("round %d", i), mx, sink)
	}
	eng.Metrics()
	exact("Metrics accessor")

	target := eng.Rounds() + 300
	if _, ok := eng.RunUntil(func(e *syncsim.Engine[gossip]) bool { return e.Rounds() >= target }, 1<<20); !ok {
		t.Fatal("RunUntil did not reach its target")
	}
	ref.RunUntil(func(e *syncsim.Engine[gossip]) bool { return e.Rounds() >= target }, 1<<20)
	exact("RunUntil")
	if _, ok := eng.RunUntil(func(*syncsim.Engine[gossip]) bool { return false }, 2); ok {
		t.Fatal("RunUntil without a condition succeeded")
	}
	ref.RunUntil(func(*syncsim.Engine[gossip]) bool { return false }, 2)
	exact("budget exhaustion")

	for i := 0; i < 30; i++ {
		round()
	}
	random := func(rng *rand.Rand) gossip { return gossip{Val: rng.Intn(2000)} }
	eng.InjectFaults(5, random)
	ref.InjectFaults(5, random)
	exact("InjectFaults")

	for i := 0; i < 30; i++ {
		round()
	}
	var buf bytes.Buffer
	encode := func(e *snapshot.Enc, s gossip) { e.Int(s.Val); e.Bool(s.Coin) }
	if err := eng.SaveState(&buf, encode); err != nil {
		t.Fatal(err)
	}
	exact("SaveState")
	decode := func(d *snapshot.Dec) gossip { return gossip{Val: d.Int(), Coin: d.Bool()} }
	opts := syncsim.RestoreOptions[gossip]{Step: gossipStep}
	if frontier {
		opts.Settled = gossipSettled
	}
	restored, _, err := syncsim.Restore(bytes.NewReader(buf.Bytes()), decode, opts)
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
	if got, want := restored.Metrics().Snapshot(), ref.Metrics().Snapshot(); got != want {
		t.Fatalf("checkpointed metric words differ from the per-round reference:\n got %+v\nwant %+v", got, want)
	}

	for i := 0; i < 30; i++ {
		round()
	}
	eng.Close()
	exact("Close")
}
