package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sa"
)

// TestGoodMonitorVerdictCache drives one monitor through a random mix of
// every operation that can change what it watches — Apply (real and no-op),
// RewireEdge through graph.Delta, Reset, ApplyWordBatch, NoteWordStep and a
// CheckpointState→RestoreState hand-over — and requires Good() to equal the
// full-scan GraphGood at every poll. Each false verdict is polled twice more:
// once answered from the cached verdict, once recomputed after a no-op Apply
// invalidated the cache. Neither repoll may change the CheckpointState bytes
// or the MonitorPromotions count, which is what makes caching a false verdict
// byte-transparent. The deferred subtests never heal the graph, so the
// monitor stays deferred; the incremental ones start promoted and heal often,
// so both verdict polarities recur.
func TestGoodMonitorVerdictCache(t *testing.T) {
	for _, regime := range []string{"deferred", "incremental"} {
		for _, shards := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", regime, shards), func(t *testing.T) {
				testVerdictCache(t, regime == "incremental", shards, int64(7+shards))
			})
		}
	}
}

func testVerdictCache(t *testing.T, incremental bool, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.RandomConnected(20, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	able := au.MustState(core.Turn{Level: 1})
	cfg := make(sa.Config, n)
	for v := range cfg {
		if incremental {
			cfg[v] = able
		} else {
			cfg[v] = rng.Intn(au.NumStates())
		}
	}
	var shardOf []int32
	if shards > 0 {
		shardOf = make([]int32, n)
		for v := range shardOf {
			shardOf[v] = int32(v * shards / n)
		}
	}
	mx := &obs.Metrics{}
	attach := func(m *core.GoodMonitor) {
		m.Instrument(mx)
		if shards > 0 {
			m.AttachShards(shardOf, shards)
		}
	}
	mon := core.NewGoodMonitor(au, g, cfg)
	attach(mon)
	if incremental {
		promote(t, mon)
	}

	var polls, goods, bads int
	poll := func(op int) bool {
		t.Helper()
		got, want := mon.Good(), au.GraphGood(g, cfg)
		if got != want {
			t.Fatalf("op %d: Good()=%v, GraphGood=%v", op, got, want)
		}
		polls++
		if got {
			goods++
			return got
		}
		bads++
		state, promotions := mon.CheckpointState(), mx.MonitorPromotions.Load()
		repoll := func(how string) {
			t.Helper()
			if mon.Good() {
				t.Fatalf("op %d: %s repoll of a bad graph answered good", op, how)
			}
			if !bytes.Equal(mon.CheckpointState(), state) {
				t.Fatalf("op %d: %s repoll changed the checkpoint bytes", op, how)
			}
			if p := mx.MonitorPromotions.Load(); p != promotions {
				t.Fatalf("op %d: %s repoll changed MonitorPromotions %d -> %d", op, how, promotions, p)
			}
		}
		repoll("cached")
		v := rng.Intn(n)
		mon.Apply(v, cfg[v]) // no change, but it invalidates the cached verdict
		repoll("recomputed")
		return got
	}
	changeSome := func(k int) []int {
		var changed []int
		for i := 0; i < k; i++ {
			v := rng.Intn(n)
			cfg[v] = rng.Intn(au.NumStates())
			changed = append(changed, v)
		}
		return changed
	}

	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(20); {
		case r < 4:
			v := rng.Intn(n)
			cfg[v] = rng.Intn(au.NumStates())
			mon.Apply(v, cfg[v])
		case r < 6:
			toggleEdges(t, g, rng, 1+rng.Intn(3), mon)
		case r < 7:
			changeSome(1 + rng.Intn(4))
			mon.Reset(cfg)
		case r < 9:
			mon.ApplyWordBatch(changeSome(1+rng.Intn(3)), cfg)
		case r < 11:
			// A certified verdict may only assert what is true.
			mon.NoteWordStep(rng.Intn(2) == 0 && au.GraphGood(g, cfg))
		case r < 12:
			state := mon.CheckpointState()
			restored := core.NewGoodMonitor(au, g, cfg)
			if err := restored.RestoreState(state); err != nil {
				t.Fatalf("op %d: restore: %v", op, err)
			}
			attach(restored)
			mon = restored
		case r < 13 && incremental && allAt(cfg, able):
			// Detune one node against all its neighbors (level 3 is not
			// adjacent to level 1), poll the bad graph, caching the verdict,
			// then cut the node's edges: the rewire alone heals the graph,
			// so a cached verdict that survived it would answer wrong.
			v := rng.Intn(n)
			cfg[v] = au.MustState(core.Turn{Level: 3})
			mon.Apply(v, cfg[v])
			poll(op)
			delta := graph.NewDelta(g)
			for _, u := range append([]int(nil), g.Neighbors(v)...) {
				if err := delta.DeleteEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
			changes, _ := delta.Apply()
			for _, c := range changes {
				mon.RewireEdge(c.U, c.V, c.Added)
			}
		case r < 14 && incremental:
			// Heal: every node able, delivered per node or as a word batch.
			var changed []int
			for v := range cfg {
				if cfg[v] != able {
					cfg[v] = able
					changed = append(changed, v)
				}
			}
			if rng.Intn(2) == 0 {
				mon.ApplyWordBatch(changed, cfg)
			} else {
				for _, v := range changed {
					mon.Apply(v, able)
				}
			}
		default:
			poll(op)
		}
	}
	if !incremental && mx.MonitorPromotions.Load() != 0 {
		t.Fatal("the deferred run promoted: the random walk found a good graph")
	}
	if incremental && goods < 50 {
		t.Fatalf("only %d of %d polls saw a good graph", goods, polls)
	}
	if bads < 50 {
		t.Fatalf("only %d of %d polls saw a bad graph", bads, polls)
	}
}

// allAt reports whether every node of cfg holds state q.
func allAt(cfg sa.Config, q sa.State) bool {
	for _, s := range cfg {
		if s != q {
			return false
		}
	}
	return true
}
