package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"thinunison/internal/asyncsim"
	"thinunison/internal/budget"
	"thinunison/internal/campaign"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/obs"
	"thinunison/internal/restart"
	"thinunison/internal/sim"
	"thinunison/internal/stats"
	"thinunison/internal/synchronizer"
	"thinunison/internal/syncsim"
)

// The traced replay re-runs a campaign scenario with the same public calls
// campaign.Execute makes, in the same rng order, and times each call. The
// engines' trajectories depend only on those calls, so its outcome must equal
// the record the untraced campaign.Runner produced; checkOutcome enforces it.

// outcome is the part of a record the replay reproduces.
type outcome struct {
	N, M, D, Diameter      int
	Rounds, Steps          int
	RecoveryRounds, Budget int
	ChurnOps, ChurnSkipped int
	OK                     bool
	Err                    string
}

func (o *outcome) fail(err error) {
	if o.Err == "" {
		o.Err = err.Error()
	}
	o.OK = false
}

// exactDiameterLimit mirrors campaign's: exact diameters up to 512 nodes,
// double-sweep upper bounds above.
const exactDiameterLimit = 512

// intraParallelism resolves the engine parallelism campaign.Execute uses
// when its runner has at least as many scenarios as workers (the hint is then
// one worker per run); records are identical at every positive value.
func intraParallelism(sc campaign.Scenario) int {
	switch {
	case sc.Parallelism > 0:
		return sc.Parallelism
	case sc.Parallelism < 0:
		return 0
	case sc.N >= campaign.ShardThreshold:
		return 1
	default:
		return 0
	}
}

// traceScenario runs sc under spans of recorder r and returns its outcome;
// mx receives the engines' counters.
func traceScenario(r *recorder, sc campaign.Scenario, mx *obs.Metrics) outcome {
	req := "s" + strconv.Itoa(sc.Index) + "." + strconv.FormatInt(sc.Seed, 36)
	root := r.start(req, "campaign.scenario", nil)
	defer root.end()
	out := outcome{Diameter: -1}
	rng := rand.New(rand.NewSource(sc.Seed))

	s := r.start(req, "graph.build", root)
	g, err := graph.FromFamily(sc.Family, sc.N, sc.D, rng)
	s.end()
	if err != nil {
		out.fail(fmt.Errorf("build graph: %w", err))
		return out
	}
	out.N, out.M = g.N(), g.M()

	s = r.start(req, "graph.diameter", root)
	d, diam := diameterParam(sc, g)
	s.end()
	out.D, out.Diameter = d, diam

	switch sc.Algorithm {
	case campaign.AlgAU:
		traceAU(r, root, sc, g, d, rng, &out, mx)
	case campaign.AlgMIS:
		traceSyncTask(r, root, sc, g, d, rng, &out, misTask(d), mx)
	case campaign.AlgLE:
		traceSyncTask(r, root, sc, g, d, rng, &out, leTask(d), mx)
	case campaign.AlgSyncMIS:
		traceAsyncTask(r, root, sc, g, d, rng, &out, misTask(d), mx)
	case campaign.AlgSyncLE:
		traceAsyncTask(r, root, sc, g, d, rng, &out, leTask(d), mx)
	default:
		out.fail(fmt.Errorf("unknown algorithm %q", sc.Algorithm))
	}
	return out
}

// diameterParam mirrors campaign's resolution of the algorithm parameter D
// and the recorded diameter.
func diameterParam(sc campaign.Scenario, g *graph.Graph) (d, diam int) {
	if known, ok := graph.KnownDiameter(sc.Family, g.N(), sc.D); ok {
		diam = known
	} else if g.N() <= exactDiameterLimit {
		diam = g.Diameter()
	} else {
		_, upper := g.DiameterBounds()
		d = upper
		diam = -1
	}
	d = max(d, diam, sc.D, 1)
	return d, diam
}

func faultBursts(f campaign.FaultSpec) int {
	if f.Count <= 0 {
		return 0
	}
	return max(f.Bursts, 1)
}

// stepClock times an engine run loop from inside its stop condition: the
// step is the time since the previous condition returned, the poll the time
// the predicate itself takes.
type stepClock struct {
	step, poll *agg
	last       time.Time
}

// arm restarts the clock at the top of a run loop.
func (c *stepClock) arm() { c.last = time.Now() }

// cond wraps predicate pred (nil for a soak, which never stops early).
func (c *stepClock) cond(pred func() bool) bool {
	t0 := time.Now()
	c.step.observe(t0.Sub(c.last))
	if pred == nil {
		c.last = t0
		return false
	}
	ok := pred()
	t1 := time.Now()
	c.poll.observe(t1.Sub(t0))
	c.last = t1
	return ok
}

func (c *stepClock) flush() {
	c.step.flush()
	c.poll.flush()
}

func traceAU(r *recorder, root *open, sc campaign.Scenario, g *graph.Graph, d int, rng *rand.Rand, out *outcome, mx *obs.Metrics) {
	req := root.req
	var churn *sim.ChurnSpec
	if sc.Churn.Period > 0 && (sc.Churn.Flips > 0 || sc.Churn.Crash > 0) {
		d = 2 * d
		out.D = d
		churn = &sim.ChurnSpec{
			Period:           sc.Churn.Period,
			Flips:            sc.Churn.Flips,
			Crashes:          sc.Churn.Crash,
			MaxEvents:        sc.Churn.Events,
			Seed:             rng.Int63(),
			KeepConnected:    true,
			MaxDiameterUpper: d,
		}
	}
	au, err := core.NewAU(d)
	if err != nil {
		out.fail(err)
		return
	}
	scheduler, err := sc.Scheduler.Build(rng.Int63())
	if err != nil {
		out.fail(err)
		return
	}
	s := r.start(req, "sim.new", root)
	eng, err := sim.New(g, au, sim.Options{
		Scheduler:    scheduler,
		Seed:         rng.Int63(),
		Parallelism:  intraParallelism(sc),
		Frontier:     sc.Frontier >= 0,
		WordParallel: sc.WordParallel,
		Churn:        churn,
		Metrics:      mx,
	})
	s.end()
	if err != nil {
		out.fail(err)
		return
	}
	defer eng.Close()
	roundBudget := budget.AU(au.K())
	out.Budget = roundBudget
	defer func() { out.ChurnOps, out.ChurnSkipped = eng.ChurnOps(), eng.ChurnSkipped() }()

	s = r.start(req, "core.monitor_new", root)
	mon := core.NewGoodMonitor(au, g, eng.Config())
	mon.Instrument(mx)
	eng.Observe(mon)
	s.end()

	clock := &stepClock{step: r.aggregate("sim.step", root), poll: r.aggregate("core.poll", root)}
	defer clock.flush()
	good := func(*sim.Engine) bool { return clock.cond(mon.Good) }
	soak := func() bool {
		if sc.Faults.SoakRounds <= 0 {
			return true
		}
		clock.arm()
		_, err := eng.RunUntil(func(*sim.Engine) bool { return clock.cond(nil) }, sc.Faults.SoakRounds)
		out.Steps = eng.StepCount()
		if !errors.Is(err, sim.ErrBudgetExhausted) {
			out.fail(fmt.Errorf("soak ended early: %v", err))
			return false
		}
		return true
	}

	clock.arm()
	rounds, err := eng.RunUntil(good, roundBudget)
	out.Rounds, out.Steps = rounds, eng.StepCount()
	if err != nil {
		out.fail(fmt.Errorf("AU did not stabilize within %d rounds: %w", roundBudget, err))
		return
	}
	out.OK = true
	if !soak() {
		return
	}
	for burst := 0; burst < faultBursts(sc.Faults); burst++ {
		s = r.start(req, "sim.inject", root)
		eng.InjectFaults(sc.Faults.Count)
		s.end()
		clock.arm()
		recovery, err := eng.RunUntil(good, roundBudget)
		out.Steps = eng.StepCount()
		out.RecoveryRounds = max(out.RecoveryRounds, recovery)
		if err != nil {
			out.fail(fmt.Errorf("AU did not recover from burst %d within %d rounds: %w", burst, roundBudget, err))
			return
		}
		if !soak() {
			return
		}
	}
}

// task bundles the pieces of a synchronous program (AlgMIS/AlgLE) the two
// task replays need, as campaign builds them.
type task[S comparable] struct {
	step   syncsim.StepFunc[restart.State[S]]
	random func(*rand.Rand) restart.State[S]
	eval   func(g *graph.Graph, states []restart.State[S], v int) (ok bool, weight int)
	stable func(c *syncsim.Checker) bool
	err    error
}

func misTask(d int) task[mis.State] {
	alg, err := mis.New(mis.Params{D: d})
	if err != nil {
		return task[mis.State]{err: err}
	}
	return task[mis.State]{
		step:   alg.Step,
		random: alg.RandomState,
		eval: func(g *graph.Graph, states []restart.State[mis.State], v int) (bool, int) {
			return mis.LocalStable(g, states, v), 0
		},
		stable: func(c *syncsim.Checker) bool { return c.AllOK() },
	}
}

func leTask(d int) task[le.State] {
	alg, err := le.New(le.Params{D: d})
	if err != nil {
		return task[le.State]{err: err}
	}
	return task[le.State]{
		step:   alg.Step,
		random: alg.RandomState,
		eval: func(_ *graph.Graph, states []restart.State[le.State], v int) (bool, int) {
			ok, leader := le.LocalStable(states[v])
			if leader {
				return ok, 1
			}
			return ok, 0
		},
		stable: func(c *syncsim.Checker) bool { return c.AllOK() && c.Sum() == 1 },
	}
}

// traceSyncTask drives a synchronous program on syncsim under the
// synchronous schedule.
func traceSyncTask[S comparable](r *recorder, root *open, sc campaign.Scenario, g *graph.Graph, d int, rng *rand.Rand, out *outcome, t task[S], mx *obs.Metrics) {
	if t.err != nil {
		out.fail(t.err)
		return
	}
	initial := make([]restart.State[S], g.N())
	for v := range initial {
		initial[v] = t.random(rng)
	}
	eng, err := syncsim.NewParallel(g, t.step, initial, rng.Int63(), intraParallelism(sc))
	if err != nil {
		out.fail(err)
		return
	}
	defer eng.Close()
	eng.Instrument(mx)
	roundBudget := budget.Task(d, g.N())
	out.Budget = roundBudget

	chk := syncsim.NewChecker(g, func(v int) (bool, int) { return t.eval(g, eng.View(), v) })
	clock := &stepClock{step: r.aggregate("syncsim.step", root), poll: r.aggregate("syncsim.check", root)}
	defer clock.flush()
	stable := func(*syncsim.Engine[restart.State[S]]) bool {
		return clock.cond(func() bool {
			chk.Recheck(eng.Changed())
			return t.stable(chk)
		})
	}
	clock.arm()
	rounds, ok := eng.RunUntil(stable, roundBudget)
	out.Rounds, out.Steps = rounds, eng.Steps()
	if !ok {
		out.fail(fmt.Errorf("%s did not stabilize within %d rounds", sc.Algorithm, roundBudget))
		return
	}
	out.OK = true
	for burst := 0; burst < faultBursts(sc.Faults); burst++ {
		chk.Recheck(eng.InjectFaults(sc.Faults.Count, t.random))
		clock.arm()
		recovery, ok := eng.RunUntil(stable, roundBudget)
		out.Steps = eng.Steps()
		out.RecoveryRounds = max(out.RecoveryRounds, recovery)
		if !ok {
			out.fail(fmt.Errorf("%s did not recover from burst %d within %d rounds", sc.Algorithm, burst, roundBudget))
			return
		}
	}
}

// traceAsyncTask drives a synchronous program through the synchronizer on
// asyncsim under the scenario's scheduler.
func traceAsyncTask[S comparable](r *recorder, root *open, sc campaign.Scenario, g *graph.Graph, d int, rng *rand.Rand, out *outcome, t task[S], mx *obs.Metrics) {
	if t.err != nil {
		out.fail(t.err)
		return
	}
	type product = synchronizer.State[restart.State[S]]
	sy, err := synchronizer.New[restart.State[S]](d, t.step)
	if err != nil {
		out.fail(err)
		return
	}
	scheduler, err := sc.Scheduler.Build(rng.Int63())
	if err != nil {
		out.fail(err)
		return
	}
	randomState := func(rng *rand.Rand) product {
		return product{Cur: t.random(rng), Prev: t.random(rng), Turn: rng.Intn(sy.AU().NumStates())}
	}
	initial := make([]product, g.N())
	for v := range initial {
		initial[v] = randomState(rng)
	}
	eng, err := asyncsim.New(g, sy.Step, initial, scheduler, rng.Int63())
	if err != nil {
		out.fail(err)
		return
	}
	eng.Instrument(mx)
	roundBudget := stats.SatAdd(budget.Task(d, g.N()), budget.Synchronizer(d))
	out.Budget = roundBudget

	prj := syncsim.NewProjected(g, eng.View,
		func(st product) restart.State[S] { return st.Cur },
		func(pi []restart.State[S], v int) (bool, int) { return t.eval(g, pi, v) })
	clock := &stepClock{step: r.aggregate("asyncsim.step", root), poll: r.aggregate("asyncsim.check", root)}
	defer clock.flush()
	stable := func(*asyncsim.Engine[product]) bool {
		return clock.cond(func() bool {
			prj.Update(eng.Changed())
			return t.stable(prj.Checker())
		})
	}
	clock.arm()
	rounds, ok := eng.RunUntil(stable, roundBudget)
	out.Rounds, out.Steps = rounds, eng.Steps()
	if !ok {
		out.fail(fmt.Errorf("%s did not stabilize within %d rounds", sc.Algorithm, roundBudget))
		return
	}
	out.OK = true
	for burst := 0; burst < faultBursts(sc.Faults); burst++ {
		prj.Update(eng.InjectFaults(sc.Faults.Count, randomState))
		clock.arm()
		recovery, ok := eng.RunUntil(stable, roundBudget)
		out.Steps = eng.Steps()
		out.RecoveryRounds = max(out.RecoveryRounds, recovery)
		if !ok {
			out.fail(fmt.Errorf("%s did not recover from burst %d within %d rounds", sc.Algorithm, burst, roundBudget))
			return
		}
	}
}
