package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/obs"
)

// runWorkers is the run-level worker count of every pass: the benchmark
// box has 2 cores.
const runWorkers = 2

func runSparse(cfg config) (*run, error) {
	return runEngine(cfg, func() []campaign.Scenario { return sparseScenarios(cfg.seed, cfg.seconds, cfg.sizes) })
}

func runDense(cfg config) (*run, error) {
	return runEngine(cfg, func() []campaign.Scenario { return denseScenarios(cfg.seed, cfg.seconds, cfg.sizes) })
}

func runTasks(cfg config) (*run, error) {
	return runEngine(cfg, func() []campaign.Scenario { return taskScenarios(cfg.seed, cfg.seconds, cfg.sizes) })
}

// enginePass is one untraced pass of an engine workload through
// campaign.Runner.
type enginePass struct {
	recs    []campaign.Record
	elapsed time.Duration
	agg     obs.Snapshot
	goDelta [2]goStats
}

func runEnginePass(runner *campaign.Runner, scs []campaign.Scenario) (enginePass, error) {
	var p enginePass
	mx := &obs.Metrics{}
	runner.Obs = mx
	p.goDelta[0] = readGoStats()
	t0 := time.Now()
	recs, err := runner.Run(context.Background(), scs)
	p.elapsed = time.Since(t0)
	p.goDelta[1] = readGoStats()
	if err != nil {
		return p, fmt.Errorf("campaign run: %w", err)
	}
	if len(recs) != len(scs) {
		return p, fmt.Errorf("campaign run returned %d records for %d scenarios", len(recs), len(scs))
	}
	p.recs, p.agg = recs, mx.Snapshot()
	return p, nil
}

// runEngine runs an in-process campaign workload: set-up (input generation
// and runner construction), one untraced pass on a 2-worker campaign.Runner,
// the output checks, and with tracing a second pass through the traced
// replay.
func runEngine(cfg config, inputs func() []campaign.Scenario) (*run, error) {
	var scs []campaign.Scenario
	var runner *campaign.Runner
	setup, err := timeSetup(func() error {
		scs = inputs()
		runner = &campaign.Runner{Workers: runWorkers, Timing: true, EngineMetrics: true}
		for _, sc := range warmScenarios(scs) {
			if rec := campaign.Execute(context.Background(), sc); !rec.OK {
				return fmt.Errorf("warm-up scenario failed: %s", rec.Err)
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	p, err := runEnginePass(runner, scs)
	if err != nil {
		return nil, err
	}
	r := &run{attempted: len(p.recs), metrics: map[string]metric{}}
	var t tally
	lines := make([][]byte, len(p.recs))
	for i, rec := range p.recs {
		if err := checkRecord(rec); err != nil {
			t.fail(i, err)
		}
		if lines[i], err = canonicalLine(rec); err != nil {
			return nil, err
		}
	}
	r.digest = digest(lines)
	// Determinism across worker counts: the first scenario re-executed
	// alone must give the same canonical bytes as inside the 2-worker pass.
	again, err := canonicalLine(campaign.Execute(context.Background(), scs[0]))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again, lines[0]) {
		t.fail(0, fmt.Errorf("re-executed alone it differs:\n%s\nvs\n%s", again, lines[0]))
	}
	r.inputs = engineInputs(p)

	if cfg.trace {
		err := traceEngine(cfg, r, scs, p, &t)
		r.failed = t.failed()
		return r, err
	}
	r.failed = t.failed()
	lat := make([]float64, len(p.recs))
	for i, rec := range p.recs {
		lat[i] = rec.WallMS
	}
	secs := p.elapsed.Seconds()
	r.metrics["activations_per_s"] = metric{float64(p.agg.Activated) / secs, "1/s"}
	r.metrics["records_per_s"] = metric{float64(len(p.recs)) / secs, "1/s"}
	latencyMetrics(r.metrics, lat, lat)
	r.metrics["setup_s"] = metric{setup, "s"}
	r.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return r, nil
}

// warmDivisor scales the warm-up scenarios down from the workload's sizes.
const warmDivisor = 10

// warmScenarios returns one scenario of each distinct kind in scs at
// 1/warmDivisor of its size (at least 64 nodes). Executing them before the
// timed pass is the run's warm-up: lazily built tables and pools, code and
// allocator caches are filled, so the timed pass measures steady work and
// set-up work shows in setup_s.
func warmScenarios(scs []campaign.Scenario) []campaign.Scenario {
	seen := map[string]bool{}
	var out []campaign.Scenario
	for _, sc := range scs {
		key := fmt.Sprintf("%s/%d/%s/%s/%+v/%+v", sc.Family, sc.D, sc.Scheduler.Name(), sc.Algorithm, sc.Faults, sc.Churn)
		if seen[key] {
			continue
		}
		seen[key] = true
		sc.N = max(64, sc.N/warmDivisor)
		out = append(out, sc)
	}
	return out
}

// latencyMetrics reports the request latency percentiles, each the median
// over latencyGroups of its value within the group. In the engine workloads
// a request is one scenario, whose single record is both its first and its
// last, so both series are the scenario's wall time.
func latencyMetrics(m map[string]metric, first, done []float64) {
	m["submit_to_first_record_ms.p50"] = metric{groupedPercentile(first, 50), "ms"}
	m["submit_to_first_record_ms.p90"] = metric{groupedPercentile(first, 90), "ms"}
	m["submit_to_done_ms.p50"] = metric{groupedPercentile(done, 50), "ms"}
	m["submit_to_done_ms.p90"] = metric{groupedPercentile(done, 90), "ms"}
}

// A latency percentile is taken in up to latencyGroups groups of
// consecutive requests, each at least groupMin long (so a group's p90 has
// ten samples beyond it), and the median over the groups is reported. It
// ignores a burst of host contention (CPU steal, a noisy neighbour) that
// slows one or two groups of the run, which a percentile over the whole run
// would absorb as tail. Runs with fewer than 2*groupMin requests form one
// group.
const (
	latencyGroups = 5
	groupMin      = 100
)

// groupedPercentile splits vals, in request order, into groups as above and
// returns the median of the groups' p-th percentiles.
func groupedPercentile(vals []float64, p float64) float64 {
	k := max(1, min(latencyGroups, len(vals)/groupMin))
	per := make([]float64, k)
	for g := range per {
		per[g] = percentile(vals[g*len(vals)/k:(g+1)*len(vals)/k], p)
	}
	return median(per)
}

func engineInputs(p enginePass) workloadInputs {
	in := workloadInputs{Requests: len(p.recs), Scenarios: len(p.recs), Activations: p.agg.Activated}
	lo, hi := p.recs[0].N, p.recs[0].N
	for _, rec := range p.recs {
		lo, hi = min(lo, rec.N), max(hi, rec.N)
		in.M += int64(rec.M)
	}
	in.N = nRange(lo, hi)
	return in
}

// traceEngine re-runs the workload's scenarios through the traced replay on
// runWorkers goroutines, checks that every outcome reproduces the untraced
// record, and reports the per-layer metrics.
func traceEngine(cfg config, r *run, scs []campaign.Scenario, p enginePass, t *tally) error {
	rec, sim, elapsed, errs := traceScenarios(scs, p.recs)
	for i, err := range errs {
		if err != nil {
			t.fail(i, err)
		}
	}
	m := r.metrics
	engineLayerMetrics(m, rec, sim)
	m["trace_overhead"] = metric{elapsed.Seconds() / p.elapsed.Seconds(), "ratio"}
	goMetrics(m, p.goDelta[0], p.goDelta[1])

	// The runner timed each campaign.Execute as the record's wall time.
	exec := make([]float64, len(p.recs))
	for i, rc := range p.recs {
		exec[i] = rc.WallMS
		rec.add("campaign.execute", "", time.Duration(rc.WallMS*float64(time.Millisecond)))
	}
	m["campaign.execute_ms.p50"] = metric{percentile(exec, 50), "ms"}
	m["campaign.execute_ms.p90"] = metric{percentile(exec, 90), "ms"}

	// Journal: the records as cmd/campaign -resume would persist them, one
	// fsynced append each, into the benchmark's own journal.
	path := filepath.Join(cfg.dir, fmt.Sprintf("journal-%d.jsonl", os.Getpid()))
	defer os.Remove(path)
	defer os.Remove(path + ".crc")
	jr := rec.start("journal", "campaign.journal_append", nil)
	log, err := campaign.OpenResumable(path)
	if err != nil {
		return err
	}
	appends := make([]float64, len(p.recs))
	for i, rc := range p.recs {
		t0 := time.Now()
		rc.WallMS, rc.Engine = 0, nil
		if err := log.Append(rc); err != nil {
			log.Close()
			return err
		}
		appends[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	if err := log.Close(); err != nil {
		return err
	}
	jr.end()
	journalMetrics(m, appends)

	frames, err := frameRoundTrips(rec, p.recs)
	if err != nil {
		return err
	}
	m["wire.frame_us.p50"] = metric{percentile(frames, 50), "us"}
	m["daemonclient.submit_ms.p50"] = metric{0, "ms"}
	m["daemonclient.submit_ms.p90"] = metric{0, "ms"}
	m["daemon.first_record_wait_ms.p50"] = metric{0, "ms"}
	m["daemon.first_record_wait_ms.p90"] = metric{0, "ms"}
	m["daemon.busy_rejections"] = metric{0, "count"}
	churn := 0
	for _, rc := range p.recs {
		churn += rc.ChurnOps
	}
	m["graph.churn_ops"] = metric{float64(churn), "count"}
	selfMetrics(m, rec)
	r.spans = rec
	return nil
}

// frameRoundTrips encodes each record as the daemon's record event and
// decodes it back through a buffer, timing each round trip in µs.
func frameRoundTrips(rec *recorder, recs []campaign.Record) ([]float64, error) {
	var buf bytes.Buffer
	out := make([]float64, len(recs))
	for i, rc := range recs {
		line, err := streamLine(rc)
		if err != nil {
			return nil, err
		}
		ev := wire.Event{Seq: uint64(i + 1), Type: wire.EventRecord, Record: bytes.TrimSuffix(line, []byte("\n"))}
		t0 := time.Now()
		if err := wire.WriteFrame(&buf, ev); err != nil {
			return nil, err
		}
		if _, err := wire.ReadEvent(&buf); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		rec.add("wire.frame", "", d)
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out, nil
}

func journalMetrics(m map[string]metric, ms []float64) {
	m["campaign.journal_append_ms.p50"] = metric{percentile(ms, 50), "ms"}
	m["campaign.journal_append_ms.p90"] = metric{percentile(ms, 90), "ms"}
}

// traceScenarios runs scs through the traced replay on runWorkers
// goroutines, comparing each outcome with the record at the same index of
// recs. It returns the merged recorder, the summed AlgAU engine counters,
// the pass's wall time and each scenario's mismatch (nil when reproduced).
func traceScenarios(scs []campaign.Scenario, recs []campaign.Record) (*recorder, obs.Snapshot, time.Duration, []error) {
	epoch := time.Now()
	var next atomic.Int64
	errs := make([]error, len(scs))
	recorders := make([]*recorder, runWorkers)
	sims := make([]obs.Snapshot, runWorkers)
	var wg sync.WaitGroup
	for w := range recorders {
		recorders[w] = newRecorder(epoch)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(scs) {
					return
				}
				mx := &obs.Metrics{}
				out := traceScenario(recorders[w], scs[i], mx)
				snap := mx.Snapshot()
				if scs[i].Algorithm == campaign.AlgAU {
					sims[w] = addSnap(sims[w], snap)
				}
				errs[i] = checkOutcome(recs[i], out, snap.Trajectory())
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(epoch)
	rec, sim := recorders[0], sims[0]
	for w := 1; w < runWorkers; w++ {
		rec.merge(recorders[w])
		sim = addSnap(sim, sims[w])
	}
	return rec, sim, elapsed, errs
}

func addSnap(a, b obs.Snapshot) obs.Snapshot {
	var m obs.Metrics
	m.Add(a)
	m.Add(b)
	return m.Snapshot()
}

// engineLayerMetrics reports the engine layers' times and counts.
func engineLayerMetrics(m map[string]metric, rec *recorder, sim obs.Snapshot) {
	secs := func(name string) metric { return metric{rec.total[name].Seconds(), "s"} }
	pct := func(name string, p float64) metric {
		var vals []float64
		if s := rec.dist[name]; s != nil {
			vals = s.vals
		}
		return metric{percentile(vals, p), "ns"}
	}
	count := func(v uint64) metric { return metric{float64(v), "count"} }
	ratio := func(a, b uint64) metric {
		if b == 0 {
			return metric{0, "ratio"}
		}
		return metric{float64(a) / float64(b), "ratio"}
	}
	for _, name := range []string{
		"graph.build", "graph.diameter", "sim.new", "core.monitor_new", "sim.step",
		"core.poll", "sim.inject", "syncsim.step", "syncsim.check", "asyncsim.step", "asyncsim.check",
	} {
		m[name+"_s"] = secs(name)
	}
	m["sim.step_ns.p50"] = pct("sim.step", 50)
	m["sim.step_ns.p99"] = pct("sim.step", 99)
	m["core.poll_ns.p50"] = pct("core.poll", 50)
	m["core.poll_ns.p99"] = pct("core.poll", 99)
	m["sim.steps"] = count(sim.Steps)
	m["core.polls"] = count(uint64(rec.calls["core.poll"]))
	m["core.monitor_promotions"] = count(sim.MonitorPromotions)
	m["sim.activated"] = count(sim.Activated)
	m["sim.evaluated"] = count(sim.Evaluated)
	m["sim.changes"] = count(sim.Changes)
	m["sim.eval_ratio"] = ratio(sim.Evaluated, sim.Activated)
	m["sim.change_ratio"] = ratio(sim.Changes, sim.Evaluated)
	m["frontier.skips"] = count(sim.FrontierSkips)
	m["shard.boundary_applies"] = count(sim.BoundaryApplies)
	m["sim.word_steps"] = count(sim.WordSteps)
}

// selfLayers are the span layers whose self time the traced run reports.
var selfLayers = []string{
	"campaign.scenario", "graph.build", "graph.diameter", "sim.new", "core.monitor_new",
	"sim.step", "core.poll", "sim.inject", "syncsim.step", "syncsim.check",
	"asyncsim.step", "asyncsim.check", "campaign.execute", "campaign.journal_append",
	"wire.frame", "benchmark.submission", "daemonclient.submit", "daemon.attach",
	"daemon.first_record_wait",
}

func selfMetrics(m map[string]metric, rec *recorder) {
	for _, name := range selfLayers {
		m[name+".self_s"] = metric{rec.self(name).Seconds(), "s"}
	}
}
