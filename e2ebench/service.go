package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/daemonclient"
	"thinunison/internal/obs"
)

// serviceFleet is the daemon's engine-fleet capacity and serviceClients the
// number of closed-loop clients: the benchmark box has 2 cores.
const (
	serviceFleet   = 2
	serviceClients = 2
)

// shutdownTimeout bounds a daemon's drain at the end of a pass.
const shutdownTimeout = 30 * time.Second

// liveDaemon is an in-process unisond serving on a unix socket; dir holds
// the socket and the benchmark's own journals.
type liveDaemon struct {
	srv    *daemon.Server
	client *daemonclient.Client
	dir    string
}

// startDaemon starts a daemon in a fresh directory under dir and waits for
// its first successful ping.
//
// The daemon runs without a state dir. With one, every submission fsyncs a
// manifest and every record a journal line, and on a shared host those
// fsyncs made the service figures swing by 2x between runs of one seed (see
// README.md, Known findings). The traced run still measures journal
// append+fsync, through the benchmark's own journal.
func startDaemon(dir string, id int) (*liveDaemon, error) {
	base := filepath.Join(dir, fmt.Sprintf("svc-%d-%d", os.Getpid(), id))
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	srv, err := daemon.New(daemon.Options{Fleet: serviceFleet})
	if err != nil {
		return nil, err
	}
	// A relative socket path keeps it under the unix socket path limit
	// wherever the checkout lives.
	sock := filepath.Join(base, "d.sock")
	if err := srv.ListenAndServe(sock); err != nil {
		return nil, err
	}
	d := &liveDaemon{srv: srv, client: daemonclient.New(sock), dir: base}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := d.client.Ping()
		if err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon never answered ping: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down and removes its directory.
func (d *liveDaemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := d.srv.Shutdown(ctx, false)
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

// submission is one client request and what came back.
type submission struct {
	spec  wire.SubmitSpec
	info  wire.RunInfo
	lines [][]byte
	err   error
	// submit is the Submit round trip; first the time from calling Submit
	// to the first record event; done the time from calling Submit to EOF.
	submit, first, done time.Duration
	busy                bool
}

// clientLoop is one closed-loop client: it submits its share of specs one
// at a time and follows each to EOF before submitting the next. With rec
// set it also times the client's layers and journals every received record.
func clientLoop(d *liveDaemon, subs []submission, client int, rec *recorder, journalDir string) {
	for i := client; i < len(subs); i += serviceClients {
		s := &subs[i]
		if rec == nil {
			followOne(d, s, nil, nil)
			continue
		}
		root := rec.start("q"+strconv.Itoa(i), "benchmark.submission", nil)
		followOne(d, s, rec, root)
		if s.err == nil {
			s.err = journal(rec, root, filepath.Join(journalDir, "q"+strconv.Itoa(i)+".jsonl"), s.lines)
		}
		root.end()
	}
}

// followOne submits s and follows its run to EOF.
func followOne(d *liveDaemon, s *submission, rec *recorder, root *open) {
	t0 := time.Now()
	var sp *open
	if rec != nil {
		sp = rec.start(root.req, "daemonclient.submit", root)
	}
	info, err := d.client.Submit(s.spec)
	if sp != nil {
		sp.end()
	}
	t1 := time.Now()
	s.submit = t1.Sub(t0)
	if err != nil {
		s.err = err
		// The client sees the daemon's ErrBusy only as its message.
		s.busy = strings.Contains(err.Error(), daemon.ErrBusy.Error())
		return
	}
	var attach *open
	if rec != nil {
		attach = rec.start(root.req, "daemon.attach", root)
	}
	var firstAt time.Time
	var buf bytes.Buffer
	final, err := d.client.Attach(context.Background(), info.ID, 0, func(ev wire.Event) error {
		if ev.Type != wire.EventRecord {
			return nil
		}
		if firstAt.IsZero() {
			firstAt = time.Now()
			if rec != nil {
				rec.add("daemon.first_record_wait", "daemon.attach", firstAt.Sub(t1))
			}
		}
		s.lines = append(s.lines, append([]byte(nil), ev.Record...))
		if rec != nil {
			// The event as the daemon framed it, re-encoded and decoded
			// through a buffer: the wire layer's per-event cost.
			f0 := time.Now()
			if err := wire.WriteFrame(&buf, ev); err != nil {
				return err
			}
			if _, err := wire.ReadEvent(&buf); err != nil {
				return err
			}
			d := time.Since(f0)
			rec.add("wire.frame", "daemon.attach", d)
			if rec.dist["wire.frame"] == nil {
				rec.dist["wire.frame"] = newSampler()
			}
			rec.dist["wire.frame"].add(float64(d))
		}
		return nil
	})
	if attach != nil {
		attach.end()
	}
	s.done = time.Since(t0)
	s.info = final
	switch {
	case err != nil:
		s.err = err
	case firstAt.IsZero():
		s.err = fmt.Errorf("run %s ended without a record", info.ID)
	default:
		s.first = firstAt.Sub(t0)
	}
}

// journal appends a submission's received records to the benchmark's own
// resumable journal (fsync per record), as a client persisting its results
// would.
func journal(rec *recorder, root *open, path string, lines [][]byte) error {
	sp := rec.start(root.req, "campaign.journal_append", root)
	defer sp.end()
	log, err := campaign.OpenResumable(path)
	if err != nil {
		return err
	}
	for _, line := range lines {
		r, err := decodeRecord(line)
		if err != nil {
			log.Close()
			return err
		}
		if err := log.Append(r); err != nil {
			log.Close()
			return err
		}
	}
	return log.Close()
}

// servicePass runs every submission through a fresh daemon with
// serviceClients closed-loop clients and returns the loop's wall time and
// the daemon's engine-counter aggregate.
func servicePass(d *liveDaemon, specs []wire.SubmitSpec, rec *recorder, journalDir string) ([]submission, time.Duration, obs.Snapshot) {
	subs := make([]submission, len(specs))
	for i := range specs {
		subs[i].spec = specs[i]
	}
	recorders := make([]*recorder, serviceClients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		if rec != nil {
			recorders[c] = newRecorder(rec.epoch)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clientLoop(d, subs, c, recorders[c], journalDir)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if rec != nil {
		for _, r := range recorders {
			rec.merge(r)
		}
	}
	return subs, elapsed, d.srv.Metrics().Snapshot()
}

// runService runs the service workload: set-up (inputs plus daemon start up
// to its first successful ping, repeated), one closed-loop pass, the output
// checks, and with tracing a second, traced pass on a fresh daemon.
func runService(cfg config) (*run, error) {
	var specs []wire.SubmitSpec
	var d *liveDaemon
	starts := 0
	setup, err := timeSetup(func() error {
		var err error
		if specs, err = serviceSubmissions(cfg.seed, cfg.seconds, cfg.sizes); err != nil {
			return err
		}
		starts++
		d, err = startDaemon(cfg.dir, starts)
		return err
	}, func() error { return d.stop() })
	if err != nil {
		return nil, err
	}

	g0 := readGoStats()
	subs, elapsed, agg := servicePass(d, specs, nil, "")
	g1 := readGoStats()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}

	r := &run{attempted: len(subs), metrics: map[string]metric{}}
	var t tally
	v, err := verifySubmissions(subs, nil, &t)
	if err != nil {
		return nil, err
	}
	r.failed, r.digest, r.inputs = t.failed(), v.digest, v.inputs
	r.inputs.Activations = agg.Activated

	if !cfg.trace {
		var first, done []float64
		for _, s := range subs {
			if s.err == nil {
				first = append(first, ms(s.first))
				done = append(done, ms(s.done))
			}
		}
		secs := elapsed.Seconds()
		r.metrics["activations_per_s"] = metric{float64(agg.Activated) / secs, "1/s"}
		r.metrics["records_per_s"] = metric{float64(v.records) / secs, "1/s"}
		latencyMetrics(r.metrics, first, done)
		r.metrics["setup_s"] = metric{setup, "s"}
		r.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		return r, nil
	}

	// Traced pass: same inputs, a fresh daemon (untimed), client spans,
	// per-event frame round trips and a journal per submission; then the
	// traced replay reproduces every record in-process.
	d, err = startDaemon(cfg.dir, starts+1)
	if err != nil {
		return nil, err
	}
	journalDir := filepath.Join(d.dir, "journal")
	if err := os.MkdirAll(journalDir, 0o755); err != nil {
		d.stop()
		return nil, err
	}
	rec := newRecorder(time.Now())
	tsubs, telapsed, _ := servicePass(d, specs, rec, journalDir)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}
	tv, err := verifySubmissions(tsubs, rec, &t)
	if err != nil {
		return nil, err
	}
	if tv.digest != v.digest {
		t.fail(-1, fmt.Errorf("traced pass digest %s differs from untraced %s", tv.digest, v.digest))
	}
	r.failed = t.failed()

	m := r.metrics
	engineLayerMetrics(m, rec, tv.sim)
	m["trace_overhead"] = metric{telapsed.Seconds() / elapsed.Seconds(), "ratio"}
	goMetrics(m, g0, g1)
	var submit, wait, appendMS, execMS []float64
	busy := 0
	for _, s := range tsubs {
		if s.busy {
			busy++
		}
		if s.err == nil {
			submit = append(submit, ms(s.submit))
			wait = append(wait, ms(s.first-s.submit))
		}
	}
	for _, sp := range rec.spans {
		if sp.Name == "campaign.journal_append" {
			appendMS = append(appendMS, float64(sp.End-sp.Start)/1e6)
		}
	}
	execMS = tv.executeMS
	m["daemonclient.submit_ms.p50"] = metric{percentile(submit, 50), "ms"}
	m["daemonclient.submit_ms.p90"] = metric{percentile(submit, 90), "ms"}
	m["daemon.first_record_wait_ms.p50"] = metric{percentile(wait, 50), "ms"}
	m["daemon.first_record_wait_ms.p90"] = metric{percentile(wait, 90), "ms"}
	m["campaign.execute_ms.p50"] = metric{percentile(execMS, 50), "ms"}
	m["campaign.execute_ms.p90"] = metric{percentile(execMS, 90), "ms"}
	journalMetrics(m, appendMS)
	var frames []float64
	if s := rec.dist["wire.frame"]; s != nil {
		frames = s.vals
	}
	m["wire.frame_us.p50"] = metric{percentile(frames, 50) / 1e3, "us"}
	m["daemon.busy_rejections"] = metric{float64(busy), "count"}
	m["graph.churn_ops"] = metric{float64(tv.churnOps), "count"}
	selfMetrics(m, rec)
	r.spans = rec
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// verified is the outcome of checking a pass's submissions.
type verified struct {
	records, churnOps int
	digest            string
	inputs            workloadInputs
	// With tracing: the traced replay's AlgAU counters and the in-process
	// campaign.Execute time of each submission.
	sim       obs.Snapshot
	executeMS []float64
}

// localRun is a submission's scenarios executed in-process, with the wall
// time of that execution.
type localRun struct {
	scs  []campaign.Scenario
	recs []campaign.Record
	ms   float64
}

// executeLocally runs every accepted submission's scenarios through
// in-process campaign.Execute on serviceClients goroutines. With rec set it
// books each submission's execution as a campaign.execute span.
func executeLocally(subs []submission, rec *recorder) ([]localRun, error) {
	out := make([]localRun, len(subs))
	starts := make([]time.Time, len(subs))
	errs := make([]error, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(subs); i += serviceClients {
				if subs[i].err != nil {
					continue
				}
				scs, err := subs[i].spec.Scenarios()
				if err != nil {
					errs[c] = err
					return
				}
				starts[i] = time.Now()
				recs := make([]campaign.Record, len(scs))
				for j, sc := range scs {
					recs[j] = campaign.Execute(context.Background(), sc)
				}
				out[i] = localRun{scs: scs, recs: recs, ms: ms(time.Since(starts[i]))}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if rec != nil {
		for i, l := range out {
			if l.scs == nil {
				continue
			}
			d := time.Duration(l.ms * float64(time.Millisecond))
			start := int64(starts[i].Sub(rec.epoch))
			rec.spans = append(rec.spans, span{
				ID: len(rec.spans) + 1, Req: "q" + strconv.Itoa(i), Name: "campaign.execute",
				Start: start, End: start + int64(d),
			})
			rec.add("campaign.execute", "", d)
		}
	}
	return out, nil
}

// verifySubmissions checks every submission: it must have been accepted and
// finished done with one record per scenario, every record must pass
// checkRecord, and each record must be byte-identical to an in-process
// campaign.Execute of the same scenario. With rec set, it times those
// Execute calls and reproduces each scenario through the traced replay too.
func verifySubmissions(subs []submission, rec *recorder, t *tally) (verified, error) {
	var v verified
	var lines [][]byte
	lo, hi := -1, -1
	var scsAll []campaign.Scenario
	var recsAll []campaign.Record
	var owner []int // submission index of each scsAll entry
	local, err := executeLocally(subs, rec)
	if err != nil {
		return v, err
	}
	for i, s := range subs {
		if s.err != nil {
			t.fail(i, s.err)
			continue
		}
		scs := local[i].scs
		if s.info.State != wire.StateDone || len(s.lines) != len(scs) || s.info.Failures != 0 {
			t.fail(i, fmt.Errorf("run %s ended %s with %d/%d records, %d failures",
				s.info.ID, s.info.State, len(s.lines), len(scs), s.info.Failures))
			continue
		}
		if rec != nil {
			v.executeMS = append(v.executeMS, local[i].ms)
		}
		for j, line := range s.lines {
			got, err := decodeRecord(line)
			if err != nil {
				t.fail(i, err)
				continue
			}
			want, err := streamLine(local[i].recs[j])
			if err != nil {
				return v, err
			}
			if !bytes.Equal(append(line, '\n'), want) {
				t.fail(i, fmt.Errorf("streamed record differs from in-process Execute:\n%s\nvs\n%s", line, want))
				continue
			}
			if err := checkRecord(got); err != nil {
				t.fail(i, err)
				continue
			}
			v.records++
			v.churnOps += got.ChurnOps
			v.inputs.M += int64(got.M)
			if lo < 0 || got.N < lo {
				lo = got.N
			}
			hi = max(hi, got.N)
			lines = append(lines, append(line, '\n'))
			scsAll = append(scsAll, scs[j])
			recsAll = append(recsAll, local[i].recs[j])
			owner = append(owner, i)
		}
	}
	if rec != nil {
		trec, sim, _, errs := traceScenarios(scsAll, recsAll)
		for k, err := range errs {
			if err != nil {
				t.fail(owner[k], err)
			}
		}
		v.sim = sim
		rec.merge(trec)
	}
	v.digest = digest(lines)
	v.inputs.Requests = len(subs)
	v.inputs.Scenarios = len(lines)
	v.inputs.N = nRange(lo, hi)
	return v, nil
}
