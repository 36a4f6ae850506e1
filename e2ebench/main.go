// Command e2ebench is the repository's end-to-end benchmark. One invocation
// runs one named workload from a workload seed for about --seconds, checks
// every output, and prints its metrics; with --trace 1 it also re-runs the
// workload through its own traced replay and prints the per-layer breakdown.
// See README.md for the workloads, the metric catalog and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records what a result was measured on and with which inputs.
type stamp struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       bool           `json:"trace"`
	NumCPU      int            `json:"num_cpu"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	GitRevision string         `json:"git_revision"`
	Inputs      workloadInputs `json:"inputs"`
	Digest      string         `json:"digest"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sizes    sizes
	// expectDigest, when set, must equal the run's record digest.
	expectDigest string
	// dir receives the daemon state, journals and trace files of the run.
	dir string
}

// run is what a workload hands back: its metrics, the request tally, the
// record digest and the input description.
type run struct {
	metrics   map[string]metric
	attempted int
	failed    int
	digest    string
	inputs    workloadInputs
	// spans, when tracing, is written out after the run.
	spans *recorder
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*run, error){
	"sparse-steps": runSparse,
	"dense-steps":  runDense,
	"tasks":        runTasks,
	"service":      runService,
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sizes: fullSizes}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: sparse-steps, dense-steps, tasks or service")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; all inputs derive from it")
	fs.IntVar(&cfg.seconds, "seconds", 15, "run length in seconds; the input count scales with it")
	trace := fs.Int("trace", 0, "1 re-runs the workload traced and reports per-layer metrics instead of end-to-end ones")
	tiny := fs.Bool("tiny", false, "tiny graph sizes (the benchmark's own test)")
	fs.StringVar(&cfg.expectDigest, "expect-digest", "", "fail unless the records hash to this digest")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "e2ebench"), "directory for daemon state, journals and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tiny {
		cfg.sizes = tinySizes
	}
	cfg.trace = *trace == 1
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}

	r, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	correct := r.failed == 0
	if err := checkDigest(r.digest, cfg.expectDigest); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		correct = false
	}
	base := filepath.Join(cfg.dir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, *trace))
	if r.spans != nil {
		if err := r.spans.writeSpans(base + ".spans.jsonl"); err != nil {
			fmt.Fprintln(stderr, "e2ebench: write spans:", err)
			return 1
		}
	}
	st := stamp{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRevision: gitRevision(),
		Inputs: r.inputs, Digest: r.digest,
	}
	res := result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	report(stdout, st, res)
	full, _ := json.MarshalIndent(struct {
		Stamp  stamp  `json:"stamp"`
		Result result `json:"result"`
	}{st, res}, "", "  ")
	if err := os.WriteFile(base+".json", append(full, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "e2ebench: write result:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// report prints the stamp and every metric by name with its unit.
func report(w io.Writer, st stamp, res result) {
	js, _ := json.Marshal(st)
	fmt.Fprintf(w, "stamp %s\n", js)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// gitRevision is the commit checked out in the current directory's .git,
// read from the files directly (the benchmark runs from the checkout root
// and starts no processes); "unknown" outside a git checkout.
func gitRevision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats is a reading of the Go runtime's allocation and GC counters.
type goStats struct {
	allocBytes, gcCycles uint64
	pause                time.Duration
}

func readGoStats() goStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{
		allocBytes: samples[0].Value.Uint64(),
		gcCycles:   samples[1].Value.Uint64(),
		pause:      time.Duration(ms.PauseTotalNs),
	}
}

// goMetrics reports the runtime deltas between two readings.
func goMetrics(m map[string]metric, a, b goStats) {
	m["go.alloc_mb"] = metric{float64(b.allocBytes-a.allocBytes) / (1 << 20), "MB"}
	m["go.gc_cycles"] = metric{float64(b.gcCycles - a.gcCycles), "count"}
	m["go.gc_pause_s"] = metric{(b.pause - a.pause).Seconds(), "s"}
}

// A run performs its set-up at least setupRepeats times and until the
// repetitions span setupWindow; setup_s is their median. One set-up of a few
// milliseconds samples the shared host at a single moment, so its median
// would move with the host's speed in that moment; spreading the
// repetitions over half a second averages that out, and the median ignores
// slow repetitions (first-touch page faults, a GC, a burst of CPU steal).
const (
	setupRepeats = 11
	setupWindow  = 500 * time.Millisecond
)

// timeSetup runs setup as described above and returns the median duration
// in seconds. teardown (untimed) undoes every set-up but the last, whose
// products the run goes on to use.
func timeSetup(setup func() error, teardown func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		if len(ds) >= setupRepeats && time.Since(start) >= setupWindow {
			return median(ds), nil
		}
		if teardown != nil {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
	}
}
