package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/obs"
)

// catalog is the metric list of the repository's BENCHMARK.json.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadCatalog(t *testing.T) catalog {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c catalog
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// invoke runs the benchmark in-process at tiny sizes and returns its exit
// code, its final result line and its whole standard output.
func invoke(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--tiny", "--seconds", "1", "--dir", t.TempDir()}, args...)
	code := mainErr(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	c := loadCatalog(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			code, res, out := invoke(t, "--workload", w.Name, "--seed", "5", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v", w.Name, trace, code, res)
			}
			want := c.EndToEnd
			if trace == "1" {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, m.Name) {
					t.Errorf("%s trace=%s: report does not print %s", w.Name, trace, m.Name)
				}
			}
		}
	}
}

func TestDigestRepeatsAndCorruptDigestIsRejected(t *testing.T) {
	digestOf := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, "stamp "); ok {
				var st stamp
				if err := json.Unmarshal([]byte(rest), &st); err != nil {
					t.Fatal(err)
				}
				return st.Digest
			}
		}
		t.Fatal("no stamp line")
		return ""
	}
	_, _, out := invoke(t, "--workload", "sparse-steps", "--seed", "9")
	d := digestOf(out)
	code, res, _ := invoke(t, "--workload", "sparse-steps", "--seed", "9", "--expect-digest", d)
	if code != 0 || !res.Correct {
		t.Fatalf("same seed, same digest: exit %d correct %v", code, res.Correct)
	}
	bad := strings.Repeat("0", len(d))
	code, res, _ = invoke(t, "--workload", "sparse-steps", "--seed", "9", "--expect-digest", bad)
	if code == 0 || res.Correct {
		t.Fatalf("corrupted digest accepted: exit %d correct %v", code, res.Correct)
	}
	if _, _, out := invoke(t, "--workload", "sparse-steps", "--seed", "10"); digestOf(out) == d {
		t.Fatal("different seeds gave the same digest")
	}
}

func TestCorruptedRecordsAreRejected(t *testing.T) {
	sc := sparseScenarios(3, 1, tinySizes)[0]
	rec := campaign.Execute(context.Background(), sc)
	if err := checkRecord(rec); err != nil {
		t.Fatalf("good record rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*campaign.Record){
		"not ok":          func(r *campaign.Record) { r.OK = false },
		"rounds":          func(r *campaign.Record) { r.Rounds = r.Budget + 1 },
		"recovery rounds": func(r *campaign.Record) { r.RecoveryRounds = r.Budget + 1 },
		"no budget":       func(r *campaign.Record) { r.Budget = 0 },
	} {
		bad := rec
		corrupt(&bad)
		if err := checkRecord(bad); err == nil {
			t.Errorf("%s: corrupted record accepted", name)
		}
	}

	// The traced replay's reproduction must match the record exactly.
	mx := &obs.Metrics{}
	out := traceScenario(newRecorder(time.Now()), sc, mx)
	if err := checkOutcome(rec, out, mx.Snapshot().Trajectory()); err != nil {
		t.Fatalf("faithful reproduction rejected: %v", err)
	}
	out.Steps++
	if err := checkOutcome(rec, out, mx.Snapshot().Trajectory()); err == nil {
		t.Error("reproduction with a wrong step count accepted")
	}
}

func TestCorruptedServiceRecordIsRejected(t *testing.T) {
	specs, err := serviceSubmissions(4, 1, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	// Stand-in for a daemon reply: the records an honest daemon streams.
	subs := make([]submission, 2)
	for i := range subs {
		subs[i].spec = specs[i]
		scs, err := specs[i].Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		subs[i].info = wire.RunInfo{State: wire.StateDone, Scenarios: len(scs), Done: len(scs)}
		for _, sc := range scs {
			line, err := streamLine(campaign.Execute(context.Background(), sc))
			if err != nil {
				t.Fatal(err)
			}
			subs[i].lines = append(subs[i].lines, bytes.TrimSuffix(line, []byte("\n")))
		}
	}
	var honest tally
	if _, err := verifySubmissions(subs, nil, &honest); err != nil || honest.failed() != 0 {
		t.Fatalf("honest replies rejected: failed=%d err=%v", honest.failed(), err)
	}
	subs[1].lines[0] = bytes.Replace(subs[1].lines[0], []byte(`"steps":`), []byte(`"steps":1`), 1)
	var corrupt tally
	if _, err := verifySubmissions(subs, nil, &corrupt); err != nil || !corrupt.bad[1] || corrupt.failed() != 1 {
		t.Fatalf("corrupted record: failed=%d err=%v, want submission 1 rejected", corrupt.failed(), err)
	}
}
