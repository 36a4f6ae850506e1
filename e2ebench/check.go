package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"thinunison/internal/campaign"
	"thinunison/internal/obs"
)

// checkRecord verifies one record: it must be ok, and its stabilization and
// recovery rounds must lie within the paper's round budget it carries.
func checkRecord(rec campaign.Record) error {
	switch {
	case !rec.OK:
		return fmt.Errorf("scenario %d (%s n=%d seed=%d) failed: %s", rec.Scenario, rec.Algorithm, rec.N, rec.Seed, rec.Err)
	case rec.Budget <= 0:
		return fmt.Errorf("scenario %d has no round budget", rec.Scenario)
	case rec.Rounds > rec.Budget:
		return fmt.Errorf("scenario %d took %d rounds, over its budget %d", rec.Scenario, rec.Rounds, rec.Budget)
	case rec.RecoveryRounds > rec.Budget:
		return fmt.Errorf("scenario %d recovered in %d rounds, over its budget %d", rec.Scenario, rec.RecoveryRounds, rec.Budget)
	}
	return nil
}

// tally counts the requests (scenarios or submissions) that failed an
// output check, each once however many checks it failed, and reports the
// first few failures on standard error.
type tally struct {
	bad map[int]bool
}

// maxReported bounds the failures a tally prints.
const maxReported = 5

func (t *tally) fail(req int, err error) {
	if t.bad == nil {
		t.bad = map[int]bool{}
	}
	if !t.bad[req] && len(t.bad) < maxReported {
		fmt.Fprintf(os.Stderr, "e2ebench: check: request %d: %v\n", req, err)
	}
	t.bad[req] = true
}

func (t *tally) failed() int { return len(t.bad) }

// canonicalLine is the byte-comparable JSONL form of a record: wall time
// and harness counters zeroed, engine block cut to its trajectory counters.
func canonicalLine(rec campaign.Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := campaign.AppendJSONL(&buf, rec.Canonical()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// streamLine is the JSONL line a runner streams for rec (no wall time, no
// engine block) — what cmd/campaign writes and what the daemon journals.
func streamLine(rec campaign.Record) ([]byte, error) {
	rec.WallMS = 0
	rec.Engine = nil
	var buf bytes.Buffer
	if err := campaign.AppendJSONL(&buf, rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// digest hashes a workload's record lines in order. Equal seeds must give
// equal digests.
func digest(lines [][]byte) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares a run's digest against an expected one ("" skips).
func checkDigest(got, want string) error {
	if want != "" && got != want {
		return fmt.Errorf("record digest %s differs from the expected %s", got, want)
	}
	return nil
}

// checkOutcome compares the traced replay's reproduction of a scenario with
// the record the untraced runner produced, trajectory counters included.
func checkOutcome(rec campaign.Record, out outcome, traj obs.Snapshot) error {
	want := outcome{
		N: rec.N, M: rec.M, D: rec.D, Diameter: rec.Diameter,
		Rounds: rec.Rounds, Steps: rec.Steps, RecoveryRounds: rec.RecoveryRounds,
		Budget: rec.Budget, ChurnOps: rec.ChurnOps, ChurnSkipped: rec.ChurnSkipped,
		OK: rec.OK, Err: rec.Err,
	}
	if out != want {
		return fmt.Errorf("scenario %d: traced replay gave %+v, runner recorded %+v", rec.Scenario, out, want)
	}
	if rec.Engine != nil && traj != rec.Engine.Trajectory() {
		return fmt.Errorf("scenario %d: traced trajectory counters %+v differ from the runner's %+v",
			rec.Scenario, traj, rec.Engine.Trajectory())
	}
	return nil
}

// decodeRecord parses one streamed record line.
func decodeRecord(line []byte) (campaign.Record, error) {
	var rec campaign.Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("decode record: %w", err)
	}
	return rec, nil
}
