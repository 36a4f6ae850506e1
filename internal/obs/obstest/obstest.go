// Package obstest holds the test assertions of the engines' counter
// publication contract (see obs.Tally): a metric set is exact at every
// boundary and lags the engine by less than obs.PublishEvery in between.
// The reference is a TraceEvery=1 obs.Mem sink, which sees every step as it
// completes.
package obstest

import (
	"testing"

	"thinunison/internal/obs"
)

// Sums adds up the per-step counters of a TraceEvery=1 sink.
func Sums(sink *obs.Mem) (s obs.Snapshot) {
	for _, x := range sink.Samples {
		s.Steps++
		s.Activated += uint64(x.Activated)
		s.Evaluated += uint64(x.Evaluated)
		s.Changes += uint64(x.Changes)
	}
	return s
}

// Exact requires mx, read directly rather than through an engine accessor,
// to carry exactly the traced step counters, the gauges of the last traced
// step, and every counter and gauge of ref: the same run's metric set
// published after every single step.
func Exact(t testing.TB, at string, mx *obs.Metrics, sink *obs.Mem, ref obs.Snapshot) {
	t.Helper()
	got, sums := mx.Snapshot(), Sums(sink)
	if got.Steps != sums.Steps || got.Activated != sums.Activated ||
		got.Evaluated != sums.Evaluated || got.Changes != sums.Changes {
		t.Fatalf("%s: published steps/activated/evaluated/changes %d/%d/%d/%d, traced %d/%d/%d/%d", at,
			got.Steps, got.Activated, got.Evaluated, got.Changes,
			sums.Steps, sums.Activated, sums.Evaluated, sums.Changes)
	}
	if n := len(sink.Samples); n > 0 {
		last := sink.Samples[n-1]
		if got.Rounds != uint64(last.Round) || got.FrontierSize != uint64(max(last.Frontier, 0)) {
			t.Fatalf("%s: gauges rounds/frontier %d/%d, last step traced %d/%d", at,
				got.Rounds, got.FrontierSize, last.Round, last.Frontier)
		}
	}
	if got != ref {
		t.Fatalf("%s: published metrics differ from the per-step reference:\n got %+v\nwant %+v", at, got, ref)
	}
}

// Lag requires the published counters to trail the traced ones by less than
// obs.PublishEvery steps plus activations, and never to run ahead of them.
func Lag(t testing.TB, at string, mx *obs.Metrics, sink *obs.Mem) {
	t.Helper()
	got, sums := mx.Snapshot(), Sums(sink)
	if got.Steps > sums.Steps || got.Activated > sums.Activated {
		t.Fatalf("%s: published counters run ahead of the trace", at)
	}
	if lag := sums.Steps - got.Steps + sums.Activated - got.Activated; lag >= obs.PublishEvery {
		t.Fatalf("%s: publication lags by %d steps plus activations, want < %d", at, lag, obs.PublishEvery)
	}
}
