package main

import (
	"fmt"
	"math"
	"math/rand"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/graph"
)

// sizes are the node counts and per-second input rates of the workloads.
// The full sizes are the benchmark's; the tiny ones keep the benchmark's own
// test fast while running every code path.
type sizes struct {
	sparseN, denseN, taskN, syncN int
	// Inputs generated per second of --seconds, calibrated so one run
	// measures about --seconds on a 2-core box; dense-steps about twice
	// that, because its throughput depends on each seed's mix of long and
	// short scenarios and needs twice the compositions to average it out.
	sparsePerS, densePerS, tasksPerS, servicePerS float64
}

var (
	fullSizes = sizes{
		sparseN: 2_000, denseN: 100_000, taskN: 10_000, syncN: 1_000,
		sparsePerS: 40, densePerS: 0.8, tasksPerS: 0.5, servicePerS: 300,
	}
	tinySizes = sizes{
		sparseN: 300, denseN: 2_000, taskN: 300, syncN: 60,
		sparsePerS: 4, densePerS: 1, tasksPerS: 1, servicePerS: 40,
	}
)

// units is the number of inputs a run generates: rate per second times
// --seconds, at least min. It depends only on the flags, never on measured
// time, so a seed always yields the same inputs.
func units(perS float64, seconds, min int) int {
	return max(min, int(math.Round(perS*float64(seconds))))
}

// sparseScenarios is the sparse-steps input: AlgAU trials on boundedD (D=4)
// under round-robin with two bursts of 16 faults. Every step activates one
// node, so per-step fixed costs dominate.
func sparseScenarios(seed int64, seconds int, sz sizes) []campaign.Scenario {
	return campaign.Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD},
		Sizes:          []int{sz.sparseN},
		DiameterBounds: []int{4},
		Schedulers:     []campaign.SchedulerSpec{campaign.RoundRobin},
		Algorithms:     []campaign.Algorithm{campaign.AlgAU},
		Faults:         []campaign.FaultSpec{{Count: 16, Bursts: 2}},
		Trials:         units(sz.sparsePerS, seconds, 2),
	}.Expand(seed)
}

// denseScenarios is the dense-steps input: repeated compositions of the
// scale-sweep AlgAU scenarios whose steps are Θ(n) or frontier-sized —
// synchronous star and boundedD, the period-3 laggard with fault bursts, and
// the period-128 straggler with soaks.
func denseScenarios(seed int64, seconds int, sz sizes) []campaign.Scenario {
	n := []int{sz.denseN}
	au := []campaign.Algorithm{campaign.AlgAU}
	bounded := []graph.Family{graph.FamilyBoundedD}
	composition := []campaign.Matrix{
		{Families: []graph.Family{graph.FamilyStar}, Sizes: n, Algorithms: au},
		{Families: bounded, Sizes: n, DiameterBounds: []int{4}, Algorithms: au},
		{
			Families: bounded, Sizes: n, DiameterBounds: []int{4}, Algorithms: au,
			Schedulers: []campaign.SchedulerSpec{campaign.Laggard},
			Faults:     []campaign.FaultSpec{{Count: 16, Bursts: 2}},
		},
		{
			Families: bounded, Sizes: n, DiameterBounds: []int{4}, Algorithms: au,
			Schedulers: []campaign.SchedulerSpec{{Kind: "laggard", Victim: 0, Period: 128}},
			Faults:     []campaign.FaultSpec{{Count: 16, Bursts: 2, SoakRounds: 8}},
		},
	}
	var ms []campaign.Matrix
	for c := units(sz.densePerS, seconds, 1); c > 0; c-- {
		ms = append(ms, composition...)
	}
	return campaign.Concat(seed, ms...)
}

// taskScenarios is the tasks input: repeated groups of the paper's
// applications on boundedD (D=3) with one 8-fault burst — LE and MIS on
// syncsim under the synchronous schedule, and their synchronized variants on
// asyncsim under random-subset.
func taskScenarios(seed int64, seconds int, sz sizes) []campaign.Scenario {
	bounded := []graph.Family{graph.FamilyBoundedD}
	burst := []campaign.FaultSpec{{Count: 8, Bursts: 1}}
	group := []campaign.Matrix{
		{
			Families: bounded, Sizes: []int{sz.taskN}, DiameterBounds: []int{3},
			Algorithms: []campaign.Algorithm{campaign.AlgLE, campaign.AlgMIS}, Faults: burst,
		},
		{
			Families: bounded, Sizes: []int{sz.syncN}, DiameterBounds: []int{3},
			Schedulers: []campaign.SchedulerSpec{campaign.RandomSubset},
			Algorithms: []campaign.Algorithm{campaign.AlgSyncLE, campaign.AlgSyncMIS}, Faults: burst,
		},
	}
	var ms []campaign.Matrix
	for g := units(sz.tasksPerS, seconds, 1); g > 0; g-- {
		ms = append(ms, group...)
	}
	return campaign.Concat(seed, ms...)
}

// servicePresets are the presets whose scenario points the service
// clients submit.
var servicePresets = []string{"smoke", "paper-table1", "fault-storm", "bio-churn"}

// serviceSubmissions is the service input: one single-scenario submission
// per unit, each a point of the service presets (expanded with the workload
// seed) with 1-4 trials and its own campaign seed.
func serviceSubmissions(seed int64, seconds int, sz sizes) ([]wire.SubmitSpec, error) {
	var pool []campaign.Scenario
	for _, p := range servicePresets {
		scs, err := campaign.Preset(p, seed)
		if err != nil {
			return nil, err
		}
		pool = append(pool, scs...)
	}
	rng := rand.New(rand.NewSource(seed))
	specs := make([]wire.SubmitSpec, units(sz.servicePerS, seconds, 4))
	for i := range specs {
		sc := pool[rng.Intn(len(pool))]
		specs[i] = wire.SubmitSpec{
			Scenario: &wire.ScenarioSpec{
				Family:    string(sc.Family),
				N:         sc.N,
				D:         sc.D,
				Scheduler: sc.Scheduler,
				Algorithm: string(sc.Algorithm),
				Faults:    sc.Faults,
				Churn:     sc.Churn,
				Trials:    1 + rng.Intn(4),
			},
			Seed: rng.Int63(),
		}
	}
	return specs, nil
}

// workloadInputs describes a run's inputs for the result stamp.
type workloadInputs struct {
	Requests    int    `json:"requests"`
	Scenarios   int    `json:"scenarios"`
	N           string `json:"n"`
	M           int64  `json:"m_total"`
	Activations uint64 `json:"activations"`
}

// nRange renders the node counts of the records, e.g. "100000" or "8-192".
func nRange(lo, hi int) string {
	if lo == hi {
		return fmt.Sprint(lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}
