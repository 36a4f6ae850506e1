// Command experiments regenerates the paper's evaluation artifacts — Table
// 1, Figures 1 and 2, and the empirical validations of Theorems 1.1, 1.3,
// 1.4, 3.1 and Corollary 1.2 (the README's "Package map" lists them under
// internal/experiments):
//
//	experiments                # run everything
//	experiments -run E1        # a single experiment
//	experiments -quick         # trimmed sweeps (seconds instead of minutes)
//
// Each experiment prints one or more tables and an OK/FAILED verdict on its
// acceptance criterion; the process exits non-zero if any verdict failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"thinunison/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		only   = flag.String("run", "", "comma-separated experiment IDs (T1,F1,F2,E1..E9,V1); empty = all")
		asJSON = flag.Bool("json", false, "emit results as JSON instead of tables")
		quick  = flag.Bool("quick", false, "trimmed sweeps for a fast pass")
		seed   = flag.Int64("seed", 1, "root random seed")
		trials = flag.Int("trials", 0, "trials per parameter point (0 = default)")
		maxD   = flag.Int("maxd", 0, "largest diameter bound in E1 (0 = default)")
		maxN   = flag.Int("maxn", 0, "largest node count in E2/E3 (0 = default)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seed:   *seed,
		Quick:  *quick,
		Trials: *trials,
		MaxD:   *maxD,
		MaxN:   *maxN,
	}

	all := map[string]func(experiments.Config) (experiments.Result, error){
		"T1": experiments.T1, "F1": experiments.F1, "F2": experiments.F2,
		"E1": experiments.E1, "E2": experiments.E2, "E3": experiments.E3,
		"E4": experiments.E4, "E5": experiments.E5, "E6": experiments.E6,
		"E7": experiments.E7, "E8": experiments.E8, "E9": experiments.E9,
		"V1": experiments.V1,
	}
	order := []string{"T1", "F1", "F2", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "V1"}

	selected := order
	if *only != "" {
		selected = nil
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := all[id]; !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (known: %s)\n",
					id, strings.Join(order, ", "))
				return 2
			}
			selected = append(selected, id)
		}
	}

	failed := 0
	var results []experiments.Result
	for _, id := range selected {
		res, err := all[id](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			return 1
		}
		if *asJSON {
			results = append(results, res)
		} else {
			fmt.Println(res.Render())
		}
		if !res.OK {
			failed++
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: encode: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) FAILED\n", failed)
		return 1
	}
	return 0
}
