// Command rmrbench regenerates the RMR-complexity experiments (E1-E4
// in DESIGN.md) on the cache-coherent simulator: it executes the
// paper's algorithms and the baselines across process-count sweeps
// and prints RMRs per passage by role, demonstrating Theorems 1-5
// (flat, constant rows) against the growing baseline rows.  Each
// experiment is a one-system simulator scenario run through
// harness.RunScenario, the engine rwbench's scenarios use.
//
// Usage:
//
//	rmrbench [-attempts N] [-seed S] [-algo name] [-markdown]
//
// With no -algo, all experiments run in DESIGN.md order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"rwsync/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rmrbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rmrbench", flag.ContinueOnError)
	attempts := fs.Int("attempts", 16, "attempts per process at each sweep point")
	seed := fs.Int64("seed", 1, "scheduler seed")
	algo := fs.String("algo", "", "run a single algorithm (fig1-swwp, fig2-swrp, mwsf, mwrp, mwwp, centralized, pfticket, tournament)")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
	dsm := fs.Bool("dsm", false, "also run E9: the same sweeps under the DSM model (expect unbounded growth)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	type experiment struct {
		id     string
		name   string
		points [][2]int
	}
	experiments := []experiment{
		{"E1", "fig1-swwp", harness.SingleWriterPoints()},
		{"E2", "fig2-swrp", harness.SingleWriterPoints()},
		{"E3a", "mwsf", harness.MultiWriterPoints()},
		{"E3b", "mwrp", harness.MultiWriterPoints()},
		{"E3c", "mwwp", harness.MultiWriterPoints()},
		{"E4a", "centralized", harness.MultiWriterPoints()},
		{"E4b", "tournament", harness.MultiWriterPoints()},
		{"E4c", "pfticket", harness.MultiWriterPoints()},
	}
	builders := harness.Builders()

	if *algo != "" {
		if _, ok := builders[*algo]; !ok {
			names := make([]string, 0, len(builders))
			for n := range builders {
				names = append(names, n)
			}
			sort.Strings(names)
			return fmt.Errorf("unknown algorithm %q (have %v)", *algo, names)
		}
		var kept []experiment
		for _, e := range experiments {
			if e.name == *algo {
				kept = append(kept, e)
			}
		}
		experiments = kept
	}

	// sweep runs one system over points as a simulator scenario and
	// prints its RMR table.
	sweep := func(id, system string, points [][2]int, dsm bool, title string) error {
		res, err := harness.RunScenario(harness.Scenario{
			Name: id,
			Sim:  &harness.SimShape{Systems: []string{system}, Points: points, Attempts: *attempts, DSM: dsm},
		}, harness.ScenarioOptions{Seed: *seed})
		if err != nil {
			return err
		}
		t := harness.RMRTable(title, res.Points)
		if *markdown {
			fmt.Fprintln(out, t.Markdown())
		} else {
			fmt.Fprintln(out, t.Render())
		}
		return nil
	}
	for _, e := range experiments {
		title := fmt.Sprintf("%s: %s — RMRs per passage (CC model, %d attempts/proc, seed %d)",
			e.id, e.name, *attempts, *seed)
		if err := sweep(e.id, e.name, e.points, false, title); err != nil {
			return err
		}
	}
	if *dsm {
		for _, name := range []string{"fig1-swwp", "fig2-swrp"} {
			title := fmt.Sprintf("E9: %s under the DSM model — the O(1) bound is CC-specific "+
				"(Danek-Hadzilacos: sublinear DSM is impossible)", name)
			if err := sweep("E9", name, harness.SingleWriterPoints(), true, title); err != nil {
				return err
			}
		}
	}
	return nil
}
