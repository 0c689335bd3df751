// Command experiments regenerates the paper's evaluation (Section 7): every
// figure and table, plus the design-choice ablations, printed as the same
// rows/series the paper reports.
//
// Usage:
//
//	experiments [-full] [-run fig7,fig11,fig12,fig13,fig14,table1,ablations]
//
// The default -run value executes everything. Without -full the quick
// configuration runs (reduced workload sizes, identical shapes); with -full
// the paper-scale workloads run (120 tables, 1000 join pairs, ~3600
// aggregation queries — expect minutes of wall-clock time for the neural
// training).
//
// Independent experiments execute concurrently on up to GOMAXPROCS
// goroutines (GOMAXPROCS=1 runs them one after another); every result is
// identical either way, and output stays in the canonical order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"intellisphere/internal/experiments"
	"intellisphere/internal/parallel"
)

func main() {
	full := flag.Bool("full", false, "run the paper-scale configuration")
	only := flag.String("run", "all", "comma-separated experiments: fig7,fig11,fig12,fig13,fig14,table1,ablations")
	flag.Parse()
	if err := run(os.Stdout, *full, *only); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the experiments named in only (comma-separated, "all" for
// everything) and writes their reports to w in the canonical order.
func run(w io.Writer, full bool, only string) error {
	cfg := experiments.Quick()
	label := "quick"
	if full {
		cfg = experiments.Full()
		label = "full (paper-scale)"
	}
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "IntelliSphere cost-estimation evaluation — %s configuration\n", label)
	fmt.Fprintf(w, "remote: simulated Hive (%d data nodes × %d cores, %d tables)\n\n",
		env.Hive.Cluster().DataNodes, env.Hive.Cluster().CoresPerNode, len(env.Tables))

	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]

	type experiment struct {
		name string
		fn   func() (fmt.Stringer, error)
	}
	list := []experiment{
		{"fig7", func() (fmt.Stringer, error) { return experiments.RunFig7(env) }},
		{"fig11", func() (fmt.Stringer, error) { return experiments.RunFig11(env) }},
		{"fig12", func() (fmt.Stringer, error) { return experiments.RunFig12(env) }},
		{"fig13", func() (fmt.Stringer, error) { return experiments.RunFig13(env) }},
		{"fig14", func() (fmt.Stringer, error) { return experiments.RunFig14(env) }},
		{"table1", func() (fmt.Stringer, error) { return experiments.RunTable1(env) }},
	}
	if all || want["ablations"] {
		list = append(list, experiment{"ablations", func() (fmt.Stringer, error) { return runAblations(env) }})
	}

	var selected []experiment
	for _, e := range list {
		if all || want[e.name] {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments matched -run=%q", only)
	}

	// Every selected experiment reads the shared environment without mutating
	// it, so independent runs fan out across the pool; reports are rendered
	// eagerly and printed afterwards in the canonical order.
	type report struct {
		text string
		wall float64
	}
	reports, err := parallel.Map(len(selected), func(i int) (report, error) {
		start := time.Now()
		res, err := selected[i].fn()
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", selected[i].name, err)
		}
		return report{text: res.String(), wall: time.Since(start).Seconds()}, nil
	})
	if err != nil {
		return err
	}
	for i, r := range reports {
		fmt.Fprintf(w, "=== %s (%.1fs wall clock) ===\n%s\n", selected[i].name, r.wall, r.text)
	}
	return nil
}

// ablationsReport bundles the six ablation studies into one printable block.
type ablationsReport []fmt.Stringer

func (r ablationsReport) String() string {
	parts := make([]string, len(r))
	for i, s := range r {
		parts[i] = s.String()
	}
	return strings.Join(parts, "\n")
}

// runAblations executes the design-choice ablations concurrently and keeps
// their traditional output order.
func runAblations(env *experiments.Env) (fmt.Stringer, error) {
	runs := []func() (fmt.Stringer, error){
		func() (fmt.Stringer, error) { return experiments.RunLogOutputAblation(env) },
		func() (fmt.Stringer, error) { return experiments.RunAlphaAblation(env) },
		func() (fmt.Stringer, error) { return experiments.RunPolicyAblation(env) },
		func() (fmt.Stringer, error) { return experiments.RunNeighborKAblation(env, nil) },
		func() (fmt.Stringer, error) { return experiments.RunTopologyAblation(env) },
		func() (fmt.Stringer, error) { return experiments.RunTrainingSizeCurve(env, nil) },
	}
	out, err := parallel.Map(len(runs), func(i int) (fmt.Stringer, error) {
		return runs[i]()
	})
	if err != nil {
		return nil, err
	}
	return ablationsReport(out), nil
}
