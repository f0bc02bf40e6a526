package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

// expectations are the recorded reference values of the benchmark.
type expectations struct {
	DefaultSeed int64             `json:"default_seed"`
	HeldOutSeed int64             `json:"held_out_seed"`
	Digests     map[string]string `json:"digests"` // workload → digest at the default seed
}

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are a run's settings.
type runOpts struct {
	seed    int64
	seconds time.Duration
	workdir string // scratch directory for checkpoints and exports
	spans   string // where the traced run writes its spans ("" = nowhere)
	expect  string // digest the first pass must match ("" = none)
}

// checks collects correctness failures; any one fails the run.
type checks struct{ problems []string }

func (c *checks) failf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (fig6, swarm64, chaos)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "how long to measure")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/run", "scratch directory for checkpoints and exports")
	compare := fs.Bool("compare", false, "compare two directories of runs: --compare PARENT CHANGE")
	pass := fs.Bool("pass", false, "internal: measure one untraced pass in --workdir and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pass {
		w, err := newWorkload(*workload, *seed, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		pm, err := measurePass(w, *workdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		line, err := json.Marshal(pm)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two run directories")
			return 2
		}
		if err := compareRuns(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	exps, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*workload, *seed, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *seed == exps.DefaultSeed {
		o.expect = exps.Digests[w.name]
		if o.expect == "" {
			fmt.Fprintf(os.Stderr, "perfbench: expected.json has no digest for %s\n", w.name)
			return 1
		}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.workdir, err = os.MkdirTemp(*workdir, w.name+"-"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.workdir)

	var res result
	var c checks
	if *traced == 1 {
		o.spans = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", w.name, *seed)
		res, err = runTraced(w, o, &c)
	} else {
		res, err = runE2E(w, o, &c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = len(c.problems) == 0
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-28s %14.6g %s\n", w.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
