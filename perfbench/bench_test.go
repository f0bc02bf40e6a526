package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The benchmark's names follow the grammar and match BENCHMARK.json, in
// order, with the same units and workload reasons.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, wl.Name, workloadNames[i])
		}
		w, err := newWorkload(wl.Name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wl.Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json why %q, benchmark %q", wl.Name, wl.Why, w.why)
		}
	}
	check := func(kind string, gotNames, gotUnits []string, want []metricDef) {
		if len(gotNames) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(gotNames), len(want))
			return
		}
		for i, d := range want {
			if gotNames[i] != d.name || gotUnits[i] != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, gotNames[i], gotUnits[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", names, units, endToEnd)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", names, units, perLayer)

	seen := map[string]bool{}
	for _, n := range append(append(names, workloadNames...), metricNames(endToEnd)...) {
		if !nameGrammar.MatchString(n) {
			t.Errorf("name %q breaks the [A-Za-z0-9_.-] grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

// On a 2-segment version of every workload, the traced mirror reproduces
// the facade's trial results bit for bit, at one and at two workers, and
// its deterministic counts do not depend on the worker count.
func TestMirrorEquivalence(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			ref, err := runPass(w, dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			var c checks
			checkResume(w, dir, ref, &c)
			var counts []map[string]float64
			for _, workers := range []int{1, 2} {
				p, err := tracedPass(w, dir, ref, workers, time.Now(), &c)
				if err != nil {
					t.Fatal(err)
				}
				counts = append(counts, p.values)
			}
			for _, p := range c.problems {
				t.Error(p)
			}
			for _, d := range perLayer {
				if d.det && counts[0][d.name] != counts[1][d.name] {
					t.Errorf("%s: %v at one worker, %v at two", d.name, counts[0][d.name], counts[1][d.name])
				}
			}
			if counts[0]["sim.events"] == 0 || counts[0]["abr.decide_calls"] == 0 || counts[0]["cc.calls"] == 0 {
				t.Errorf("probes recorded nothing: %v", counts[0])
			}
			if name == "chaos" && counts[0]["netem.impair_calls"] == 0 {
				t.Error("chaos: no impairment calls recorded")
			}
		})
	}
}

// The untraced run (its set-up and a pass, in process) installs no probes
// and starts no profiler and reports every end-to-end metric; the traced
// run does both and reports every per-layer metric.
func TestUntracedInstallsNothing(t *testing.T) {
	w, err := newWorkload("chaos", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := runOpts{seed: 2, seconds: time.Nanosecond, workdir: t.TempDir()}
	probes, profiles := probesInstalled.Load(), profilesStarted.Load()
	var c checks
	setups, err := setUp(w, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := measurePass(w, o.workdir)
	if err != nil {
		t.Fatal(err)
	}
	c.problems = append(c.problems, pm.Problems...)
	res := summarize(setups, []passMeasure{pm})
	if got := probesInstalled.Load() - probes; got != 0 {
		t.Errorf("untraced run installed %d probes", got)
	}
	if got := profilesStarted.Load() - profiles; got != 0 {
		t.Errorf("untraced run started %d profiles", got)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("untraced run lacks %s", d.name)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}

	res, err = runTraced(w, o, &c)
	if err != nil {
		t.Fatal(err)
	}
	if probesInstalled.Load() == probes || profilesStarted.Load() == profiles {
		t.Error("traced run installed no probes or started no profile")
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, p := range c.problems {
		t.Error(p)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + d
		}
		return out
	}
	cases := []struct {
		change []float64
		wins   int
		want   string
	}{
		{shift(-2), 10, "improved"},
		{shift(0.1), 3, "within bound"},
		{shift(3), 0, "worse"},
		{[]float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, 5, "unresolved"},
	}
	for _, tc := range cases {
		if got := verdict(parent, tc.change, tc.wins, len(parent), true, 0.1); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.change, got, tc.want)
		}
	}
}

// Compare mode pairs runs by file name and prints a verdict per workload
// and end-to-end metric, with both sides' failed-trial shares.
func TestCompareRuns(t *testing.T) {
	root := t.TempDir()
	write := func(side, seed string, wall float64) {
		dir := filepath.Join(root, side, "fig6")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		r := result{Correct: true, Attempted: 24, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			r.Metrics[d.name] = metric{1, d.unit}
		}
		r.Metrics["wall_s"] = metric{wall, "s"}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, seed+".json"), append([]byte("fig6 wall_s ...\n"), b...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		seed := strconv.Itoa(i)
		write("parent", seed, 5+0.01*float64(i))
		write("change", seed, 4+0.01*float64(i))
	}
	var out bytes.Buffer
	if err := compareRuns(&out, "../BENCHMARK.json", filepath.Join(root, "parent"), filepath.Join(root, "change")); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"fig6: parent 10 runs, change 10 runs, 10 pairs; failed trials parent 0/240, change 0/240",
		"wall_s", "improved", "within bound", "swarm64: no runs"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[string]string{
		"voxel/internal/quic.(*Conn).receive": "quic",
		"voxel/internal/sim.(*Sim).fire":      "sim",
		"voxel/internal/exp.runTrial":         "other",
		"runtime.mallocgc":                    "runtime",
		"internal/runtime/maps.(*Map).get":    "runtime",
		"main.(*ccProbe).CanSend":             "other",
	}
	for fn, want := range cases {
		if got, ok := bucketOf(fn); !ok || got != want {
			t.Errorf("bucketOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"math.Log", "encoding/xml.(*printer).EscapeString", "time.Now"} {
		if _, ok := bucketOf(fn); ok {
			t.Errorf("bucketOf(%q) claimed a standard-library helper", fn)
		}
	}
}
