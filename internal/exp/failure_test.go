package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"voxel/internal/qoe"
	"voxel/internal/trace"
)

func failCfg() Config {
	return Config{
		Title:    "BBB",
		Trace:    trace.Verizon(),
		Segments: 6,
		Trials:   4,
	}
}

// The acceptance scenario: one deliberately panicking trial inside a
// 16-trial parallel sweep must surface as exactly one TrialError — with
// stack, seed, and replay command — while the other 15 trials complete
// normally and the process never crashes.
func TestPanicIsolation16Trials(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 16
	cfg.Parallelism = 4
	cfg.Inject = "panic@5"
	agg := Run(cfg)

	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1: %+v", len(agg.Failed), agg.Failed)
	}
	te := &agg.Failed[0]
	if te.Trial != 5 {
		t.Fatalf("failed trial = %d, want 5", te.Trial)
	}
	if te.Rule != "panic" || !strings.Contains(te.Msg, "injected fault") {
		t.Fatalf("wrong classification: rule=%q msg=%q", te.Rule, te.Msg)
	}
	if te.Seed != TrialSeed(1, 5) {
		t.Fatalf("seed = %d, want %d", te.Seed, TrialSeed(1, 5))
	}
	if !strings.Contains(te.Stack, "runTrial") {
		t.Fatalf("stack missing runTrial:\n%s", te.Stack)
	}
	cmd := te.ReplayCommand()
	for _, want := range []string{"voxel-sim", "-inject panic@5", "-trials 16"} {
		if !strings.Contains(cmd, want) {
			t.Fatalf("replay command %q missing %q", cmd, want)
		}
	}
	if strings.Contains(cmd, "-seed") || strings.Contains(cmd, "#") {
		t.Fatalf("replay command %q names the default seed or claims lost values", cmd)
	}

	if len(agg.Trials) != 16 {
		t.Fatalf("aggregate has %d trial slots, want 16", len(agg.Trials))
	}
	completed := 0
	for ti, tr := range agg.Trials {
		if ti == 5 {
			if !tr.Failed {
				t.Fatal("trial 5 not marked failed")
			}
			continue
		}
		if tr.Failed {
			t.Fatalf("surviving trial %d marked failed", ti)
		}
		if !tr.Completed || len(tr.Scores) == 0 {
			t.Fatalf("surviving trial %d incomplete (completed=%v, %d scores)",
				ti, tr.Completed, len(tr.Scores))
		}
		completed++
	}
	if completed != 15 {
		t.Fatalf("%d trials completed, want 15", completed)
	}
	// Failed trials contribute no metric samples.
	if len(agg.BufRatios) != 15 || len(agg.Bitrates) != 15 {
		t.Fatalf("metric samples %d/%d, want 15/15", len(agg.BufRatios), len(agg.Bitrates))
	}
}

// A failure inside one trial is invisible to the others: the surviving
// trials of an injected sweep produce bit-identical results to a clean
// sweep's corresponding trials.
func TestSurvivorsUnperturbed(t *testing.T) {
	clean := Run(failCfg())
	cfg := failCfg()
	cfg.Inject = "panic@2"
	injected := Run(cfg)
	for ti := range clean.Trials {
		if ti == 2 {
			continue
		}
		if !reflect.DeepEqual(clean.Trials[ti], injected.Trials[ti]) {
			t.Fatalf("trial %d differs between clean and injected sweeps", ti)
		}
	}
}

// Arming the invariant checker on a healthy run must not change a single
// bit of the results — checking is observation, never perturbation.
func TestInvariantsAreTransparent(t *testing.T) {
	base := failCfg()
	base.Trials = 2
	clean := Run(base)
	armed := base
	armed.Invariants = true
	checked := Run(armed)
	if len(checked.Failed) != 0 {
		t.Fatalf("invariants fired on a healthy run: %+v", checked.Failed)
	}
	if !reflect.DeepEqual(clean.Trials, checked.Trials) {
		t.Fatal("invariant checking perturbed trial results")
	}
}

func TestInjectedInvariantViolation(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 1
	cfg.Inject = "invariant"
	agg := Run(cfg)
	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1", len(agg.Failed))
	}
	te := &agg.Failed[0]
	if te.Rule != "exp.injected-fault" {
		t.Fatalf("rule = %q, want exp.injected-fault", te.Rule)
	}
	if te.Clock != 2*time.Second {
		t.Fatalf("clock = %v, want the 2s injection instant", te.Clock)
	}
	if te.Session != -1 {
		t.Fatalf("session = %d, want -1 (mid-run failure)", te.Session)
	}
}

// The event budget is the only defense against a zero-delay event storm:
// virtual time freezes while events burn, so neither MaxSimTime nor the
// interrupt checkpoints ever trigger.
func TestWatchdogEventBudgetCatchesSpin(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 2
	cfg.Inject = "spin@1"
	cfg.WatchdogEvents = 300_000
	agg := Run(cfg)
	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1", len(agg.Failed))
	}
	te := &agg.Failed[0]
	if te.Rule != "watchdog.event-budget" || te.Trial != 1 {
		t.Fatalf("got rule=%q trial=%d, want watchdog.event-budget trial 1", te.Rule, te.Trial)
	}
	if !agg.Trials[0].Completed {
		t.Fatal("healthy trial 0 did not complete")
	}
}

func TestWatchdogWallBudgetCatchesSpin(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 1
	cfg.Inject = "spin"
	cfg.WatchdogWall = 50 * time.Millisecond
	agg := Run(cfg)
	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1", len(agg.Failed))
	}
	if rule := agg.Failed[0].Rule; rule != "watchdog.wall-budget" {
		t.Fatalf("rule = %q, want watchdog.wall-budget", rule)
	}
}

// Arming the watchdog adds budget checks and a per-slice event cap to the
// run loop; when nothing breaches, results must stay bit-identical to an
// unarmed run.
func TestWatchdogTransparentWhenUnderBudget(t *testing.T) {
	base := failCfg()
	base.Trials = 2
	clean := Run(base)
	guarded := base
	guarded.WatchdogWall = time.Hour
	guarded.WatchdogEvents = 1 << 40
	agg := Run(guarded)
	if len(agg.Failed) != 0 {
		t.Fatalf("watchdog fired under budget: %+v", agg.Failed)
	}
	if !reflect.DeepEqual(clean.Trials, agg.Trials) {
		t.Fatal("watchdog slicing perturbed trial results")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 2
	cfg.Impairment = "flaky-wifi"
	cfg.Inject = "invariant@1"
	agg := Run(cfg)
	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1", len(agg.Failed))
	}
	a := agg.Failed[0].Artifact()
	if a.Violation != "exp.injected-fault" || a.Trial != 1 || a.Trace.Canonical != "verizon" {
		t.Fatalf("artifact fields wrong: %+v", a)
	}
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if a, err = DecodeArtifact(b); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReplayConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Invariants || got.WatchdogWall == 0 || got.WatchdogEvents == 0 {
		t.Fatal("replay config did not arm invariants + watchdog")
	}
	if got.Trace.Name() != cfg.Trace.Name() {
		t.Fatalf("trace %q did not round-trip", cfg.Trace.Name())
	}
	// Past the arming, the replayed config is the failing one.
	want := agg.Failed[0].Config.Normalized()
	got.Invariants, got.WatchdogWall, got.WatchdogEvents = want.Invariants, want.WatchdogWall, want.WatchdogEvents
	if !reflect.DeepEqual(NewDocument(got), NewDocument(want)) {
		t.Fatalf("config round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// A shifted copy keeps the canonical trace's name but not its samples. Its
// artifact and replay command must not name a trace ByName resolves, or a
// replay would silently run the unshifted trace.
func TestArtifactShiftedTraceNotCanonical(t *testing.T) {
	cfg := failCfg()
	cfg.Trace = trace.Verizon().Shifted(37 * time.Second)
	te := &TrialError{Config: cfg.WithDefaults(), Rule: "panic"}

	a := te.Artifact()
	if a.Trace.Canonical != "" {
		t.Fatalf("artifact names shifted trace %q canonical", a.Trace.Canonical)
	}
	if _, err := a.ReplayConfig(); err == nil || !strings.Contains(err.Error(), "no canonical name") {
		t.Fatalf("artifact of a shifted trace replayed: %v", err)
	}
	if cmd := te.ReplayCommand(); !strings.Contains(cmd, " -trace custom:"+a.Trace.Name+" ") {
		t.Fatalf("replay command %q does not name the shifted trace %q", cmd, a.Trace.Name)
	}

	// The unshifted trace keeps its canonical name.
	te.Config.Trace = trace.Verizon()
	if got := te.Artifact().Trace.Canonical; got != "verizon" {
		t.Fatalf("canonical trace named %q, want verizon", got)
	}
	// A tampered hash is refused too.
	a = te.Artifact()
	a.Trace.Hash = "00"
	if _, err := a.ReplayConfig(); err == nil || !strings.Contains(err.Error(), "does not match stored hash") {
		t.Fatalf("artifact with a wrong trace hash replayed: %v", err)
	}
}

// Values no voxel-sim flag can express are named in a trailing comment, so
// the replay command never silently runs a different experiment.
func TestReplayCommandNamesUnflaggedValues(t *testing.T) {
	cfg := failCfg()
	cfg.CC = "bbr"
	te := &TrialError{Config: cfg.WithDefaults(), Rule: "panic"}
	if cmd := te.ReplayCommand(); !strings.HasSuffix(cmd, "  # no flag for: cc=bbr") {
		t.Fatalf("replay command %q does not name cc=bbr", cmd)
	}

	cfg = failCfg()
	cfg.Trace = nil
	te = &TrialError{Config: cfg.WithDefaults(), Rule: "panic"}
	cmd := te.ReplayCommand()
	if !strings.HasSuffix(cmd, "  # no flag for: trace=nil") || strings.Contains(cmd, "-trace") {
		t.Fatalf("replay command %q does not name the nil trace", cmd)
	}

	// Cross traffic replaces the trace: -cross says it all.
	cfg.CrossTraffic, cfg.LinkCapacity = 5e6, 20e6
	te = &TrialError{Config: cfg.WithDefaults(), Rule: "panic"}
	if cmd := te.ReplayCommand(); !strings.Contains(cmd, " -cross 5 ") || strings.Contains(cmd, "#") {
		t.Fatalf("cross-traffic replay command %q", cmd)
	}
	cfg.LinkCapacity, cfg.MaxSimTime = 15e6, time.Minute
	te = &TrialError{Config: cfg.WithDefaults(), Rule: "panic"}
	if cmd := te.ReplayCommand(); !strings.HasSuffix(cmd, "# no flag for: link_capacity=1.5e+07, max_sim_time=1m0s") {
		t.Fatalf("replay command %q does not name the link and time bound", cmd)
	}
}

// The replay command must carry a non-default QoE metric: a VMAF failure
// replayed under SSIM is a different experiment.
func TestReplayCommandKeepsMetric(t *testing.T) {
	cfg := failCfg()
	cfg.Metric = qoe.VMAF
	te := &TrialError{Config: cfg.WithDefaults(), Rule: "panic"}
	if cmd := te.ReplayCommand(); !strings.Contains(cmd, " -metric vmaf") {
		t.Fatalf("replay command %q lacks -metric vmaf", cmd)
	}
	te.Config.Metric = qoe.SSIM
	if cmd := te.ReplayCommand(); strings.Contains(cmd, "-metric") {
		t.Fatalf("replay command %q names the default metric", cmd)
	}
}

func TestValidateRejectsBadInject(t *testing.T) {
	for _, spec := range []string{"explode", "panic@-1", "panic@x", "@3"} {
		cfg := Config{Inject: spec}
		if err := cfg.Validate(); err == nil {
			t.Fatalf("inject %q accepted", spec)
		}
	}
	for _, spec := range []string{"", "panic", "invariant@0", "spin@12"} {
		cfg := Config{Inject: spec}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("inject %q rejected: %v", spec, err)
		}
	}
}

// Telemetry exports of a sweep with a failed trial stay byte-deterministic
// across worker counts, and the failed trial appears as an explicit marker
// (CSV failed column, JSONL trial_failed event) instead of a silent gap.
func TestFailedTrialTelemetryExports(t *testing.T) {
	render := func(parallelism int) (csv, jsonl string) {
		cfg := failCfg()
		cfg.Telemetry = true
		cfg.Inject = "panic@1"
		cfg.Parallelism = parallelism
		agg := Run(cfg)
		var c, j bytes.Buffer
		if err := agg.Obs.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := agg.Obs.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		return c.String(), j.String()
	}
	csv1, jsonl1 := render(1)
	csv4, jsonl4 := render(4)
	if csv1 != csv4 {
		t.Fatal("CSV export differs across parallelism")
	}
	if jsonl1 != jsonl4 {
		t.Fatal("JSONL export differs across parallelism")
	}
	rows := strings.Split(strings.TrimRight(csv1, "\n"), "\n")
	if len(rows) != 1+4+1 { // header + 4 trials + total
		t.Fatalf("CSV has %d rows, want 6:\n%s", len(rows), csv1)
	}
	if !strings.HasSuffix(rows[0], ",failed") {
		t.Fatalf("CSV header missing failed column: %s", rows[0])
	}
	if !strings.HasPrefix(rows[2], "1,0,") || !strings.HasSuffix(rows[2], ",1") {
		t.Fatalf("failed trial row not marked: %s", rows[2])
	}
	if !strings.HasSuffix(rows[5], ",1") {
		t.Fatalf("total row failed count wrong: %s", rows[5])
	}
	if !strings.Contains(jsonl1, `"kind":"trial_failed"`) {
		t.Fatal("JSONL missing trial_failed event")
	}
}
