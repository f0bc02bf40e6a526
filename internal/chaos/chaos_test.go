package chaos

import (
	"flag"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"voxel/internal/exp"
	"voxel/internal/trace"
)

// The tuple generator is the campaign's determinism root: one seed, one
// sequence of artifacts.
func TestRandomArtifactDeterministic(t *testing.T) {
	draw := func() []*exp.Artifact {
		rng := rand.New(rand.NewSource(99))
		out := make([]*exp.Artifact, 8)
		for i := range out {
			out[i] = RandomArtifact(rng)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("tuple %d differs across identical seeds:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	for _, art := range a {
		if c := art.Config; c.Title == "" || c.System == "" || c.Seed == 0 {
			t.Fatalf("degenerate tuple: %+v", art)
		}
	}
}

// Shrinking an injected failure strips every riding dimension — failover,
// impairment, swarm, the sweep, clip length, seed — because the deliberate
// fault reproduces under all of them; and the whole walk is deterministic.
func TestShrinkInjectedFailure(t *testing.T) {
	big := &exp.Artifact{
		Document: exp.NewDocument(exp.Config{
			Title:      "BBB",
			System:     exp.SysVoxel,
			Trace:      trace.Verizon(),
			Segments:   8,
			Trials:     2,
			Seed:       5,
			Sessions:   2,
			Impairment: "bursty",
			Failover:   true,
			Inject:     "invariant",
		}),
		Trial:     1,
		Violation: "exp.injected-fault",
	}
	if ok, _, err := Reproduces(big); err != nil || !ok {
		t.Fatalf("big artifact does not fail (ok=%v err=%v)", ok, err)
	}
	small := Shrink(big, nil)
	if c := small.Config; c.Failover || c.Impairment != "" || c.Sessions != 1 {
		t.Fatalf("riding dimensions not stripped: %+v", small)
	}
	if small.Config.Trials != 1 || small.Trial != 0 {
		t.Fatalf("sweep not collapsed: %+v", small)
	}
	if small.Config.Segments > 2 || small.Config.Seed != 1 {
		t.Fatalf("clip/seed not minimized: %+v", small)
	}
	if ok, te, err := Reproduces(small); err != nil || !ok {
		t.Fatalf("shrunk artifact does not reproduce (ok=%v te=%v err=%v)", ok, te, err)
	}
	if again := Shrink(big, nil); !reflect.DeepEqual(small, again) {
		t.Fatalf("shrink not deterministic:\n%+v\n%+v", small, again)
	}
}

// The committed known-good artifact must keep reproducing its recorded
// violation — this is the regression test for the whole artifact pipeline
// (LoadArtifact → ReplayConfig → armed run → rule match).
func TestCommittedArtifactReproduces(t *testing.T) {
	a, err := exp.LoadArtifact("../../testdata/repro/injected-invariant.json")
	if err != nil {
		t.Fatal(err)
	}
	ok, te, err := Reproduces(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("committed artifact did not reproduce (got %+v)", te)
	}
	if te.Rule != a.Violation {
		t.Fatalf("rule %q != recorded violation %q", te.Rule, a.Violation)
	}
}

// A healthy artifact neither fails nor reports reproduction.
func TestReproducesCleanArtifact(t *testing.T) {
	a := &exp.Artifact{Document: exp.NewDocument(exp.Config{
		Title: "BBB", System: exp.SysVoxel, Trace: trace.Verizon(),
		Segments: 4, Trials: 1, Seed: 1,
	})}
	ok, te, err := Reproduces(a)
	if err != nil {
		t.Fatal(err)
	}
	if ok || te != nil {
		t.Fatalf("clean artifact reported a failure: %+v", te)
	}
}

// voxel-sim's flag table round-trips: a fuzz config, cut down to what flags
// can express, parses back from its replay command to the same config.
func TestReplayCommandRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := RandomArtifact(rng)
		c, err := a.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		// Keep only what flags can express.
		c.CC, c.MaxSimTime = "", 0
		if c.CrossTraffic > 0 {
			c.LinkCapacity = 20e6
		}
		te := &exp.TrialError{Config: c, Rule: "panic"}
		cmd := te.ReplayCommand()
		if strings.Contains(cmd, "#") {
			t.Fatalf("tuple %d: expressible config replays with a comment: %s", i, cmd)
		}
		args := strings.Fields(strings.TrimPrefix(cmd, "go run ./cmd/voxel-sim"))
		for j, arg := range args {
			args[j] = strings.Trim(arg, "'") // shell quoting; no value holds a quote
		}
		fs := flag.NewFlagSet("voxel-sim", flag.ContinueOnError)
		config := exp.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("tuple %d: %s: %v", i, cmd, err)
		}
		got, err := config()
		if err != nil {
			t.Fatalf("tuple %d: %s: %v", i, cmd, err)
		}
		if want := exp.NewDocument(c); !reflect.DeepEqual(exp.NewDocument(got), want) {
			t.Fatalf("tuple %d: %s parses to\n%+v\nwant\n%+v", i, cmd, exp.NewDocument(got), want)
		}
	}
}
