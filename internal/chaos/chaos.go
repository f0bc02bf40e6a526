// Package chaos is the randomized fuzz campaign over the full experiment
// stack. It sweeps (configuration × impairment × seed) tuples with the
// cross-layer invariant checker and trial watchdog armed, and when a tuple
// fails it shrinks the case to a minimal JSON crash artifact (exp.Artifact)
// replayable with `voxel-sim -repro file.json`.
//
// Everything here is deterministic: tuples come from a seeded generator,
// each trial world is a deterministic simulation, and the shrinker only
// keeps a reduction when the re-run fails with the same rule — so a
// campaign, its failures, and its shrunk artifacts are all reproducible
// from the campaign seed alone.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"voxel/internal/exp"
	"voxel/internal/netem"
	"voxel/internal/qoe"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// RandomArtifact draws one fuzz tuple. The distribution is tilted toward
// fast cases — short clips, bounded virtual time, mostly single-session —
// so a campaign gets through many tuples, while still visiting every
// system, trace, metric, impairment profile, failover, swarm, and
// cross-traffic corner with some probability.
func RandomArtifact(rng *rand.Rand) *exp.Artifact {
	titles := video.AllTitles()
	systems := exp.Systems()
	metrics := qoe.Metrics()
	c := exp.Config{
		Title:          titles[rng.Intn(len(titles))],
		System:         systems[rng.Intn(len(systems))],
		BufferSegments: 4 + rng.Intn(6),
		Segments:       4 + rng.Intn(7),
		Trials:         1 + rng.Intn(2),
		Seed:           1 + rng.Int63n(1<<30),
		Sessions:       1,
		// Bound virtual time well below the harness default (20× media):
		// a wedged-but-legal tuple costs seconds, not minutes, and a truly
		// stuck one is the watchdog's job.
		MaxSimTime: 120 * time.Second,
	}
	c.Metric = metrics[rng.Intn(len(metrics))]
	if rng.Intn(5) == 0 {
		c.CrossTraffic = (1 + 9*rng.Float64()) * 1e6
		c.LinkCapacity = (10 + 10*rng.Float64()) * 1e6
	} else {
		names := trace.Names()
		c.Trace, _ = trace.ByName(names[rng.Intn(len(names))]) // one of its own keys
	}
	profiles := netem.Profiles()
	c.Impairment = profiles[rng.Intn(len(profiles))]
	if rng.Intn(4) == 0 {
		c.Sessions = 2 + rng.Intn(3)
	}
	if rng.Intn(6) == 0 {
		c.Failover = true
	}
	if rng.Intn(4) == 0 {
		c.CC = "bbr"
	}
	return &exp.Artifact{Document: exp.NewDocument(c)}
}

// Run executes one artifact with invariants and watchdog armed (that is
// what ReplayConfig arms) and returns the first trial failure, or nil
// when every trial survived. The error return is for artifacts that don't
// resolve to a runnable config at all.
func Run(a *exp.Artifact) (*exp.TrialError, error) {
	cfg, err := a.ReplayConfig()
	if err != nil {
		return nil, err
	}
	agg := exp.Run(cfg)
	if len(agg.Failed) > 0 {
		return &agg.Failed[0], nil
	}
	return nil, nil
}

// Reproduces reports whether the artifact still fails with its recorded
// Violation rule (any failure, when Violation is empty). This is both the
// shrinker's keep/revert test and `voxel-sim -repro`'s verdict.
func Reproduces(a *exp.Artifact) (bool, *exp.TrialError, error) {
	te, err := Run(a)
	if err != nil || te == nil {
		return false, te, err
	}
	if a.Violation != "" && te.Rule != a.Violation {
		return false, te, nil
	}
	return true, te, nil
}

// Shrink minimizes a failing artifact along a fixed ladder — drop the
// failover origin, drop the impairment profile, collapse the swarm to one
// session, collapse the sweep to one trial, halve the clip, then walk the
// seed toward 1 — keeping each reduction only if the re-run fails with the
// same rule. The one-trial step keeps the failing trial's seed
// (TrialSeed), but not its world: the trace shift is Duration·trial/Trials,
// so trial k > 0 of n moves to shift 0, and the step survives only when the
// unshifted trial trips the same rule. The optional log receives one line
// per attempted step.
func Shrink(a *exp.Artifact, log io.Writer) *exp.Artifact {
	cur := *a
	try := func(step string, mutate func(*exp.Artifact)) bool {
		cand := cur
		mutate(&cand)
		ok, te, err := Reproduces(&cand)
		if err != nil || !ok {
			logf(log, "shrink: %-16s kept previous (no longer reproduces)", step)
			return false
		}
		// The failing trial index can move when the sweep shrinks; track it
		// so the artifact always names the trial that actually fails.
		cand.Trial = te.Trial
		cand.Detail = te.Msg
		cur = cand
		logf(log, "shrink: %-16s still fails (%s)", step, te.Rule)
		return true
	}
	c := &cur.Config
	if c.Failover {
		try("drop-failover", func(t *exp.Artifact) { t.Config.Failover = false })
	}
	if c.Impairment != "" {
		try("drop-impairment", func(t *exp.Artifact) { t.Config.Impairment = "" })
	}
	if c.Sessions > 1 {
		try("one-session", func(t *exp.Artifact) { t.Config.Sessions = 1 })
	}
	if c.Trials > 1 {
		try("one-trial", func(t *exp.Artifact) {
			t.Config.Seed = exp.TrialSeed(t.Config.Seed, t.Trial)
			t.Config.Trials, t.Trial = 1, 0
		})
	}
	for c.Segments > 2 {
		if !try("halve-segments", func(t *exp.Artifact) { t.Config.Segments /= 2 }) {
			break
		}
	}
	for c.Seed > 1 {
		if !try("halve-seed", func(t *exp.Artifact) { t.Config.Seed /= 2 }) {
			break
		}
	}
	return &cur
}

// Campaign sweeps n random tuples from the campaign seed, stopping at the
// first failure. It returns the shrunk artifact and the original failure,
// or (nil, nil) when every tuple survived. The optional log receives one
// line per tuple plus the shrink trace.
func Campaign(n int, seed int64, log io.Writer) (*exp.Artifact, *exp.TrialError) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a := RandomArtifact(rng)
		te, err := Run(a)
		if err != nil {
			logf(log, "tuple %3d: unrunnable (%v)", i, err)
			continue
		}
		if te == nil {
			c, tr := a.Config, ""
			if a.Trace != nil {
				tr = a.Trace.Canonical
			}
			logf(log, "tuple %3d: ok (%s/%s trace=%s impair=%s seed=%d)",
				i, c.Title, c.System, tr, c.Impairment, c.Seed)
			continue
		}
		logf(log, "tuple %3d: FAILED %s — %s", i, te.Rule, te.Msg)
		a.Violation = te.Rule
		a.Detail = te.Msg
		a.Trial = te.Trial
		return Shrink(a, log), te
	}
	return nil, nil
}

// logf writes one line to log, if there is one.
func logf(log io.Writer, format string, args ...any) {
	if log != nil {
		fmt.Fprintf(log, format+"\n", args...)
	}
}
