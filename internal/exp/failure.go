package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"voxel/internal/invariant"
)

// TrialError is the structured failure record of one trial: a recovered
// panic, a violated invariant, a breached watchdog budget, or a setup
// error. The surviving trials of the sweep keep running; failures land in
// Aggregate.Failed in (config, trial) order with everything needed to
// replay the case deterministically.
type TrialError struct {
	// Config is the cell the trial belonged to (post-defaulting). It is
	// left out of the JSON: a sweep checkpoint stores it once, as the
	// file's experiment.
	Config Config `json:"-"`
	// Trial is the failing trial's index within the sweep; Seed is the
	// derived per-trial seed the world was built with.
	Trial int   `json:"trial"`
	Seed  int64 `json:"seed"`
	// Session is the swarm session under construction when the failure
	// hit, or -1 once the event loop was running (a mid-run failure is not
	// attributable to one session from outside the world).
	Session int `json:"session"`
	// Clock is the virtual time at which the trial died.
	Clock time.Duration `json:"clock_ns"`
	// Rule classifies the failure: an invariant rule
	// ("quic.byte-conservation"), a watchdog rule ("watchdog.wall-budget",
	// "watchdog.event-budget"), or "panic" / "error" for everything else.
	Rule string `json:"rule"`
	// Msg is the panic value, violation detail, or error text.
	Msg string `json:"msg"`
	// Stack is the goroutine stack at the recovery point (panics only).
	Stack string `json:"stack,omitempty"`
}

// Error summarizes the failure on one line.
func (e *TrialError) Error() string {
	return fmt.Sprintf("trial %d (seed %d) failed at %v: %s: %s",
		e.Trial, e.Seed, e.Clock, e.Rule, e.Msg)
}

// FailureReport lists the failed trials, each with its stack (panics only)
// and replay command; it is empty when every trial survived.
func (a *Aggregate) FailureReport() string {
	if len(a.Failed) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n%d of %d trials FAILED:\n", len(a.Failed), len(a.Trials))
	for i := range a.Failed {
		te := &a.Failed[i]
		fmt.Fprintf(&b, "  trial %d (seed %d) at virtual %v: %s\n    %s\n",
			te.Trial, te.Seed, te.Clock, te.Rule, te.Msg)
		if te.Stack != "" {
			b.WriteString("    stack:\n")
			for _, line := range strings.Split(strings.TrimRight(te.Stack, "\n"), "\n") {
				fmt.Fprintf(&b, "      %s\n", line)
			}
		}
		fmt.Fprintf(&b, "    replay: %s\n", te.ReplayCommand())
	}
	return b.String()
}

// Artifact is the JSON crash artifact: one replayable failing trial,
// small enough to commit next to a bug report and replay with
// `voxel-sim -repro file.json`. Zero-valued config fields stay off disk.
type Artifact struct {
	Document
	// Trial is the failing trial's index within the sweep.
	Trial int `json:"trial"`
	// Violation is the failure rule the artifact reproduces (an invariant
	// rule like "quic.byte-conservation", "watchdog.event-budget", or
	// "panic"). Replay verifies the same rule fires again.
	Violation string `json:"violation,omitempty"`
	// Detail preserves the original failure message for humans.
	Detail string `json:"detail,omitempty"`
}

// Artifact converts the failure into a standalone crash artifact.
func (e *TrialError) Artifact() *Artifact {
	return &Artifact{Document: NewDocument(e.Config), Trial: e.Trial, Violation: e.Rule, Detail: e.Msg}
}

// ReplayConfig resolves the artifact into a runnable config with the
// invariant checker and both watchdog budgets armed, matching the fuzz
// campaign the artifact came from.
func (a *Artifact) ReplayConfig() (Config, error) {
	cfg, err := a.Resolve()
	if err != nil {
		return Config{}, err
	}
	cfg.Invariants = true
	cfg.WatchdogWall, cfg.WatchdogEvents = DefaultWatchdogWall, DefaultWatchdogEvents
	return cfg, cfg.Validate()
}

// Encode renders the artifact as stable, indented JSON (trailing newline),
// so identical cases produce identical bytes and diff cleanly in review.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Save writes the artifact to path.
func (a *Artifact) Save(path string) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LoadArtifact reads an artifact from path.
func LoadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeArtifact(b)
}

// DecodeArtifact parses an artifact, rejecting unknown fields so a typo in
// a hand-edited case fails loudly instead of silently changing the repro.
func DecodeArtifact(b []byte) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("exp: artifact: %v", err)
	}
	if a.Config.Title == "" {
		return nil, fmt.Errorf("exp: artifact missing title")
	}
	return &a, nil
}

// Default watchdog budgets used by artifact replay and the fuzz campaign: lax
// enough for the heaviest legitimate trial (a 512-session swarm runs in
// well under a minute), tight enough to catch a wedged one.
const (
	DefaultWatchdogWall   = 2 * time.Minute
	DefaultWatchdogEvents = 500_000_000
)

// watchdogSliceEvents bounds one checkpoint slice when a wall budget is
// armed without an event budget, so even a zero-delay event storm — which
// never lets RunUntil reach its deadline — yields control often enough for
// the wall clock to be consulted.
const watchdogSliceEvents = 1 << 21

// FailureHook, when non-nil, observes every TrialError when RunPartial
// delivers the failed trial, in trial order, just before the TrialFunc sees
// it. Only trials run in this process fire it: failures restored from a
// checkpoint or folded by MergeShards were reported by the run that
// produced them. CLIs that drive many sweeps through layers that do not
// surface Aggregate — voxel-bench's figure generators — use it to collect
// failures for the final report. The hook runs under the delivery lock;
// keep it fast.
var FailureHook func(*TrialError)

// trialCtx carries the identity of the running trial so failures anywhere
// in the stack can be stamped with config, seed, session, and clock.
type trialCtx struct {
	cfg     Config
	trial   int
	seed    int64
	session int // session under construction; -1 once the loop runs
}

// errf builds a TrialError for a non-panic failure.
func (tc *trialCtx) errf(clock time.Duration, rule, format string, args ...any) *TrialError {
	return &TrialError{
		Config:  tc.cfg,
		Trial:   tc.trial,
		Seed:    tc.seed,
		Session: tc.session,
		Clock:   clock,
		Rule:    rule,
		Msg:     fmt.Sprintf(format, args...),
	}
}

// fromPanic converts a recovered panic value into a TrialError, unwrapping
// invariant violations into their rule and capturing the stack.
func (tc *trialCtx) fromPanic(recovered any, clock time.Duration) *TrialError {
	te := &TrialError{
		Config:  tc.cfg,
		Trial:   tc.trial,
		Seed:    tc.seed,
		Session: tc.session,
		Clock:   clock,
		Rule:    "panic",
	}
	if v, ok := invariant.AsViolation(recovered); ok {
		te.Rule = v.Rule
		te.Msg = v.Detail
	} else if err, ok := recovered.(error); ok {
		te.Msg = err.Error()
	} else {
		te.Msg = fmt.Sprint(recovered)
	}
	buf := make([]byte, 16<<10)
	te.Stack = string(buf[:runtime.Stack(buf, false)])
	return te
}

// Inject fault kinds: a plain panic from a scheduled event, a synthetic
// invariant violation, and a zero-delay event storm (the watchdog's prey).
const (
	injectPanic     = "panic"
	injectInvariant = "invariant"
	injectSpin      = "spin"
)

// injectTime is the virtual instant an injected fault fires: late enough
// that the world is streaming, early enough that every config reaches it.
const injectTime = 2 * time.Second

// parseInject splits an Inject spec "kind" or "kind@trial" and validates
// the kind. An empty spec disables injection.
func parseInject(spec string) (kind string, trial int, err error) {
	if spec == "" {
		return "", -1, nil
	}
	kind, rest, scoped := strings.Cut(spec, "@")
	trial = -1
	if scoped {
		trial, err = strconv.Atoi(rest)
		if err != nil || trial < 0 {
			return "", -1, fmt.Errorf("exp: bad inject trial in %q", spec)
		}
	}
	switch kind {
	case injectPanic, injectInvariant, injectSpin:
		return kind, trial, nil
	}
	return "", -1, fmt.Errorf("exp: unknown inject kind %q (have %s, %s, %s)",
		kind, injectPanic, injectInvariant, injectSpin)
}

// injectFor resolves the config's Inject spec for one trial index.
func (c Config) injectFor(trial int) (kind string, ok bool) {
	kind, target, err := parseInject(c.Inject)
	if err != nil || kind == "" {
		return "", false
	}
	if target >= 0 && target != trial {
		return "", false
	}
	return kind, true
}
