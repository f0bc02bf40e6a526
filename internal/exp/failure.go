package exp

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"voxel/internal/invariant"
	"voxel/internal/qoe"
	"voxel/internal/repro"
	"voxel/internal/trace"
)

// TrialError is the structured failure record of one trial: a recovered
// panic, a violated invariant, a breached watchdog budget, or a setup
// error. The surviving trials of the sweep keep running; failures land in
// Aggregate.Failed in (config, trial) order with everything needed to
// replay the case deterministically.
type TrialError struct {
	// Config is the cell the trial belonged to (post-defaulting).
	Config Config
	// Trial is the failing trial's index within the sweep; Seed is the
	// derived per-trial seed the world was built with.
	Trial int
	Seed  int64
	// Session is the swarm session under construction when the failure
	// hit, or -1 once the event loop was running (a mid-run failure is not
	// attributable to one session from outside the world).
	Session int
	// Clock is the virtual time at which the trial died.
	Clock time.Duration
	// Rule classifies the failure: an invariant rule
	// ("quic.byte-conservation"), a watchdog rule ("watchdog.wall-budget",
	// "watchdog.event-budget"), or "panic" / "error" for everything else.
	Rule string
	// Msg is the panic value, violation detail, or error text.
	Msg string
	// Stack is the goroutine stack at the recovery point (panics only).
	Stack string
}

// Error summarizes the failure on one line.
func (e *TrialError) Error() string {
	return fmt.Sprintf("trial %d (seed %d) failed at %v: %s: %s",
		e.Trial, e.Seed, e.Clock, e.Rule, e.Msg)
}

// ReplayCommand returns a copy-pasteable voxel-sim invocation that
// deterministically reproduces the failing sweep (the failure fires at the
// same trial index, since trials are independent worlds keyed by seed). It
// renders the crash artifact's fields as flags, so the Config → outside
// world mapping lives in Artifact alone. CC, link capacity and MaxSimTime
// have no voxel-sim flag; only the artifact carries them.
func (e *TrialError) ReplayCommand() string {
	a := e.Artifact()
	var b strings.Builder
	b.WriteString("go run ./cmd/voxel-sim")
	add := func(flag, val string) { b.WriteString(" -" + flag + " " + val) }
	if a.Title != "" {
		add("title", a.Title)
	}
	if a.System != "" {
		add("system", "'"+a.System+"'")
	}
	if a.CrossMbps > 0 {
		add("cross", strconv.FormatFloat(a.CrossMbps, 'g', -1, 64))
	} else if a.Trace != "" {
		add("trace", a.Trace)
	}
	if a.Metric != "" {
		add("metric", a.Metric)
	}
	add("buffer", strconv.Itoa(a.Buffer))
	if a.Segments > 0 {
		add("segments", strconv.Itoa(a.Segments))
	}
	add("trials", strconv.Itoa(a.Trials))
	add("seed", strconv.FormatInt(a.Seed, 10))
	if a.Queue > 0 && a.Queue != 32 {
		add("queue", strconv.Itoa(a.Queue))
	}
	if a.Sessions > 1 {
		add("sessions", strconv.Itoa(a.Sessions))
	}
	if a.Impairment != "" {
		add("impair", a.Impairment)
	}
	if a.Failover {
		b.WriteString(" -failover")
	}
	if a.Inject != "" {
		add("inject", a.Inject)
	}
	if e.Config.Invariants {
		b.WriteString(" -invariants")
	}
	return b.String()
}

// Artifact converts the failure into a standalone JSON crash artifact,
// replayable with `voxel-sim -repro file.json`.
func (e *TrialError) Artifact() *repro.Artifact {
	c := e.Config
	a := &repro.Artifact{
		Title:      c.Title,
		System:     string(c.System),
		Buffer:     c.BufferSegments,
		Segments:   c.Segments,
		Trials:     c.Trials,
		Trial:      e.Trial,
		Seed:       c.Seed,
		Queue:      c.QueuePackets,
		CrossMbps:  c.CrossTraffic / 1e6,
		LinkMbps:   c.LinkCapacity / 1e6,
		Sessions:   c.Sessions,
		Impairment: c.Impairment,
		Failover:   c.Failover,
		CC:         c.CC,
		Inject:     c.Inject,
		Violation:  e.Rule,
		Detail:     e.Msg,
	}
	if c.Trace != nil && c.CrossTraffic <= 0 {
		a.Trace = traceFlagName(c.Trace)
	}
	if c.Metric != qoe.SSIM {
		a.Metric = strings.ToLower(c.Metric.String())
	}
	if c.MaxSimTime > 0 {
		a.MaxSimTimeSec = c.MaxSimTime.Seconds()
	}
	return a
}

// traceFlagName names a trace the way -trace and artifact files expect:
// the canonical ByName key when the trace is exactly a canonical trace.
// Any other trace — a shifted or offset copy, a CSV or synthetic trace —
// is written as "custom:" plus its internal name, which identifies it but
// which ByName refuses, so a replay fails loudly instead of silently
// running a different trace.
func traceFlagName(t *trace.Trace) string {
	if name, ok := trace.CanonicalName(t); ok {
		return name
	}
	return "custom:" + t.Name()
}

// ConfigFromArtifact resolves a crash artifact back into a runnable
// configuration. Invariants and both watchdog budgets are armed, matching
// the fuzz campaign the artifact came from.
func ConfigFromArtifact(a *repro.Artifact) (Config, error) {
	cfg := Config{
		Title:          a.Title,
		System:         System(a.System),
		BufferSegments: a.Buffer,
		Segments:       a.Segments,
		Trials:         a.Trials,
		Seed:           a.Seed,
		QueuePackets:   a.Queue,
		CrossTraffic:   a.CrossMbps * 1e6,
		LinkCapacity:   a.LinkMbps * 1e6,
		Sessions:       a.Sessions,
		Impairment:     a.Impairment,
		Failover:       a.Failover,
		CC:             a.CC,
		Inject:         a.Inject,
		Invariants:     true,
		WatchdogWall:   DefaultWatchdogWall,
		WatchdogEvents: DefaultWatchdogEvents,
	}
	if a.MaxSimTimeSec > 0 {
		cfg.MaxSimTime = time.Duration(a.MaxSimTimeSec * float64(time.Second))
	}
	if a.Trace != "" {
		tr, err := trace.ByName(a.Trace)
		if err != nil {
			return Config{}, fmt.Errorf("exp: artifact trace: %v", err)
		}
		cfg.Trace = tr
	}
	switch strings.ToLower(a.Metric) {
	case "", "ssim":
		cfg.Metric = qoe.SSIM
	case "vmaf":
		cfg.Metric = qoe.VMAF
	case "psnr":
		cfg.Metric = qoe.PSNR
	default:
		return Config{}, fmt.Errorf("exp: artifact metric %q unknown", a.Metric)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Default watchdog budgets used by repro replay and the fuzz campaign: lax
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

// injectRule maps an inject kind to the Rule its TrialError will carry —
// what a crash artifact for the injected case records as its violation.
func injectRule(kind string) string {
	switch kind {
	case injectPanic:
		return "panic"
	case injectInvariant:
		return "exp.injected-fault"
	case injectSpin:
		return "watchdog.event-budget"
	}
	return ""
}

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
