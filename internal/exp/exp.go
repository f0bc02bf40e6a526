// Package exp is the experiment harness: it assembles the full stack —
// simulator, trace-shaped path, QUIC* pair, origin server, player — runs
// repeated trials with the §5 trace-shifting procedure, and aggregates the
// paper's metrics (bufRatio, average bitrate, per-segment QoE scores,
// skipped-data fractions).
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"voxel/internal/abr"
	"voxel/internal/cc"
	"voxel/internal/crosstraffic"
	"voxel/internal/dash"
	"voxel/internal/httpsim"
	"voxel/internal/invariant"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/player"
	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/quic"
	"voxel/internal/server"
	"voxel/internal/sim"
	"voxel/internal/stats"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// System identifies a full client configuration (ABR + transport mode), in
// the paper's terms.
type System string

// The systems compared across the evaluation.
const (
	SysBolaQ        System = "BOLA/Q"
	SysBolaQStar    System = "BOLA/Q*"
	SysMPCQ         System = "MPC/Q"
	SysMPCQStar     System = "MPC/Q*"
	SysTputQ        System = "Tput/Q"
	SysTputQStar    System = "Tput/Q*"
	SysBeta         System = "BETA"
	SysBolaSSIM     System = "BOLA-SSIM"
	SysVoxel        System = "VOXEL"
	SysVoxelRel     System = "VOXEL-rel"     // partial reliability disabled (Fig. 18c,d)
	SysVoxelUntuned System = "VOXEL-untuned" // safety 1.0 (Fig. 17)
)

// Systems lists every system identifier newAlgorithm accepts, in the order
// the paper introduces them.
func Systems() []System {
	return []System{SysBolaQ, SysBolaQStar, SysMPCQ, SysMPCQStar, SysTputQ,
		SysTputQStar, SysBeta, SysBolaSSIM, SysVoxel, SysVoxelRel, SysVoxelUntuned}
}

// Config specifies one experiment cell.
type Config struct {
	Title          string
	System         System
	BufferSegments int
	// Trace is left out of the JSON encoding: the sweep checkpoint
	// fingerprints it by name and sample hash instead.
	Trace        *trace.Trace `json:"-"`
	QueuePackets int
	Trials       int
	Metric       qoe.Metric
	// Segments limits the clip length (0 = the full 75 segments).
	Segments int
	// CrossTraffic offers this much competing load (bps) through a fixed
	// LinkCapacity link instead of the trace (§5.1 cross-traffic trials).
	CrossTraffic float64
	LinkCapacity float64
	Seed         int64
	// MaxSimTime bounds one trial's virtual time (default 20× media).
	MaxSimTime time.Duration
	// CC selects the server-side congestion controller: "cubic" (default,
	// what the paper's QUIC* inherits) or "bbr" (the delay-based control
	// Appendix B names as future work).
	CC string
	// Impairment names a netem fault profile (clean / bursty / flaky-wifi /
	// handover-blackout) applied to the path. Any profile other than
	// clean/"" also arms the recovery stack: request deadlines and retries
	// in the HTTP client, idle timeout + keepalive + capped PTO backoff in
	// QUIC*. Empty keeps the trial bit-identical to the pre-impairment
	// harness.
	Impairment string
	// Failover adds a second origin server on its own path and blackholes
	// the primary path permanently at FailoverKillTime, exercising
	// idle-timeout detection and client failover mid-stream.
	Failover bool
	// Parallelism is the number of worker goroutines trials fan out across.
	// 0 and 1 run sequentially; negative means GOMAXPROCS. Each trial owns
	// its own simulated world, and results are delivered in trial order, so
	// aggregates are bit-identical to the sequential output for the same
	// seed at any setting.
	Parallelism int
	// Telemetry attaches a per-trial obs.Scope to every layer of the stack
	// and collects the per-trial reports into Aggregate.Obs. Recording never
	// schedules simulator events, so the metrics of a telemetered run are
	// bit-identical to an untelemetered one.
	Telemetry bool
	// TimelineCap overrides the per-trial event ring capacity
	// (obs.DefaultTimelineCap when zero). Only meaningful with Telemetry.
	TimelineCap int
	// Interrupt, when non-nil, aborts the run once the channel is closed
	// (e.g. a context's Done channel). Pending trials are skipped and left
	// zero-valued; trials already in flight notice the close at periodic
	// virtual-time checkpoints and return early with Completed=false, so
	// even a blackholed or unbounded trial cannot outlive its caller.
	Interrupt <-chan struct{} `json:"-"`
	// Sessions is the number of concurrent video sessions per trial (swarm
	// mode). Each session is a full independent stack — QUIC* connection
	// pair, origin server, HTTP client, player, ABR — and all of them are
	// multiplexed through the one shared bottleneck path, optionally
	// alongside cross traffic. 0 and 1 both run a single session and are
	// bit-identical to each other. Per-session summaries land in
	// Trial.Sessions along with the trial's Jain fairness index and
	// bottleneck utilization.
	Sessions int
	// Invariants arms the cross-layer invariant checker (internal/invariant)
	// inside every trial's world: QUIC* packet and byte conservation,
	// reliable-stream contiguity, non-negative player buffer, monotone sim
	// clock, exactly-one Datagram.Done fate. A violation fails that trial
	// with a typed TrialError naming the broken rule; other trials keep
	// running. Off by default, and a disabled checker costs nothing on the
	// hot paths (nil receiver, one branch), so golden outputs are unchanged.
	Invariants bool
	// WatchdogWall bounds one trial's wall-clock runtime; a trial that
	// exceeds it fails with rule "watchdog.wall-budget" instead of hanging
	// the sweep. 0 means no wall budget.
	WatchdogWall time.Duration
	// WatchdogEvents bounds one trial's executed simulator events; a trial
	// that exceeds it fails with rule "watchdog.event-budget". This is the
	// budget that catches a zero-delay event storm, which burns events
	// without ever advancing virtual time. 0 means no event budget.
	WatchdogEvents uint64
	// Inject schedules a deliberate fault inside the trial world — "panic",
	// "invariant", or "spin", optionally suffixed "@trial" to target one
	// trial index — to exercise the failure pipeline end to end. Used by
	// tests and committed repro artifacts; empty in normal operation.
	Inject string
	// ShardIndex/ShardCount partition the trial set across processes:
	// shard i of n owns the trials whose index ≡ i (mod n) and skips the
	// rest, leaving their Trial slots zero-valued. Per-trial seeds and
	// trace shifts depend only on the trial index and the full Trials
	// count, so every shard computes exactly the trials the unsharded run
	// would, and MergeShards folds n shard aggregates back into an
	// aggregate bit-identical to the single-process run. ShardCount 0 (or
	// 1) means unsharded.
	ShardIndex int
	ShardCount int
}

// MaxSessions caps Config.Sessions: each session costs a full stack, and a
// larger swarm is almost certainly a misconfigured flag.
const MaxSessions = 512

// WithDefaults returns the config with the experiment layer's uniform
// defaults applied (system, buffer, queue, trials, seed) — the exact config
// an Aggregate and its TrialErrors are stamped with.
func (c Config) WithDefaults() Config {
	if c.System == "" {
		c.System = SysVoxel
	}
	if c.BufferSegments == 0 {
		c.BufferSegments = 7
	}
	if c.QueuePackets == 0 {
		c.QueuePackets = netem.DefaultQueuePackets
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate checks the user-facing identifier fields — title, system, and
// impairment profile — so CLIs can reject a bad flag with a message instead
// of a panic deep inside a trial.
func (c Config) Validate() error {
	if c.Title != "" {
		if _, err := video.Load(c.Title); err != nil {
			return fmt.Errorf("exp: %v (have %v)", err, video.AllTitles())
		}
	}
	if c.System != "" {
		known := false
		for _, s := range Systems() {
			if s == c.System {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("exp: unknown system %q (have %v)", c.System, Systems())
		}
	}
	if _, _, err := netem.NewProfile(c.Impairment); err != nil {
		return err
	}
	if c.Sessions < 0 || c.Sessions > MaxSessions {
		return fmt.Errorf("exp: sessions %d out of range [0, %d]", c.Sessions, MaxSessions)
	}
	if _, _, err := parseInject(c.Inject); err != nil {
		return err
	}
	if c.ShardCount < 0 {
		return fmt.Errorf("exp: shard count %d is negative", c.ShardCount)
	}
	if c.ShardCount == 0 && c.ShardIndex != 0 {
		return fmt.Errorf("exp: shard index %d without a shard count", c.ShardIndex)
	}
	if c.ShardCount > 0 && (c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount) {
		return fmt.Errorf("exp: shard index %d out of range [0, %d)", c.ShardIndex, c.ShardCount)
	}
	return nil
}

// Owns reports whether this config's shard runs the given trial. An
// unsharded config owns every trial.
func (c Config) Owns(trial int) bool {
	if c.ShardCount <= 1 {
		return true
	}
	return trial%c.ShardCount == c.ShardIndex
}

// sessions resolves the Sessions knob (0 and 1 both mean one session).
func (c Config) sessions() int {
	if c.Sessions <= 1 {
		return 1
	}
	return c.Sessions
}

// workers resolves the Parallelism knob to a concrete worker count.
func (c Config) workers() int {
	if c.Parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.Parallelism == 0 {
		return 1
	}
	return c.Parallelism
}

// FailoverKillTime is when the Failover scenario blackholes the primary
// path for good.
const FailoverKillTime = 30 * time.Second

// SessionResult is one session's summary within a trial. Single-session
// trials have exactly one (identical to the trial-level fields); swarm
// trials have Config.Sessions of them, and the fairness metrics are
// computed over this unit.
type SessionResult struct {
	Session      int
	BufRatio     float64
	AvgBitrate   float64
	MeanScore    float64
	Scores       []float64
	Skipped      float64
	Residual     float64
	Wasted       int64
	StartupDelay time.Duration
	StallTime    time.Duration
	Completed    bool
	FailedReqs   int
}

// Trial is one playback run's summary. In swarm mode (Config.Sessions > 1)
// the scalar metrics fold the per-session results: means for the
// ratio/rate/score fields, sums for the byte and failure counters, and
// Completed only when every session finished. Scores concatenates the
// sessions' per-segment scores in session order.
type Trial struct {
	BufRatio     float64
	AvgBitrate   float64
	MeanScore    float64
	Scores       []float64
	Skipped      float64
	Residual     float64
	Wasted       int64
	StartupDelay time.Duration
	Completed    bool
	FailedReqs   int // requests abandoned after deadline/retry/failover
	// Sessions holds the per-session summaries (length max(1, Sessions)).
	Sessions []SessionResult
	// Jain is Jain's fairness index over the sessions' delivered bitrates:
	// 1.0 means a perfectly even split of the bottleneck, 1/n means one
	// session starved the rest. Always 1.0 for a single session.
	Jain float64
	// Utilization is the busy fraction of the shared bottleneck link from
	// trial start until the last session finished (video plus cross
	// traffic).
	Utilization float64
	// Obs is the first session's telemetry report (nil when
	// Config.Telemetry is off); SessionObs holds every session's report.
	Obs        *obs.TrialReport
	SessionObs []*obs.TrialReport
	// Failed marks a trial that died (panic, invariant violation, watchdog
	// budget) before producing results; the rest of the struct is zero and
	// the TrialError lives in Aggregate.Failed.
	Failed bool
}

// Aggregate collects trials of one configuration.
type Aggregate struct {
	Config    Config
	Trials    []Trial
	BufRatios []float64
	Bitrates  []float64
	AllScores []float64
	// Obs merges the per-trial telemetry (nil when Config.Telemetry is off).
	Obs *obs.Report
	// Failed collects the trials that died, in trial-index order. A failed
	// trial keeps its (zero-valued, Failed-marked) Trial slot but contributes
	// no samples to BufRatios/Bitrates/AllScores, so survivors' statistics
	// are unpolluted.
	Failed []TrialError
}

// BufRatioP90 returns the 90th percentile bufRatio across trials (the
// paper's headline statistic).
func (a *Aggregate) BufRatioP90() float64 { return stats.Percentile(a.BufRatios, 90) }

// BufRatioMean returns the mean bufRatio.
func (a *Aggregate) BufRatioMean() float64 { return stats.Mean(a.BufRatios) }

// BitrateMean returns the mean of per-trial average bitrates (bps).
func (a *Aggregate) BitrateMean() float64 { return stats.Mean(a.Bitrates) }

// ScoreCDF returns the CDF over all streamed segments' scores.
func (a *Aggregate) ScoreCDF() stats.CDF { return stats.NewCDF(a.AllScores) }

// MeanScore returns the mean segment score across trials.
func (a *Aggregate) MeanScore() float64 { return stats.Mean(a.AllScores) }

// SessionScores returns the per-session mean-QoE vector in (trial,
// session) order — the unit the swarm fairness summaries quantify over.
func (a *Aggregate) SessionScores() []float64 {
	var out []float64
	for _, tr := range a.Trials {
		for _, sr := range tr.Sessions {
			out = append(out, sr.MeanScore)
		}
	}
	return out
}

// SessionBitrates returns the per-session delivered bitrates (bps) in
// (trial, session) order.
func (a *Aggregate) SessionBitrates() []float64 {
	var out []float64
	for _, tr := range a.Trials {
		for _, sr := range tr.Sessions {
			out = append(out, sr.AvgBitrate)
		}
	}
	return out
}

// SessionQoEP5 returns the 5th-percentile per-session mean QoE — the
// "worst user" statistic a shared bottleneck is judged by.
func (a *Aggregate) SessionQoEP5() float64 {
	return stats.Percentile(a.SessionScores(), 5)
}

// JainMean returns the mean per-trial Jain fairness index over delivered
// bitrate.
func (a *Aggregate) JainMean() float64 {
	xs := make([]float64, 0, len(a.Trials))
	for _, tr := range a.Trials {
		xs = append(xs, tr.Jain)
	}
	return stats.Mean(xs)
}

// UtilizationMean returns the mean bottleneck busy fraction across trials.
func (a *Aggregate) UtilizationMean() float64 {
	xs := make([]float64, 0, len(a.Trials))
	for _, tr := range a.Trials {
		xs = append(xs, tr.Utilization)
	}
	return stats.Mean(xs)
}

// TotalStall sums rebuffering time over every session of every trial.
func (a *Aggregate) TotalStall() time.Duration {
	var d time.Duration
	for _, tr := range a.Trials {
		for _, sr := range tr.Sessions {
			d += sr.StallTime
		}
	}
	return d
}

// newAlgorithm builds the ABR instance for a system.
func newAlgorithm(sys System) (abr.Algorithm, player.Mode, bool) {
	switch sys {
	case SysBolaQ:
		return abr.NewBola(), player.ModeReliable, false
	case SysBolaQStar:
		return abr.NewBola(), player.ModeOpaque, false
	case SysMPCQ:
		return abr.NewMPC(), player.ModeReliable, false
	case SysMPCQStar:
		return abr.NewMPC(), player.ModeOpaque, false
	case SysTputQ:
		return abr.NewTput(), player.ModeReliable, false
	case SysTputQStar:
		return abr.NewTput(), player.ModeOpaque, false
	case SysBeta:
		return abr.NewBeta(), player.ModeReliable, true
	case SysBolaSSIM:
		return abr.NewBolaSSIM(), player.ModeVoxel, false
	case SysVoxel:
		return abr.NewABRStar(), player.ModeVoxel, false
	case SysVoxelRel:
		return abr.NewABRStar(), player.ModeVoxelReliable, false
	case SysVoxelUntuned:
		return abr.NewABRStarSafety(1.0), player.ModeVoxel, false
	default:
		panic(fmt.Sprintf("exp: unknown system %q", sys))
	}
}

// manifest cache: prep is a one-time offline cost (§4.1), so share it. Each
// key carries its own sync.Once so concurrent trials only wait on same-key
// builds — a build for (BBB, SSIM) never blocks a cache hit for (ToS, VMAF).
type manEntry struct {
	once sync.Once
	m    *dash.Manifest
}

var (
	manMu    sync.Mutex
	manCache = map[string]*manEntry{}
)

// ManifestFor returns the enriched manifest for (title, metric, segments),
// cached across experiments. Concurrent callers with the same key share one
// build; callers with different keys never block each other.
func ManifestFor(title string, metric qoe.Metric, segments int) *dash.Manifest {
	key := fmt.Sprintf("%s/%v/%d", title, metric, segments)
	manMu.Lock()
	e, ok := manCache[key]
	if !ok {
		e = &manEntry{}
		manCache[key] = e
	}
	manMu.Unlock()
	e.once.Do(func() {
		v := video.MustLoad(title)
		if segments > 0 && segments < v.Segments {
			v.Segments = segments
		}
		a := prep.NewAnalyzer()
		a.Metric = metric
		e.m = dash.Build(v, dash.BuildOptions{Voxel: true, PointsPerSegment: 12, Analyzer: a})
	})
	return e.m
}

// Run executes all trials of a configuration, fanning them out across
// cfg.Parallelism workers. Trials are independent by construction (each owns
// its own sim.New world), and results land by trial index, so the aggregate
// is bit-identical to a sequential run. A sharded config (ShardCount > 1)
// runs only its owned trials; the other slots stay zero-valued and the
// aggregate's samples cover the owned trials only.
func Run(cfg Config) *Aggregate {
	c := cfg.WithDefaults()
	trials := make([]Trial, c.Trials)
	fails := make([]*TrialError, c.Trials)
	RunPartial(c, nil, func(ti int, tr Trial, te *TrialError) {
		trials[ti], fails[ti] = tr, te
	})
	return Assemble(c, trials, fails)
}

// TrialFunc observes one completed trial: its index, its result, and (for a
// failed trial) the structured error. The harness delivers completions in
// strictly increasing trial order and one at a time, regardless of how many
// workers run — so a checkpoint writer or a streaming fold needs no
// reordering or locking of its own, and order-sensitive accumulations
// (float sums) stay deterministic at any parallelism.
type TrialFunc func(trial int, tr Trial, te *TrialError)

// RunPartial runs the trials of cfg that the config's shard owns and that
// skip does not exclude (nil skips nothing), delivering each to fn in trial
// order. It keeps no per-trial state of its own: fn decides whether a
// result is retained (Run), folded into a sketch and dropped (the sweep
// engine's streaming mode), or checkpointed. A trial that Config.Interrupt
// cancelled before it started is not delivered. A failed trial fires
// FailureHook just before fn sees it.
func RunPartial(cfg Config, skip func(trial int) bool, fn TrialFunc) {
	c := cfg.WithDefaults()
	var order []int // planned trial indices, increasing
	for ti := 0; ti < c.Trials; ti++ {
		if c.Owns(ti) && (skip == nil || !skip(ti)) {
			order = append(order, ti)
		}
	}
	// Completions are sequenced into trial order through a reorder buffer.
	// Trials are dispatched to the pool in increasing order, so at most
	// `workers` completions can ever wait ahead of the cursor — the buffer
	// is bounded by the pool, not the sweep size. The callback runs under
	// mu, which is what makes TrialFunc's "serialized, in trial order"
	// contract hold.
	type result struct {
		tr      Trial
		te      *TrialError
		skipped bool // interrupted before running; advance past silently
	}
	var (
		mu    sync.Mutex
		ready = map[int]result{}
		next  int // cursor into order
	)
	complete := func(ti int, r result) {
		mu.Lock()
		defer mu.Unlock()
		ready[ti] = r
		for next < len(order) {
			ti := order[next]
			r, ok := ready[ti]
			if !ok {
				break
			}
			delete(ready, ti)
			next++
			if r.skipped {
				continue
			}
			if r.te != nil && FailureHook != nil {
				FailureHook(r.te)
			}
			fn(ti, r.tr, r.te)
		}
	}
	runOne := func(ti int) {
		if interrupted(c.Interrupt) {
			complete(ti, result{skipped: true})
			return
		}
		man := ManifestFor(c.Title, c.Metric, c.Segments)
		shift := time.Duration(0)
		if c.Trace != nil && c.Trials > 1 {
			shift = c.Trace.Duration() * time.Duration(ti) / time.Duration(c.Trials)
		}
		tr, te := runTrial(c, man, shift, TrialSeed(c.Seed, ti), ti)
		complete(ti, result{tr: tr, te: te})
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < min(c.workers(), len(order)); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range ch {
				runOne(ti)
			}
		}()
	}
	for _, ti := range order {
		ch <- ti
	}
	close(ch)
	wg.Wait()
}

// interrupted polls an interrupt channel without blocking; a nil channel
// never fires.
func interrupted(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TrialSeed derives trial j's world seed from the config seed. Exported so
// the chaos shrinker can collapse a multi-trial failure to a single-trial
// artifact that builds the exact same world.
func TrialSeed(base int64, trial int) int64 { return base + int64(trial)*7919 }

// Assemble folds raw per-trial results into an Aggregate, exactly the way a
// live run does: samples in trial order (owned trials only), failures in
// trial order, telemetry merged in (trial, session) order. It is a pure
// deterministic function of its inputs, which is what makes sharded,
// checkpointed, and resumed sweeps reproduce a single-process aggregate
// bit for bit — the raw trial results are identical, and this fold is the
// same code path. cfg is defaulted before stamping.
func Assemble(cfg Config, trials []Trial, fails []*TrialError) *Aggregate {
	c := cfg.WithDefaults()
	agg := &Aggregate{Config: c, Trials: trials}
	for ti, tr := range trials {
		if !c.Owns(ti) {
			continue // an unowned slot is absent, not a zero sample
		}
		if ti < len(fails) && fails[ti] != nil {
			agg.Failed = append(agg.Failed, *fails[ti])
			continue
		}
		agg.BufRatios = append(agg.BufRatios, tr.BufRatio)
		agg.Bitrates = append(agg.Bitrates, tr.AvgBitrate)
		agg.AllScores = append(agg.AllScores, tr.Scores...)
	}
	if c.Telemetry {
		cells := make([][]*obs.TrialReport, len(trials))
		for ti := range trials {
			if !c.Owns(ti) {
				continue
			}
			cells[ti] = trials[ti].SessionObs
			if ti < len(fails) && fails[ti] != nil && cells[ti] == nil {
				// A failed trial never snapshotted its scopes; substitute an
				// explicit failed-marker report so exports keep one entry per
				// trial instead of silently skipping the slot.
				cells[ti] = []*obs.TrialReport{obs.FailedTrialReport(fails[ti].Clock)}
			}
		}
		agg.Obs = obs.MergeSessions(cells)
		if c.ShardCount > 1 {
			// Tag per-shard telemetry so shard export files are
			// self-describing; merged/unsharded reports stay untagged and
			// their exports keep the canonical byte format.
			agg.Obs.ShardTag = c.ShardIndex
		}
	}
	return agg
}

// buildPath assembles one server↔client path per the config's shaping
// knobs. Cross-traffic generation (primary path only) is the caller's job.
func buildPath(s *sim.Sim, cfg Config, man *dash.Manifest, shift time.Duration) *netem.Path {
	if cfg.CrossTraffic > 0 {
		capacity := cfg.LinkCapacity
		if capacity <= 0 {
			capacity = 20e6
		}
		secs := int((man.Duration()*30)/time.Second) + 60
		return netem.NewPath(s, trace.Constant("link", capacity, secs), cfg.QueuePackets)
	}
	tr := cfg.Trace
	if tr == nil {
		tr = trace.Constant("default", 10e6, 600)
	}
	return netem.NewPath(s, tr.Shifted(shift), cfg.QueuePackets)
}

// interruptCheckpoint is the virtual-time width of one event-loop slice:
// how often runTrial comes up for air to poll Config.Interrupt and the
// watchdog budgets. Slicing executes the exact same events in the same
// order as one RunUntil over the whole span, so results stay bit-identical;
// it only bounds how much virtual time a cancellation can lag.
const interruptCheckpoint = time.Second

// runTrial executes one trial world. A failure — recovered panic, invariant
// violation, setup error, or watchdog budget — returns a zero Trial (marked
// Failed) plus the TrialError; the caller's other trials are untouched.
func runTrial(cfg Config, man *dash.Manifest, shift time.Duration, seed int64, trial int) (tr Trial, terr *TrialError) {
	tc := &trialCtx{cfg: cfg, trial: trial, seed: seed, session: -1}
	s := sim.New(seed)
	defer func() {
		if r := recover(); r != nil {
			tr = Trial{Failed: true}
			terr = tc.fromPanic(r, time.Duration(s.Now()))
		}
	}()
	if cfg.Invariants {
		s.SetChecker(invariant.New())
	}
	n := cfg.sessions()

	// One scope per session: each trial's world is single-threaded, so
	// event sequence numbers are deterministic even under parallel trial
	// fan-out, and per-session scopes keep swarm telemetry attributable.
	scopes := make([]*obs.Scope, n)
	if cfg.Telemetry {
		for i := range scopes {
			scopes[i] = obs.NewScope(func() time.Duration { return time.Duration(s.Now()) },
				obs.Options{TimelineCap: cfg.TimelineCap})
		}
	}

	// All sessions share this one path: its downlink is the contended
	// bottleneck queue the swarm (and any cross traffic) fights over.
	path := buildPath(s, cfg, man, shift)
	var gen *crosstraffic.Generator
	if cfg.CrossTraffic > 0 {
		gen = crosstraffic.New(s, path, cfg.CrossTraffic)
		gen.Start()
	}

	impaired := cfg.Impairment != "" && cfg.Impairment != netem.ProfileClean
	recovered := impaired || cfg.Failover

	if cfg.Failover {
		// Primary path goes dark for good mid-stream; profile impairments
		// (the client's flaky last mile) ride on top in both directions.
		kill := netem.Blackout{Windows: []netem.Window{{Start: FailoverKillTime, End: 1 << 62}}}
		down, up, err := netem.NewProfile(cfg.Impairment)
		if err != nil {
			return Trial{Failed: true}, tc.errf(time.Duration(s.Now()), "error", "impairment profile: %v", err)
		}
		dc, uc := netem.Chain{kill}, netem.Chain{kill}
		if down != nil {
			dc = append(dc, down)
		}
		if up != nil {
			uc = append(uc, up)
		}
		path.Down.Impair(dc, seed+0x1000)
		path.Up.Impair(uc, seed+0x1000+0x9E3779B9)
	} else if impaired {
		if err := netem.ApplyProfile(path, cfg.Impairment, seed+0x1000); err != nil {
			return Trial{Failed: true}, tc.errf(time.Duration(s.Now()), "error", "impairment profile: %v", err)
		}
	}

	v := video.MustLoad(cfg.Title)
	if cfg.Segments > 0 && cfg.Segments < v.Segments {
		v.Segments = cfg.Segments
	}

	// Assemble one full stack per session over the shared path. Session
	// construction order is the determinism contract: a single-session
	// swarm builds the world in exactly the sequence the classic path did.
	players := make([]*player.Player, n)
	running := n
	var lastDone, busyAtLastDone sim.Time
	for si := 0; si < n; si++ {
		tc.session = si
		scope := scopes[si]
		var clientCfg, serverCfg quic.Config
		clientCfg.Obs = scope
		serverCfg.Obs = scope
		if cfg.CC == "bbr" {
			serverCfg.Controller = cc.NewBBRLite() // controllers hold per-conn state
		}
		if recovered {
			// Survive outages instead of wedging: probe at a bounded cadence
			// through blackouts, keep quiet-but-healthy connections alive, and
			// tear down only after a long silence. The failover scenario uses a
			// short idle timeout on the primary so origin death is detected
			// within seconds.
			clientCfg.IdleTimeout = 30 * time.Second
			clientCfg.KeepAlive = true
			clientCfg.PTOBackoffCap = 6
			serverCfg.IdleTimeout = 60 * time.Second
			serverCfg.PTOBackoffCap = 6
			if cfg.Failover {
				clientCfg.IdleTimeout = 2 * time.Second
			}
		}

		clientConn, serverConn := quic.NewPair(s, path, clientCfg, serverCfg)
		if _, err := server.New(serverConn, man, httpsim.ServerOptions{}); err != nil {
			return Trial{Failed: true}, tc.errf(time.Duration(s.Now()), "error", "origin server: %v", err)
		}

		alg, mode, beta := newAlgorithm(cfg.System)
		alg = abr.Instrument(alg, scope)
		pcfg := player.Config{
			Algorithm:      alg,
			Mode:           mode,
			BufferSegments: cfg.BufferSegments,
			Metric:         cfg.Metric,
			BetaCandidates: beta,
			Obs:            scope,
		}
		if recovered {
			pcfg.Recovery = httpsim.Recovery{
				RequestTimeout: 4 * time.Second,
				Retry: httpsim.RetryPolicy{
					MaxAttempts: 4,
					BaseDelay:   250 * time.Millisecond,
					MaxDelay:    4 * time.Second,
					Jitter:      0.25,
				},
			}
		}
		if cfg.Failover {
			// Second origin on its own path (same shaping and, if set, the
			// same impairment profile with independent fault schedules — the
			// backup origin still sits behind the client's last mile). Each
			// swarm session gets its own backup origin.
			path2 := buildPath(s, cfg, man, shift)
			if impaired {
				if err := netem.ApplyProfile(path2, cfg.Impairment, seed+0x2000+int64(si)*0x9E37); err != nil {
					return Trial{Failed: true}, tc.errf(time.Duration(s.Now()), "error", "backup impairment profile: %v", err)
				}
			}
			c2cfg := clientCfg
			c2cfg.IdleTimeout = 30 * time.Second
			s2cfg := serverCfg
			if cfg.CC == "bbr" {
				s2cfg.Controller = cc.NewBBRLite()
			}
			clientConn2, serverConn2 := quic.NewPair(s, path2, c2cfg, s2cfg)
			if _, err := server.New(serverConn2, man, httpsim.ServerOptions{}); err != nil {
				return Trial{Failed: true}, tc.errf(time.Duration(s.Now()), "error", "backup origin server: %v", err)
			}
			pcfg.FailoverConns = []*quic.Conn{clientConn2}
		}
		pl := player.New(s, clientConn, v, man, pcfg)
		pl.Run(func() {
			// Snapshot the bottleneck's busy time whenever a session drains
			// its buffer; the last snapshot bounds the utilization window so
			// post-playback cross traffic doesn't dilute the figure.
			running--
			lastDone = s.Now()
			busyAtLastDone = path.Down.Stats().BusyTime
		})
		players[si] = pl
	}
	tc.session = -1 // construction done; failures below are world-wide

	if kind, ok := cfg.injectFor(trial); ok {
		switch kind {
		case injectPanic:
			s.Schedule(sim.Time(injectTime), func() {
				panic(fmt.Sprintf("injected fault (trial %d, seed %d)", trial, seed))
			})
		case injectInvariant:
			s.Schedule(sim.Time(injectTime), func() {
				panic(&invariant.Violation{Layer: "exp", Rule: "exp.injected-fault",
					Detail: fmt.Sprintf("deliberate violation (trial %d, seed %d)", trial, seed)})
			})
		case injectSpin:
			// Zero-delay event storm: virtual time freezes while the event
			// count races — exactly the failure mode only the watchdog's
			// event budget can catch.
			var spin func()
			spin = func() { s.Schedule(0, spin) }
			s.Schedule(sim.Time(injectTime), spin)
		}
	}

	limit := cfg.MaxSimTime
	if limit == 0 {
		limit = 20 * man.Duration()
	}
	// One sliced event loop serves every trial. Each slice is a budgeted
	// RunUntil to the next checkpoint; the event budget, the wall budget and
	// the interrupt poll are each consulted only when set. The !s.Halted()
	// guard matters since RunUntil does not advance the clock on a halted
	// simulator: without it a mid-trial Halt would pin Now below the next
	// checkpoint and spin this loop forever.
	var wallStart time.Time
	if cfg.WatchdogWall > 0 {
		//voxel:det-ok the wall watchdog measures real elapsed time by design; it never feeds trial results
		wallStart = time.Now()
	}
	startExec := s.Executed()
	aborted := false
	for s.Now() < limit && !aborted && !s.Halted() && s.Pending() > 0 {
		next := s.Now() + interruptCheckpoint
		if next > limit {
			next = limit
		}
		slice := ^uint64(0)
		if cfg.WatchdogWall > 0 || cfg.WatchdogEvents > 0 {
			// Cap the slice so even a zero-delay storm — which never lets
			// the clock reach next — yields control for the budget checks.
			slice = watchdogSliceEvents
		}
		if cfg.WatchdogEvents > 0 {
			if rem := cfg.WatchdogEvents - (s.Executed() - startExec); rem < slice {
				slice = rem
			}
		}
		s.RunUntilBudget(next, slice)
		if cfg.WatchdogEvents > 0 && s.Executed()-startExec >= cfg.WatchdogEvents {
			return Trial{Failed: true}, tc.errf(time.Duration(s.Now()), "watchdog.event-budget",
				"trial executed %d events (budget %d) at virtual %v",
				s.Executed()-startExec, cfg.WatchdogEvents, time.Duration(s.Now()))
		}
		if cfg.WatchdogWall > 0 {
			//voxel:det-ok the wall watchdog measures real elapsed time by design; it never feeds trial results
			if elapsed := time.Since(wallStart); elapsed > cfg.WatchdogWall {
				return Trial{Failed: true}, tc.errf(time.Duration(s.Now()), "watchdog.wall-budget",
					"trial ran %v wall (budget %v) at virtual %v",
					elapsed.Round(time.Millisecond), cfg.WatchdogWall, time.Duration(s.Now()))
			}
		}
		aborted = cfg.Interrupt != nil && interrupted(cfg.Interrupt)
	}
	if !aborted && !s.Halted() && s.Now() < limit {
		s.RunUntil(limit) // queue drained early: fast-forward the clock
	}
	if gen != nil {
		gen.Stop()
	}
	if running > 0 {
		// Some session never finished (safety limit or interrupt): the
		// utilization window extends to wherever the run stopped.
		lastDone = s.Now()
		busyAtLastDone = path.Down.Stats().BusyTime
	}

	sessions := make([]SessionResult, n)
	for si, pl := range players {
		res := pl.Results()
		sr := SessionResult{
			Session:      si,
			BufRatio:     res.BufRatio(),
			AvgBitrate:   res.AvgBitrate(),
			MeanScore:    res.MeanScore(),
			Scores:       res.Scores(),
			Skipped:      res.SkippedFraction(),
			Residual:     res.ResidualLossFraction(),
			Wasted:       res.BytesWasted,
			StartupDelay: res.StartupDelay,
			StallTime:    res.StallTime,
			Completed:    pl.Done(),
			FailedReqs:   res.FailedRequests,
		}
		if !pl.Done() {
			// The run hit the safety limit: treat all remaining media time as
			// stall so wedged configurations show up as terrible, not absent.
			played := time.Duration(len(res.Segments)) * man.SegmentDuration
			missing := man.Duration() - played
			if missing > 0 {
				sr.BufRatio = (res.StallTime + missing).Seconds() / man.Duration().Seconds()
			}
		}
		sessions[si] = sr
	}
	tr = foldSessions(sessions)
	if lastDone > 0 {
		tr.Utilization = float64(busyAtLastDone) / float64(lastDone)
	}
	if cfg.Telemetry {
		tr.SessionObs = make([]*obs.TrialReport, n)
		for si, scope := range scopes {
			rep := scope.TrialReport()
			rep.Session = si
			tr.SessionObs[si] = rep
		}
		tr.Obs = tr.SessionObs[0]
	}
	return tr, nil
}

// foldSessions collapses the per-session results into the trial-level
// scalars: means for the ratio/rate fields, sums for byte and failure
// counters, concatenated scores. For one session the fold is the identity,
// which is what keeps Sessions=1 bit-identical to the classic path.
func foldSessions(sessions []SessionResult) Trial {
	tr := Trial{Sessions: sessions, Completed: true}
	var bitrates []float64
	var startup time.Duration
	for _, sr := range sessions {
		tr.BufRatio += sr.BufRatio
		tr.AvgBitrate += sr.AvgBitrate
		tr.Skipped += sr.Skipped
		tr.Residual += sr.Residual
		tr.Wasted += sr.Wasted
		tr.FailedReqs += sr.FailedReqs
		tr.Scores = append(tr.Scores, sr.Scores...)
		startup += sr.StartupDelay
		if !sr.Completed {
			tr.Completed = false
		}
		bitrates = append(bitrates, sr.AvgBitrate)
	}
	inv := 1 / float64(len(sessions))
	tr.BufRatio *= inv
	tr.AvgBitrate *= inv
	tr.Skipped *= inv
	tr.Residual *= inv
	tr.StartupDelay = time.Duration(float64(startup) * inv)
	tr.MeanScore = stats.Mean(tr.Scores)
	tr.Jain = stats.JainIndex(bitrates)
	return tr
}
