package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"voxel/internal/abr"
	"voxel/internal/cc"
	"voxel/internal/dash"
	"voxel/internal/exp"
	"voxel/internal/httpsim"
	"voxel/internal/invariant"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/player"
	"voxel/internal/quic"
	"voxel/internal/server"
	"voxel/internal/sim"
	"voxel/internal/stats"
	"voxel/internal/video"
)

// probesInstalled counts the interface wrappers the traced run installed;
// the untraced run must leave it at zero.
var probesInstalled atomic.Int64

// callStat counts calls into one seam and the wall time spent inside them.
type callStat struct {
	n uint64
	d time.Duration
}

func (c *callStat) done(t0 time.Time) {
	c.n++
	c.d += time.Since(t0)
}

func (c *callStat) add(o callStat) {
	c.n += o.n
	c.d += o.d
}

// layerCounts accumulates one trial's per-layer numbers; a pass sums them
// over its trials.
type layerCounts struct {
	trials int

	cc          callStat
	ccLossEvent uint64
	decide      callStat
	abandon     callStat
	impair      callStat

	simEvents uint64
	simRun    time.Duration

	worldSetup, fold, newPair, serverNew, playerNew time.Duration
	serverAllocB                                    uint64
	allocB, allocObj                                [3]uint64 // setup, run, fold

	quic quic.Stats // summed over both endpoints of every connection

	downSent, downQueueDrops, downImpairedDrops, downAdmitted uint64
	downMaxQueue                                              int
	downQueueDelay, downBusy, busyWindow                      time.Duration
	upSent, upImpairedDrops                                   uint64

	bytesReceived, bytesWasted, lostInTransit, recovered int64
	failedRequests                                       int
	stall                                                time.Duration
}

func (l *layerCounts) add(o *layerCounts) {
	l.trials += o.trials
	l.cc.add(o.cc)
	l.ccLossEvent += o.ccLossEvent
	l.decide.add(o.decide)
	l.abandon.add(o.abandon)
	l.impair.add(o.impair)
	l.simEvents += o.simEvents
	l.simRun += o.simRun
	l.worldSetup += o.worldSetup
	l.fold += o.fold
	l.newPair += o.newPair
	l.serverNew += o.serverNew
	l.playerNew += o.playerNew
	l.serverAllocB += o.serverAllocB
	for i := range l.allocB {
		l.allocB[i] += o.allocB[i]
		l.allocObj[i] += o.allocObj[i]
	}
	addQuicStats(&l.quic, o.quic)
	l.downSent += o.downSent
	l.downQueueDrops += o.downQueueDrops
	l.downImpairedDrops += o.downImpairedDrops
	l.downAdmitted += o.downAdmitted
	if o.downMaxQueue > l.downMaxQueue {
		l.downMaxQueue = o.downMaxQueue
	}
	l.downQueueDelay += o.downQueueDelay
	l.downBusy += o.downBusy
	l.busyWindow += o.busyWindow
	l.upSent += o.upSent
	l.upImpairedDrops += o.upImpairedDrops
	l.bytesReceived += o.bytesReceived
	l.bytesWasted += o.bytesWasted
	l.lostInTransit += o.lostInTransit
	l.recovered += o.recovered
	l.failedRequests += o.failedRequests
	l.stall += o.stall
}

func addQuicStats(dst *quic.Stats, s quic.Stats) {
	dst.PacketsSent += s.PacketsSent
	dst.PacketsReceived += s.PacketsReceived
	dst.PacketsDeclLost += s.PacketsDeclLost
	dst.BytesSent += s.BytesSent
	dst.StreamBytesSent += s.StreamBytesSent
	dst.RetransmitBytes += s.RetransmitBytes
	dst.UnreliableLost += s.UnreliableLost
	dst.UnreliableRewrite += s.UnreliableRewrite
	dst.PTOCount += s.PTOCount
}

// ccProbe wraps a congestion controller, the seam quic.Config.Controller
// opens.
type ccProbe struct {
	inner cc.Controller
	c     *layerCounts
}

func (p *ccProbe) OnPacketSent(now sim.Time, bytes int) {
	t0 := time.Now()
	p.inner.OnPacketSent(now, bytes)
	p.c.cc.done(t0)
}

func (p *ccProbe) OnAck(now sim.Time, bytes int, rtt sim.Time) {
	t0 := time.Now()
	p.inner.OnAck(now, bytes, rtt)
	p.c.cc.done(t0)
}

func (p *ccProbe) OnLoss(now sim.Time, bytes int, isNewEvent bool) {
	t0 := time.Now()
	p.inner.OnLoss(now, bytes, isNewEvent)
	p.c.cc.done(t0)
	if isNewEvent {
		p.c.ccLossEvent++
	}
}

func (p *ccProbe) OnRetransmissionTimeout(now sim.Time) {
	t0 := time.Now()
	p.inner.OnRetransmissionTimeout(now)
	p.c.cc.done(t0)
}

func (p *ccProbe) Window() int {
	t0 := time.Now()
	w := p.inner.Window()
	p.c.cc.done(t0)
	return w
}

func (p *ccProbe) InFlight() int {
	t0 := time.Now()
	n := p.inner.InFlight()
	p.c.cc.done(t0)
	return n
}

func (p *ccProbe) CanSend(bytes int) bool {
	t0 := time.Now()
	ok := p.inner.CanSend(bytes)
	p.c.cc.done(t0)
	return ok
}

// abrProbe wraps an ABR algorithm, the seam player.Config.Algorithm opens.
type abrProbe struct {
	inner abr.Algorithm
	c     *layerCounts
}

func (p *abrProbe) Name() string { return p.inner.Name() }

func (p *abrProbe) Decide(st abr.State, opts abr.Options) abr.Decision {
	t0 := time.Now()
	d := p.inner.Decide(st, opts)
	p.c.decide.done(t0)
	return d
}

func (p *abrProbe) Abandon(st abr.State, opts abr.Options, pr abr.Progress) abr.AbandonAction {
	t0 := time.Now()
	a := p.inner.Abandon(st, opts, pr)
	p.c.abandon.done(t0)
	return a
}

func (p *abrProbe) OnSample(s abr.Sample) { p.inner.OnSample(s) }

// impairProbe wraps a netem impairment, the seam Link.Impair opens.
type impairProbe struct {
	inner netem.Impairment
	c     *layerCounts
}

func (p *impairProbe) Apply(now sim.Time, rng *rand.Rand, f *netem.Fate) {
	t0 := time.Now()
	p.inner.Apply(now, rng, f)
	p.c.impair.done(t0)
}

// spanRec is one recorded span. Start and End count from the start of the
// traced pass; Parent indexes the pass's span list (-1 for a root); spans
// of one trial share Trial (-1 outside trials).
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trial  int    `json:"trial"`
}

// spanLog records the spans of one goroutine's work: a trial, or the
// pass's own cell-level calls.
type spanLog struct {
	t0    time.Time
	trial int
	spans []spanRec
	open  []int
}

func (l *spanLog) begin(name string) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, spanRec{Name: name, Start: int64(time.Since(l.t0)), Parent: parent, Trial: l.trial})
	l.open = append(l.open, len(l.spans)-1)
	return len(l.spans) - 1
}

// end closes span i (the innermost open one) and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	l.spans[i].End = int64(time.Since(l.t0))
	l.open = l.open[:len(l.open)-1]
	return time.Duration(l.spans[i].End - l.spans[i].Start)
}

// mirror runs the trial pipeline through each layer's public functions,
// reproducing exp's trial world step for step with probes installed. It
// supports the features the benchmark workloads use.
type mirror struct {
	workers int
	log     spanLog // cell-level spans, appended to by trials under mu

	mu       sync.Mutex
	counts   layerCounts
	trialDur []float64 // ms, one per trial
	trialID  int
}

func newMirror(workers int, t0 time.Time) *mirror {
	return &mirror{workers: workers, log: spanLog{t0: t0, trial: -1}}
}

// runCell runs every trial of cfg and folds them with exp.Assemble.
func (m *mirror) runCell(cfg exp.Config) (*exp.Aggregate, error) {
	cfg = cfg.WithDefaults()
	if cfg.CrossTraffic > 0 || cfg.Failover || cfg.Inject != "" || cfg.Interrupt != nil ||
		cfg.ShardCount > 1 || cfg.WatchdogWall > 0 || cfg.Trace == nil {
		return nil, fmt.Errorf("mirror: config uses a feature the traced run does not mirror")
	}
	cellSpan := m.log.begin("exp.cell")
	man := exp.ManifestFor(cfg.Title, cfg.Metric, cfg.Segments)
	trials := make([]exp.Trial, cfg.Trials)
	fails := make([]*exp.TrialError, cfg.Trials)
	errs := make([]error, cfg.Trials)
	base := m.trialID
	m.trialID += cfg.Trials

	run := func(j int) {
		shift := time.Duration(0)
		if cfg.Trials > 1 {
			shift = cfg.Trace.Duration() * time.Duration(j) / time.Duration(cfg.Trials)
		}
		l := &spanLog{t0: m.log.t0, trial: base + j}
		var c layerCounts
		trials[j], errs[j] = runTrial(l, &c, cfg, man, shift, exp.TrialSeed(cfg.Seed, j))
		m.mu.Lock()
		defer m.mu.Unlock()
		off := len(m.log.spans)
		for _, s := range l.spans {
			if s.Parent < 0 {
				s.Parent = cellSpan
			} else {
				s.Parent += off
			}
			m.log.spans = append(m.log.spans, s)
		}
		m.trialDur = append(m.trialDur, float64(l.spans[0].End-l.spans[0].Start)/1e6)
		m.counts.add(&c)
	}
	w := m.workers
	if w > cfg.Trials {
		w = cfg.Trials
	}
	if w <= 1 {
		for j := range trials {
			run(j)
		}
	} else {
		ch := make(chan int)
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range ch {
					run(j)
				}
			}()
		}
		for j := range trials {
			ch <- j
		}
		close(ch)
		wg.Wait()
	}
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mirror: trial %d: %w", j, err)
		}
	}

	b0, o0 := readAllocs()
	sp := m.log.begin("exp.fold")
	agg := exp.Assemble(cfg, trials, fails)
	d := m.log.end(sp)
	b1, o1 := readAllocs()
	m.log.end(cellSpan)
	m.counts.fold += d
	m.counts.allocB[2] += b1 - b0
	m.counts.allocObj[2] += o1 - o0
	return agg, nil
}

// newAlgorithm mirrors exp's system table.
func newAlgorithm(sys exp.System) (abr.Algorithm, player.Mode, bool, error) {
	switch sys {
	case exp.SysBolaQ:
		return abr.NewBola(), player.ModeReliable, false, nil
	case exp.SysBolaQStar:
		return abr.NewBola(), player.ModeOpaque, false, nil
	case exp.SysMPCQ:
		return abr.NewMPC(), player.ModeReliable, false, nil
	case exp.SysMPCQStar:
		return abr.NewMPC(), player.ModeOpaque, false, nil
	case exp.SysTputQ:
		return abr.NewTput(), player.ModeReliable, false, nil
	case exp.SysTputQStar:
		return abr.NewTput(), player.ModeOpaque, false, nil
	case exp.SysBeta:
		return abr.NewBeta(), player.ModeReliable, true, nil
	case exp.SysBolaSSIM:
		return abr.NewBolaSSIM(), player.ModeVoxel, false, nil
	case exp.SysVoxel:
		return abr.NewABRStar(), player.ModeVoxel, false, nil
	case exp.SysVoxelRel:
		return abr.NewABRStar(), player.ModeVoxelReliable, false, nil
	case exp.SysVoxelUntuned:
		return abr.NewABRStarSafety(1.0), player.ModeVoxel, false, nil
	}
	return nil, 0, false, fmt.Errorf("unknown system %q", sys)
}

// watchdogSlice is exp's event budget per slice of the watchdog loop.
const watchdogSlice = 1 << 21

// runTrial builds and runs one trial world the way exp does, with a span
// around each call into a layer and probes on the three callback seams.
func runTrial(l *spanLog, c *layerCounts, cfg exp.Config, man *dash.Manifest, shift time.Duration, seed int64) (tr exp.Trial, err error) {
	c.trials = 1
	root := l.begin("exp.trial")
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		for len(l.open) > 0 {
			l.end(l.open[len(l.open)-1])
		}
	}()

	b0, o0 := readAllocs()
	setup := l.begin("exp.world_setup")
	s := sim.New(seed)
	if cfg.Invariants {
		s.SetChecker(invariant.New())
	}
	n := cfg.Sessions
	if n < 1 {
		n = 1
	}
	scopes := make([]*obs.Scope, n)
	if cfg.Telemetry {
		for i := range scopes {
			scopes[i] = obs.NewScope(func() time.Duration { return time.Duration(s.Now()) },
				obs.Options{TimelineCap: cfg.TimelineCap})
		}
	}
	sp := l.begin("netem.new_path")
	path := netem.NewPath(s, cfg.Trace.Shifted(shift), cfg.QueuePackets)
	l.end(sp)

	impaired := cfg.Impairment != "" && cfg.Impairment != netem.ProfileClean
	if impaired {
		down, up, perr := netem.NewProfile(cfg.Impairment)
		if perr != nil {
			return exp.Trial{}, perr
		}
		if down != nil {
			path.Down.Impair(&impairProbe{inner: down, c: c}, seed+0x1000)
			probesInstalled.Add(1)
		}
		if up != nil {
			path.Up.Impair(&impairProbe{inner: up, c: c}, seed+0x1000+0x9E3779B9)
			probesInstalled.Add(1)
		}
	}

	v := video.MustLoad(cfg.Title)
	if cfg.Segments > 0 && cfg.Segments < v.Segments {
		v.Segments = cfg.Segments
	}

	players := make([]*player.Player, n)
	running := n
	var lastDone, busyAtLastDone sim.Time
	var conns []*quic.Conn
	for si := 0; si < n; si++ {
		scope := scopes[si]
		var clientCfg, serverCfg quic.Config
		clientCfg.Obs = scope
		serverCfg.Obs = scope
		var serverCtl cc.Controller = cc.NewCubic()
		if cfg.CC == "bbr" {
			serverCtl = cc.NewBBRLite()
		}
		clientCfg.Controller = &ccProbe{inner: cc.NewCubic(), c: c}
		serverCfg.Controller = &ccProbe{inner: serverCtl, c: c}
		probesInstalled.Add(2)
		if impaired {
			clientCfg.IdleTimeout = 30 * time.Second
			clientCfg.KeepAlive = true
			clientCfg.PTOBackoffCap = 6
			serverCfg.IdleTimeout = 60 * time.Second
			serverCfg.PTOBackoffCap = 6
		}

		sp = l.begin("quic.new_pair")
		clientConn, serverConn := quic.NewPair(s, path, clientCfg, serverCfg)
		c.newPair += l.end(sp)
		conns = append(conns, clientConn, serverConn)

		ab, _ := readAllocs()
		sp = l.begin("server.new")
		_, serr := server.New(serverConn, man, httpsim.ServerOptions{})
		c.serverNew += l.end(sp)
		bb, _ := readAllocs()
		c.serverAllocB += bb - ab
		if serr != nil {
			return exp.Trial{}, serr
		}

		alg, mode, beta, aerr := newAlgorithm(cfg.System)
		if aerr != nil {
			return exp.Trial{}, aerr
		}
		probesInstalled.Add(1)
		pcfg := player.Config{
			Algorithm:      abr.Instrument(&abrProbe{inner: alg, c: c}, scope),
			Mode:           mode,
			BufferSegments: cfg.BufferSegments,
			Metric:         cfg.Metric,
			BetaCandidates: beta,
			Obs:            scope,
		}
		if impaired {
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
		sp = l.begin("player.new")
		pl := player.New(s, clientConn, v, man, pcfg)
		pl.Run(func() {
			running--
			lastDone = s.Now()
			busyAtLastDone = path.Down.Stats().BusyTime
		})
		c.playerNew += l.end(sp)
		players[si] = pl
	}
	c.worldSetup += l.end(setup)
	b1, o1 := readAllocs()
	c.allocB[0] += b1 - b0
	c.allocObj[0] += o1 - o0

	limit := cfg.MaxSimTime
	if limit == 0 {
		limit = 20 * man.Duration()
	}
	sp = l.begin("sim.run")
	if cfg.WatchdogEvents == 0 {
		s.RunUntil(limit)
	} else {
		startExec := s.Executed()
		for s.Now() < limit && !s.Halted() && s.Pending() > 0 {
			next := s.Now() + time.Second
			if next > limit {
				next = limit
			}
			slice := uint64(watchdogSlice)
			if rem := cfg.WatchdogEvents - (s.Executed() - startExec); rem < slice {
				slice = rem
			}
			s.RunUntilBudget(next, slice)
			if s.Executed()-startExec >= cfg.WatchdogEvents {
				return exp.Trial{}, fmt.Errorf("event budget %d exhausted", cfg.WatchdogEvents)
			}
		}
		if !s.Halted() && s.Now() < limit {
			s.RunUntil(limit)
		}
	}
	c.simRun += l.end(sp)
	c.simEvents += s.Executed()
	b2, o2 := readAllocs()
	c.allocB[1] += b2 - b1
	c.allocObj[1] += o2 - o1

	sp = l.begin("exp.collect")
	if running > 0 {
		lastDone = s.Now()
		busyAtLastDone = path.Down.Stats().BusyTime
	}
	sessions := make([]exp.SessionResult, n)
	for si, pl := range players {
		res := pl.Results()
		sr := exp.SessionResult{
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
			played := time.Duration(len(res.Segments)) * man.SegmentDuration
			if missing := man.Duration() - played; missing > 0 {
				sr.BufRatio = (res.StallTime + missing).Seconds() / man.Duration().Seconds()
			}
		}
		sessions[si] = sr
		c.bytesReceived += res.BytesReceived
		c.bytesWasted += res.BytesWasted
		c.lostInTransit += res.LostInTransit
		c.recovered += res.RecoveredBytes
		c.failedRequests += res.FailedRequests
		c.stall += res.StallTime
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
	c.fold += l.end(sp)
	b3, o3 := readAllocs()
	c.allocB[2] += b3 - b2
	c.allocObj[2] += o3 - o2

	for _, cn := range conns {
		addQuicStats(&c.quic, cn.Stats())
	}
	down, up := path.Down.Stats(), path.Up.Stats()
	c.downSent += down.Sent
	c.downQueueDrops += down.Dropped
	c.downImpairedDrops += down.ImpairedDrops
	c.downAdmitted += down.Sent - down.Dropped
	c.downMaxQueue = down.MaxQueue
	c.downQueueDelay += down.QueueDelay
	c.downBusy += busyAtLastDone
	c.busyWindow += lastDone
	c.upSent += up.Sent
	c.upImpairedDrops += up.ImpairedDrops
	l.end(root)
	return tr, nil
}

// foldSessions mirrors exp's fold of per-session results into trial-level
// scalars, operation for operation.
func foldSessions(sessions []exp.SessionResult) exp.Trial {
	tr := exp.Trial{Sessions: sessions, Completed: true}
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
