package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"voxel"
	"voxel/internal/exp"
	"voxel/internal/sweep"
)

// tracedWorkers is the traced run's trial parallelism. One worker keeps
// each phase's allocation delta inside one trial and makes the layer times
// add up to the wall time; the paired facade run uses it too.
const tracedWorkers = 1

// profilesStarted counts the CPU profiles the traced run started; the
// untraced run must leave it at zero.
var profilesStarted atomic.Int64

// metricDef names one metric. det marks a count that must repeat exactly
// across passes, seeds aside.
type metricDef struct {
	name, unit string
	det        bool
}

// endToEnd lists the untraced run's metrics in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"wall_s", "s", false},
	{"cpu_s", "s", false},
	{"alloc_mb", "MiB", false},
	{"allocs_m", "millions", false},
	{"peak_rss_mb", "MiB", false},
	{"trial_ok_ratio", "ratio", true},
	{"setup_s", "s", false},
}

// perLayer lists the traced run's metrics in BENCHMARK.json order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"prep.manifest_build_s", "s", false},
		{"exp.trials", "count", true},
		{"exp.trial_ms_p50", "ms", false},
		{"exp.world_setup_ms", "ms", false},
		{"exp.fold_ms", "ms", false},
		{"sim.events", "count", true},
		{"sim.run_s", "s", false},
		{"sim.ns_per_event", "ns", false},
		{"server.new_ms", "ms", false},
		{"server.new_alloc_mb", "MiB", false},
		{"quic.newpair_ms", "ms", false},
		{"quic.packets_sent", "count", true},
		{"quic.packets_lost", "count", true},
		{"quic.pto", "count", true},
		{"quic.wire_bytes", "bytes", true},
		{"quic.retx_bytes", "bytes", true},
		{"quic.unrel_lost_bytes", "bytes", true},
		{"quic.selective_retx_bytes", "bytes", true},
		{"quic.useful_ratio", "ratio", true},
		{"netem.down.sent", "count", true},
		{"netem.down.queue_drops", "count", true},
		{"netem.down.impaired_drops", "count", true},
		{"netem.down.max_queue", "packets", true},
		{"netem.down.queue_delay_ms_mean", "ms", true},
		{"netem.down.busy_frac", "ratio", true},
		{"netem.up.sent", "count", true},
		{"netem.up.impaired_drops", "count", true},
		{"netem.impair_calls", "count", true},
		{"netem.impair_ms", "ms", false},
		{"cc.calls", "count", true},
		{"cc.ms", "ms", false},
		{"cc.loss_events", "count", true},
		{"abr.decide_calls", "count", true},
		{"abr.decide_ms", "ms", false},
		{"abr.abandon_calls", "count", true},
		{"abr.abandon_ms", "ms", false},
		{"player.new_ms", "ms", false},
		{"player.bytes_received", "bytes", true},
		{"player.bytes_wasted", "bytes", true},
		{"player.useful_ratio", "ratio", true},
		{"player.lost_in_transit", "bytes", true},
		{"player.recovered_bytes", "bytes", true},
		{"player.failed_requests", "count", true},
		{"player.stall_virtual_s", "s", true},
		{"obs.timeline_events", "count", true},
		{"obs.timeline_dropped", "count", true},
		{"obs.export_ms", "ms", false},
		{"obs.export_bytes", "bytes", true},
		{"sweep.checkpoint_bytes", "bytes", true},
		{"sweep.checkpoint_write_ms", "ms", false},
		{"sweep.checkpoint_load_ms", "ms", false},
		{"alloc.setup_mb", "MiB", false},
		{"alloc.run_mb", "MiB", false},
		{"alloc.fold_mb", "MiB", false},
		{"allocs.setup_m", "millions", false},
		{"allocs.run_m", "millions", false},
		{"allocs.fold_m", "millions", false},
		{"gc.cycles", "count", false},
		{"gc.cpu_s", "s", false},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "share", false})
	}
	return append(defs, metricDef{"trace.overhead", "ratio", false}, metricDef{"trace.spans", "count", true})
}()

// passOut is what one traced pass measured.
type passOut struct {
	values map[string]float64
	spans  []spanRec
	wall   float64
	cpu    map[string]int64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedPass runs the workload through the mirror with probes, spans and
// the CPU profiler on, and checks its results against the facade pass ref
// made in the same directory.
func tracedPass(w *workload, dir string, ref []*voxel.Aggregate, workers int, t0 time.Time, c *checks) (passOut, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return passOut{}, fmt.Errorf("cpu profile: %w", err)
	}
	profilesStarted.Add(1)
	h0 := sampleHost()
	m := newMirror(workers, t0)
	v := map[string]float64{}
	var aggs []*voxel.Aggregate
	var exportT, ckWriteT, ckLoadT time.Duration
	for i, cl := range w.cells {
		agg, err := m.runCell(cl.session(dir, 0).Config())
		if err != nil {
			pprof.StopCPUProfile()
			return passOut{}, err
		}
		aggs = append(aggs, agg)
		if agg.Obs != nil {
			for _, tr := range agg.Obs.Trials {
				v["obs.timeline_events"] += float64(tr.Recorded)
				v["obs.timeline_dropped"] += float64(tr.Dropped())
			}
		}
		if cl.export {
			sp := m.log.begin("obs.export")
			n, err := exportReport(agg.Obs, filepath.Join(dir, fmt.Sprintf("traced%d", i)))
			exportT += m.log.end(sp)
			if err != nil {
				pprof.StopCPUProfile()
				return passOut{}, err
			}
			v["obs.export_bytes"] += float64(n)
		}
		if cl.ckpt != "" {
			sp := m.log.begin("sweep.checkpoint_load")
			cp, err := sweep.LoadCheckpoint(filepath.Join(dir, cl.ckpt))
			ckLoadT += m.log.end(sp)
			if err != nil {
				pprof.StopCPUProfile()
				return passOut{}, err
			}
			out := filepath.Join(dir, "traced-"+cl.ckpt)
			sp = m.log.begin("sweep.checkpoint_write")
			err = cp.WriteFile(out)
			ckWriteT += m.log.end(sp)
			if err != nil {
				pprof.StopCPUProfile()
				return passOut{}, err
			}
			st, err := os.Stat(out)
			if err != nil {
				pprof.StopCPUProfile()
				return passOut{}, err
			}
			v["sweep.checkpoint_bytes"] += float64(st.Size())
		}
	}
	h1 := sampleHost()
	pprof.StopCPUProfile()
	if got, want := digestAggregates(aggs), digestAggregates(ref); got != want {
		c.failf("traced results %s differ from the facade run's %s", got, want)
	}
	buckets, err := cpuByBucket(prof.Bytes())
	if err != nil {
		return passOut{}, err
	}

	k := &m.counts
	q := k.quic
	v["exp.trials"] = float64(k.trials)
	v["exp.trial_ms_p50"] = median(m.trialDur)
	v["exp.world_setup_ms"] = ms(k.worldSetup)
	v["exp.fold_ms"] = ms(k.fold)
	v["sim.events"] = float64(k.simEvents)
	v["sim.run_s"] = k.simRun.Seconds()
	v["sim.ns_per_event"] = ratio(float64(k.simRun), float64(k.simEvents))
	v["server.new_ms"] = ms(k.serverNew)
	v["server.new_alloc_mb"] = float64(k.serverAllocB) / (1 << 20)
	v["quic.newpair_ms"] = ms(k.newPair)
	v["quic.packets_sent"] = float64(q.PacketsSent)
	v["quic.packets_lost"] = float64(q.PacketsDeclLost)
	v["quic.pto"] = float64(q.PTOCount)
	v["quic.wire_bytes"] = float64(q.BytesSent)
	v["quic.retx_bytes"] = float64(q.RetransmitBytes)
	v["quic.unrel_lost_bytes"] = float64(q.UnreliableLost)
	v["quic.selective_retx_bytes"] = float64(q.UnreliableRewrite)
	v["quic.useful_ratio"] = ratio(float64(q.StreamBytesSent), float64(q.BytesSent))
	v["netem.down.sent"] = float64(k.downSent)
	v["netem.down.queue_drops"] = float64(k.downQueueDrops)
	v["netem.down.impaired_drops"] = float64(k.downImpairedDrops)
	v["netem.down.max_queue"] = float64(k.downMaxQueue)
	v["netem.down.queue_delay_ms_mean"] = ratio(ms(k.downQueueDelay), float64(k.downAdmitted))
	v["netem.down.busy_frac"] = ratio(float64(k.downBusy), float64(k.busyWindow))
	v["netem.up.sent"] = float64(k.upSent)
	v["netem.up.impaired_drops"] = float64(k.upImpairedDrops)
	v["netem.impair_calls"] = float64(k.impair.n)
	v["netem.impair_ms"] = ms(k.impair.d)
	v["cc.calls"] = float64(k.cc.n)
	v["cc.ms"] = ms(k.cc.d)
	v["cc.loss_events"] = float64(k.ccLossEvent)
	v["abr.decide_calls"] = float64(k.decide.n)
	v["abr.decide_ms"] = ms(k.decide.d)
	v["abr.abandon_calls"] = float64(k.abandon.n)
	v["abr.abandon_ms"] = ms(k.abandon.d)
	v["player.new_ms"] = ms(k.playerNew)
	v["player.bytes_received"] = float64(k.bytesReceived)
	v["player.bytes_wasted"] = float64(k.bytesWasted)
	v["player.useful_ratio"] = ratio(float64(k.bytesReceived-k.bytesWasted), float64(k.bytesReceived))
	v["player.lost_in_transit"] = float64(k.lostInTransit)
	v["player.recovered_bytes"] = float64(k.recovered)
	v["player.failed_requests"] = float64(k.failedRequests)
	v["player.stall_virtual_s"] = k.stall.Seconds()
	v["obs.export_ms"] = ms(exportT)
	v["sweep.checkpoint_write_ms"] = ms(ckWriteT)
	v["sweep.checkpoint_load_ms"] = ms(ckLoadT)
	v["alloc.setup_mb"] = float64(k.allocB[0]) / (1 << 20)
	v["alloc.run_mb"] = float64(k.allocB[1]) / (1 << 20)
	v["alloc.fold_mb"] = float64(k.allocB[2]) / (1 << 20)
	v["allocs.setup_m"] = float64(k.allocObj[0]) / 1e6
	v["allocs.run_m"] = float64(k.allocObj[1]) / 1e6
	v["allocs.fold_m"] = float64(k.allocObj[2]) / 1e6
	v["gc.cycles"] = float64(h1.gcCycles - h0.gcCycles)
	v["gc.cpu_s"] = h1.gcCPU - h0.gcCPU
	v["trace.spans"] = float64(len(m.log.spans))
	return passOut{values: v, spans: m.log.spans, wall: h1.wall.Sub(h0.wall).Seconds(), cpu: buckets}, nil
}

// runTraced is the traced run: a traced set-up, then pairs of an untraced
// facade pass and a traced mirror pass until o.seconds have passed.
func runTraced(w *workload, o runOpts, c *checks) (result, error) {
	t0 := time.Now()
	setupLog := spanLog{t0: t0, trial: -1}
	var manifestBuild time.Duration
	for _, title := range w.titles {
		sp := setupLog.begin("prep.manifest_build")
		exp.ManifestFor(title, voxel.SSIM, w.segments)
		manifestBuild += setupLog.end(sp)
	}

	res := result{Metrics: map[string]metric{}}
	var passes []passOut
	var refWalls []float64
	var first string
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		dir, err := freshDir(o, i)
		if err != nil {
			return result{}, err
		}
		runtime.GC()
		rt := time.Now()
		ref, err := runPass(w, dir, tracedWorkers)
		if err != nil {
			return result{}, err
		}
		refWalls = append(refWalls, time.Since(rt).Seconds())
		res.Attempted += w.trials()
		res.Failed += failures(ref)
		checkDigest(c, o, i, &first, digestAggregates(ref), w.name)
		if i == 0 {
			checkResume(w, dir, ref, c)
		}

		runtime.GC()
		p, err := tracedPass(w, dir, ref, tracedWorkers, t0, c)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, p)
		if err := os.RemoveAll(dir); err != nil {
			return result{}, err
		}
	}

	cpu := map[string]int64{}
	var cpuTotal int64
	var tracedWalls []float64
	for _, p := range passes {
		tracedWalls = append(tracedWalls, p.wall)
		for b, n := range p.cpu {
			cpu[b] += n
			cpuTotal += n
		}
	}
	for _, d := range perLayer {
		var x float64
		switch {
		case d.name == "prep.manifest_build_s":
			x = manifestBuild.Seconds()
		case d.name == "trace.overhead":
			x = median(tracedWalls)/median(refWalls) - 1
		case strings.HasPrefix(d.name, "cpu."):
			x = ratio(float64(cpu[strings.TrimPrefix(d.name, "cpu.")]), float64(cpuTotal))
		case d.det:
			x = passes[0].values[d.name]
			for i, p := range passes[1:] {
				if p.values[d.name] != x {
					c.failf("%s is %v in pass %d but %v in pass 0", d.name, p.values[d.name], i+1, x)
				}
			}
		default:
			xs := make([]float64, len(passes))
			for i, p := range passes {
				xs[i] = p.values[d.name]
			}
			x = median(xs)
		}
		res.Metrics[d.name] = metric{x, d.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d digest %s, %d traced passes\n", w.name, o.seed, first, len(passes))
	if o.spans != "" {
		last := passes[len(passes)-1]
		if err := writeSpans(o.spans, setupLog.spans, last.spans); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// writeSpans writes the set-up spans and one pass's spans as JSON lines;
// the pass's parent indices are shifted past the set-up spans.
func writeSpans(path string, setup, pass []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range setup {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range pass {
		if s.Parent >= 0 {
			s.Parent += len(setup)
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
