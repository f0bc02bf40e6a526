package main

import (
	"fmt"
	"path/filepath"
	"time"

	"voxel"
)

// Workload sizes. fullSegments is each workload's clip length; tests
// shrink it to check the mirror cheaply. Trial shifts spread evenly over
// the trace, so more trials make a run less sensitive to the seed's
// offset.
var fullSegments = map[string]int{"fig6": 25, "swarm64": 12, "chaos": 25}

const (
	fig6Trials  = 2
	swarmTrials = 4
	chaosTrials = 12
	workers     = 2
	// chaosEventBudget arms the event watchdog far above any legitimate
	// trial, so it never trips but the sliced run loop is exercised.
	chaosEventBudget = 1 << 40
	// chaosCheckpointEvery writes a checkpoint after every N trials.
	chaosCheckpointEvery = 4
)

// cell is one facade session of a workload.
type cell struct {
	title string
	opts  []voxel.Option
	// ckpt names the cell's checkpoint file inside the run directory;
	// empty runs the session without WithCheckpoint.
	ckpt string
	// export writes the cell's telemetry as JSONL and CSV after the run.
	export bool
}

// workload is a named set of cells run back to back.
type workload struct {
	name     string
	why      string
	segments int
	titles   []string // titles whose manifests the set-up builds
	cells    []cell
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fig6", "swarm64", "chaos"}

// traceOffset derives the seed's start offset into a trace.
func traceOffset(seed int64, tr *voxel.Trace) time.Duration {
	x := uint64(seed) + 0x9E3779B97F4A7C15 // splitmix64
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	secs := uint64(tr.Duration() / time.Second)
	return time.Duration(x%secs) * time.Second
}

func shiftedTrace(name string, seed int64) (*voxel.Trace, error) {
	tr, err := voxel.LoadTrace(name)
	if err != nil {
		return nil, err
	}
	return tr.Shifted(traceOffset(seed, tr)), nil
}

// newWorkload builds the named workload for a seed. segments ≤ 0 uses the
// default clip length.
func newWorkload(name string, seed int64, segments int) (*workload, error) {
	if segments <= 0 {
		segments = fullSegments[name]
	}
	w := &workload{name: name, segments: segments}
	common := func(tr *voxel.Trace) []voxel.Option {
		return []voxel.Option{voxel.WithSeed(seed), voxel.WithTrace(tr),
			voxel.WithSegments(segments), voxel.WithParallelism(workers)}
	}
	switch name {
	case "fig6":
		w.why = "single-session bulk transfer: QUIC* packetising, httpsim bodies and ABR* decisions, reliable and unreliable side by side"
		w.titles = []string{"BBB", "ToS"}
		for _, tt := range [][2]string{{"BBB", "verizon"}, {"ToS", "tmobile"}} {
			tr, err := shiftedTrace(tt[1], seed)
			if err != nil {
				return nil, err
			}
			for _, buf := range []int{1, 7} {
				for _, sys := range []voxel.System{voxel.BOLA, voxel.BETA, voxel.VOXEL} {
					opts := append(common(tr), voxel.WithBuffer(buf), voxel.WithSystem(sys), voxel.WithTrials(fig6Trials))
					w.cells = append(w.cells, cell{title: tt[0], opts: opts})
				}
			}
		}
	case "swarm64":
		w.why = "64 sessions on one bottleneck: per-session setup, abandonment polling, kernel, drop-tail queue and cc loss reaction"
		w.titles = []string{"BBB"}
		tr, err := shiftedTrace("verizon", seed)
		if err != nil {
			return nil, err
		}
		opts := append(common(tr), voxel.WithSystem(voxel.VOXEL), voxel.WithSessions(64), voxel.WithTrials(swarmTrials))
		w.cells = []cell{{title: "BBB", opts: opts}}
	case "chaos":
		w.why = "bursty impairment: loss recovery, QoE loss scoring, telemetry, invariants, sliced watchdog loop and checkpoint writes"
		w.titles = []string{"ToS"}
		tr, err := shiftedTrace("tmobile", seed)
		if err != nil {
			return nil, err
		}
		for _, sys := range []voxel.System{voxel.BOLA, voxel.VOXEL} {
			opts := append(common(tr), voxel.WithSystem(sys), voxel.WithBuffer(2), voxel.WithTrials(chaosTrials),
				voxel.WithImpairment("bursty"), voxel.WithTelemetry(), voxel.WithInvariants(),
				voxel.WithWatchdog(0, chaosEventBudget))
			w.cells = append(w.cells, cell{title: "ToS", opts: opts,
				ckpt: fmt.Sprintf("chaos-%d.ckpt", len(w.cells)), export: true})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// session builds the cell's facade session; dir holds its checkpoint.
// workers overrides the trial parallelism when positive.
func (c cell) session(dir string, workers int) *voxel.Session {
	opts := c.opts
	if workers > 0 {
		opts = append(opts[:len(opts):len(opts)], voxel.WithParallelism(workers))
	}
	if c.ckpt != "" {
		opts = append(opts[:len(opts):len(opts)], voxel.WithCheckpoint(filepath.Join(dir, c.ckpt), chaosCheckpointEvery))
	}
	return voxel.New(c.title, opts...)
}

// trials counts the trials one pass over the workload attempts.
func (w *workload) trials() int {
	n := 0
	for _, c := range w.cells {
		n += c.session("", 0).Config().WithDefaults().Trials
	}
	return n
}
