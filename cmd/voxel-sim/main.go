// Command voxel-sim runs one streaming experiment configuration — title,
// system (ABR + transport), trace, buffer size — for N trials and prints
// the paper's metrics: p90 and mean bufRatio, average bitrate, score
// distribution, skipped data, and residual loss. With -telemetry it also
// collects the per-trial obs timeline and counters, prints a summary, and
// can export them as JSONL (-telemetry-out) and CSV (-telemetry-csv).
//
// Large campaigns scale out with the sweep engine: -shard i/n runs only
// this process's slice of the trial set (merge the shard outputs with
// voxel-merge), -checkpoint makes the run resumable after a crash or
// SIGKILL with no recomputation, and -stream folds trials into
// bounded-memory quantile sketches instead of retaining them.
//
// With -repro it instead replays a JSON crash artifact (written by
// voxel-fuzz) with invariants and watchdog armed, and exits 0 only if the
// artifact's recorded violation reproduces.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"voxel/internal/chaos"
	"voxel/internal/exp"
	"voxel/internal/profiling"
	"voxel/internal/stats"
	"voxel/internal/sweep"
)

// stopProfiles flushes any active pprof collectors; fatal runs it so a
// failed run still leaves usable profiles behind (os.Exit skips defers).
var stopProfiles = func() {}

func main() {
	config := exp.RegisterFlags(flag.CommandLine)
	swarm := flag.Bool("swarm", false,
		"print the per-session swarm breakdown (fairness, utilization); implied by -sessions > 1")
	telemetry := flag.Bool("telemetry", false,
		"collect per-trial obs counters and timeline events (zero impact on results)")
	telemetryOut := flag.String("telemetry-out", "",
		"write the telemetry timeline as JSONL to this file (- = stdout); implies -telemetry")
	telemetryCSV := flag.String("telemetry-csv", "",
		"write per-trial telemetry counters as CSV to this file (- = stdout); implies -telemetry")
	checkpointPath := flag.String("checkpoint", "",
		"resumable state file: finished trials restore from it, new ones append atomically; the finished file is the shard output voxel-merge consumes")
	checkpointEvery := flag.Int("checkpoint-every", 1,
		"write the checkpoint after every N completed trials (requires -checkpoint)")
	stream := flag.Bool("stream", false,
		"streaming aggregation: fold each trial into mergeable quantile sketches (relative error ≤ 1%) and discard it, bounding memory by sketch size instead of trial count")
	reproPath := flag.String("repro", "",
		"replay a JSON crash artifact with invariants+watchdog armed; exits 0 only if its violation reproduces (exclusive with sweep flags)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set); err != nil {
		fatal(err)
	}
	if *reproPath != "" {
		os.Exit(runRepro(*reproPath))
	}
	cfg, err := config()
	if err != nil {
		fatal(err)
	}
	cfg.Telemetry = *telemetry || *telemetryOut != "" || *telemetryCSV != ""
	if cfg.Invariants || cfg.Inject != "" {
		// Hardened runs also get the trial watchdog, so a wedged trial (e.g.
		// -inject spin's zero-delay event storm) fails with a replayable
		// TrialError instead of hanging the process.
		cfg.WatchdogWall, cfg.WatchdogEvents = exp.DefaultWatchdogWall, exp.DefaultWatchdogEvents
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "voxel-sim: profile:", err)
		}
	}
	defer stopProfiles()

	if tr := cfg.Trace; tr != nil {
		fmt.Printf("%s streaming %s over %s (mean %.1f Mbps, stddev %.1f Mbps), %d-segment buffer\n",
			cfg.System, cfg.Title, tr.Name(), tr.Mean()/1e6, tr.StdDev()/1e6, cfg.BufferSegments)
	} else {
		fmt.Printf("%s streaming %s against %.0f Mbps cross traffic (%.0f Mbps link), %d-segment buffer\n",
			cfg.System, cfg.Title, cfg.CrossTraffic/1e6, cfg.LinkCapacity/1e6, cfg.BufferSegments)
	}
	if cfg.Impairment != "" {
		fmt.Printf("impairment profile: %s\n", cfg.Impairment)
	}
	if cfg.Failover {
		fmt.Printf("failover scenario: primary path dies at %v, second origin takes over\n",
			exp.FailoverKillTime)
	}
	shard := sweep.Shard{Index: cfg.ShardIndex, Count: cfg.ShardCount}
	if shard.Count > 0 {
		fmt.Printf("shard %s: running %d of %d trials\n", shard, shardTrials(shard, cfg.Trials), cfg.Trials)
	}

	res, err := sweep.Run(cfg, sweep.Options{
		Checkpoint: *checkpointPath, Every: *checkpointEvery, Stream: *stream,
	})
	if err != nil {
		fatal(err)
	}
	if res.Restored > 0 {
		fmt.Printf("restored %d finished trials from %s (%d run now)\n",
			res.Restored, *checkpointPath, res.Ran)
	}
	if *stream {
		fmt.Println()
		fmt.Print(res.Stream.Summary())
		if res.Stream.Failed > 0 {
			stopProfiles()
			os.Exit(1)
		}
		return
	}

	agg, report := res.Agg, res.Agg.Obs
	fmt.Print(agg.FailureReport())

	fmt.Println()
	fmt.Print(agg.Summary())

	if *swarm || cfg.Sessions > 1 {
		printSwarm(agg)
	}

	if cfg.Telemetry {
		fmt.Println()
		fmt.Print(report.Summary())
		if kinds := report.KindCounts(); len(kinds) > 0 {
			fmt.Printf("timeline events: %s\n", strings.Join(kinds, " "))
		}
		if err := report.WriteFiles(*telemetryOut, *telemetryCSV, os.Stdout); err != nil {
			fatal(err)
		}
	}
	if len(agg.Failed) > 0 {
		stopProfiles()
		os.Exit(1)
	}
}

// runRepro replays a crash artifact and returns the process exit code:
// 0 when the recorded violation reproduces, 1 otherwise.
func runRepro(path string) int {
	a, err := exp.LoadArtifact(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voxel-sim:", err)
		return 1
	}
	fmt.Printf("replaying %s: %s/%s trial %d seed %d", path, a.Config.Title, a.Config.System, a.Trial, a.Config.Seed)
	if a.Violation != "" {
		fmt.Printf(" (expecting %s)", a.Violation)
	}
	fmt.Println()
	ok, te, err := chaos.Reproduces(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voxel-sim:", err)
		return 1
	}
	switch {
	case ok:
		fmt.Printf("reproduced: %s — %s\n", te.Rule, te.Msg)
		return 0
	case te != nil:
		fmt.Printf("failed with a DIFFERENT rule: %s — %s (artifact expects %s)\n",
			te.Rule, te.Msg, a.Violation)
		return 1
	default:
		fmt.Println("did not reproduce: every trial survived")
		return 1
	}
}

// printSwarm renders the per-session breakdown: fairness and utilization
// summaries plus one row per session index averaged across trials.
func printSwarm(agg *exp.Aggregate) {
	n := 0
	for _, t := range agg.Trials {
		if len(t.Sessions) > n {
			n = len(t.Sessions)
		}
	}
	fmt.Printf("\nswarm: %d sessions through one bottleneck\n", n)
	fmt.Printf("%-26s %.4f\n", "Jain fairness (mean):", agg.JainMean())
	fmt.Printf("%-26s %.2f%%\n", "bottleneck util (mean):", 100*agg.UtilizationMean())
	fmt.Printf("%-26s %.4f\n", "session QoE (p5):", agg.SessionQoEP5())
	fmt.Printf("%-26s %v\n", "total stall time:", agg.TotalStall())
	fmt.Printf("%9s  %12s  %10s  %10s  %10s\n",
		"session", "bitrate", "QoE", "bufRatio", "stall")
	for si := 0; si < n; si++ {
		var rate, score, buf, stall []float64
		for _, t := range agg.Trials {
			if si >= len(t.Sessions) {
				continue
			}
			sr := t.Sessions[si]
			rate = append(rate, sr.AvgBitrate)
			score = append(score, sr.MeanScore)
			buf = append(buf, sr.BufRatio)
			stall = append(stall, sr.StallTime.Seconds())
		}
		fmt.Printf("%9d  %9.2f Mb  %10.4f  %9.2f%%  %9.2fs\n",
			si, stats.Mean(rate)/1e6, stats.Mean(score),
			100*stats.Mean(buf), stats.Mean(stall))
	}
}

// validateFlags enforces the cross-flag constraints given the set of flags
// explicitly present on the command line. A malformed -shard spec is the
// config flag table's to reject.
//
//   - -repro replays exactly what the artifact describes, so every sweep
//     flag alongside it (including -shard, -checkpoint, -stream) would be
//     silently ignored; reject all but the profiling flags. New flags are
//     conflicts by default — the allowlist names the only exceptions.
//   - -stream discards per-trial state as it folds, so the flags that need
//     retained trials (-telemetry and its exports, the -swarm breakdown)
//     are contradictions, not no-ops.
//   - -checkpoint-every without -checkpoint silently does nothing; reject.
func validateFlags(set map[string]bool) error {
	if set["repro"] {
		var conflicts []string
		for name := range set {
			switch name {
			case "repro", "cpuprofile", "memprofile":
			default:
				conflicts = append(conflicts, "-"+name)
			}
		}
		if len(conflicts) > 0 {
			sort.Strings(conflicts)
			return fmt.Errorf("-repro replays the artifact's own configuration; drop %s",
				strings.Join(conflicts, ", "))
		}
	}
	if set["stream"] {
		for _, bad := range []string{"telemetry", "telemetry-out", "telemetry-csv", "swarm"} {
			if set[bad] {
				return fmt.Errorf("-stream discards per-trial results as it folds them; it cannot honor -%s", bad)
			}
		}
	}
	if set["checkpoint-every"] && !set["checkpoint"] {
		return fmt.Errorf("-checkpoint-every does nothing without -checkpoint")
	}
	return nil
}

// shardTrials counts the trials shard s owns out of a total of n.
func shardTrials(s sweep.Shard, n int) int {
	owned := 0
	for ti := 0; ti < n; ti++ {
		if ti%s.Count == s.Index {
			owned++
		}
	}
	return owned
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "voxel-sim:", err)
	os.Exit(1)
}
