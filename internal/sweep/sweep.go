package sweep

import (
	"fmt"
	"os"

	"voxel/internal/exp"
)

// Options selects the engine's execution mode around a config.
type Options struct {
	// Checkpoint is the state file path; empty means no checkpoint and no
	// resume — the sweep runs start to finish in memory. If the file
	// exists and matches the config (fingerprint, shard, mode), its
	// finished trials are restored and skipped; a mismatched file is an
	// error, never silently recomputed over. The final checkpoint of a
	// finished run is the shard's output file — feed it to voxel-merge.
	Checkpoint string
	// Every writes a checkpoint after every N completed trials (default 1,
	// i.e. after each trial). The write is atomic, so a kill between
	// writes loses at most the last N trials of work, never the file.
	Every int
	// Stream folds each trial into mergeable quantile sketches and
	// discards the per-trial result immediately: Run returns a StreamAgg
	// instead of an exp.Aggregate and peak memory stays bounded by the
	// sketch size, not the trial count. Incompatible with Telemetry
	// (per-trial reports are exactly what streaming refuses to retain).
	Stream bool
	// Alpha is the streaming sketches' relative-error bound
	// (stats.DefaultSketchAlpha when zero).
	Alpha float64
}

// Result is what a sweep run produced.
type Result struct {
	// Agg is the classic aggregate (nil in streaming mode). For a sharded
	// run it carries full-length trial vectors with only owned slots
	// populated, ready for exp.MergeShards.
	Agg *exp.Aggregate
	// Stream is the streaming aggregate (nil in classic mode).
	Stream *StreamAgg
	// Restored counts trials recovered from the checkpoint; Ran counts
	// trials executed by this process. Restored+Ran equals the shard's
	// owned-trial count when the run finished cleanly.
	Restored int
	Ran      int
}

// Run executes cfg's sweep (or this shard's slice of it) under the
// engine: resuming from, and checkpointing to, opts.Checkpoint, in either
// classic (full per-trial retention) or streaming (bounded-memory sketch)
// mode. The determinism contract: for the same cfg, the returned
// aggregate is bit-identical whether the sweep ran in one process, was
// killed and resumed any number of times, or ran sharded and merged —
// modulo the run-specific Stack text of failure records.
func Run(cfg exp.Config, opts Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	d := cfg.WithDefaults()
	if opts.Stream && d.Telemetry {
		return Result{}, fmt.Errorf("sweep: streaming mode discards per-trial telemetry; disable one")
	}
	if opts.Every <= 0 {
		opts.Every = 1
	}

	var (
		done   = map[int]bool{}
		trials []exp.Trial
		fails  []*exp.TrialError
		sk     *StreamAgg
		cp     *Checkpoint
		res    Result
	)
	if opts.Stream {
		sk = NewStreamAgg(opts.Alpha)
	} else {
		trials = make([]exp.Trial, d.Trials)
		fails = make([]*exp.TrialError, d.Trials)
	}

	if opts.Checkpoint != "" {
		cp = newCheckpoint(d, opts.Stream)
		prev, err := LoadCheckpoint(opts.Checkpoint)
		switch {
		case os.IsNotExist(err):
			// fresh run
		case err != nil:
			return Result{}, err
		default:
			if err := prev.matches(cp); err != nil {
				return Result{}, err
			}
			if opts.Stream {
				if prev.Sketch == nil {
					return Result{}, fmt.Errorf("sweep: streaming checkpoint missing sketch state")
				}
				if prev.Sketch.Alpha != sk.Alpha {
					return Result{}, fmt.Errorf("sweep: checkpoint sketch alpha %v, this run wants %v",
						prev.Sketch.Alpha, sk.Alpha)
				}
				sk = prev.Sketch
				for _, ti := range prev.Done {
					done[ti] = true
				}
			} else {
				done, trials, fails, err = prev.restore(d)
				if err != nil {
					return Result{}, err
				}
			}
			res.Restored = len(done)
		}
	}

	sinceWrite := 0
	var writeErr error
	onTrial := func(ti int, tr exp.Trial, te *exp.TrialError) {
		if opts.Stream {
			sk.fold(tr, te)
		} else {
			trials[ti] = tr
			fails[ti] = te
		}
		done[ti] = true
		res.Ran++
		sinceWrite++
		if cp != nil && sinceWrite >= opts.Every && writeErr == nil {
			cp.capture(done, trials, fails, sk)
			writeErr = cp.WriteFile(opts.Checkpoint)
			sinceWrite = 0
		}
	}
	exp.RunPartial(d, func(ti int) bool { return done[ti] }, onTrial)
	if writeErr != nil {
		return Result{}, fmt.Errorf("sweep: checkpoint write failed mid-run: %w", writeErr)
	}
	if cp != nil && (sinceWrite > 0 || res.Ran == 0) {
		// Final write so the file always reflects the finished state (and
		// a fully-restored run still refreshes the output file).
		cp.capture(done, trials, fails, sk)
		if err := cp.WriteFile(opts.Checkpoint); err != nil {
			return Result{}, err
		}
	}

	if opts.Stream {
		res.Stream = sk
	} else {
		res.Agg = exp.Assemble(d, trials, fails)
	}
	return res, nil
}
