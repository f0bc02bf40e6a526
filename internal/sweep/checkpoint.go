package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"voxel/internal/exp"
)

// checkpointVersion gates the file format; a reader refuses any other
// value rather than guessing. Version 3 embeds the experiment as an
// exp.Document, the same config document a crash artifact carries.
const checkpointVersion = 3

// trialRecord stores one completed trial's full result.
type trialRecord struct {
	Trial  int       `json:"trial"`
	Result exp.Trial `json:"result"`
}

// Checkpoint is the on-disk state of a (possibly partial) sweep: the
// experiment being computed (its config document, fingerprinted so that
// resume and merge refuse a file written by a different experiment), which
// shard this file belongs to, which trials are done, and their results —
// either full per-trial records (classic mode) or folded sketch state
// (streaming mode). The final checkpoint of a finished shard doubles as the
// shard's output file, which is exactly what voxel-merge consumes.
type Checkpoint struct {
	Version     int              `json:"version"`
	Fingerprint string           `json:"fingerprint"`
	Shard       Shard            `json:"shard"`
	Stream      bool             `json:"stream,omitempty"`
	Experiment  exp.Document     `json:"experiment"`
	Done        []int            `json:"done"`
	Trials      []trialRecord    `json:"trials,omitempty"`
	Fails       []exp.TrialError `json:"fails,omitempty"`
	Sketch      *StreamAgg       `json:"sketch,omitempty"`
}

// newCheckpoint builds the header for cfg.
func newCheckpoint(cfg exp.Config, stream bool) *Checkpoint {
	doc := exp.NewDocument(cfg)
	return &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: doc.Fingerprint(),
		Shard:       Shard{Index: cfg.ShardIndex, Count: cfg.ShardCount},
		Stream:      stream,
		Experiment:  doc,
	}
}

// capture fills the checkpoint body from the done-set and result vectors,
// in ascending trial order, so the bytes are a pure function of which
// trials have completed — two processes that completed the same set write
// identical files.
func (cp *Checkpoint) capture(done map[int]bool, trials []exp.Trial, fails []*exp.TrialError, sk *StreamAgg) {
	cp.Done = cp.Done[:0]
	for ti := range done {
		cp.Done = append(cp.Done, ti)
	}
	sort.Ints(cp.Done)
	cp.Trials = nil
	cp.Fails = nil
	cp.Sketch = sk
	if sk != nil {
		return
	}
	for _, ti := range cp.Done {
		if te := fails[ti]; te != nil {
			cp.Fails = append(cp.Fails, *te)
			continue
		}
		// Stamp telemetry reports with their (trial, session) coordinates
		// before marshal — the same values obs.MergeSessions assigns at
		// assembly — so the serialized record is canonical whether the
		// producing process had assembled yet or not. Without this, a
		// merged output file and a single-process run's file would differ
		// in stamping alone.
		for si, r := range trials[ti].SessionObs {
			if r != nil {
				r.Trial, r.Session = ti, si
			}
		}
		cp.Trials = append(cp.Trials, trialRecord{Trial: ti, Result: trials[ti]})
	}
}

// WriteFile atomically persists the checkpoint: marshal, write to a temp
// file in the target directory, fsync, rename over the destination, fsync
// the directory. A SIGKILL at any instant leaves either the previous
// complete checkpoint or the new one — never a torn file.
func (cp *Checkpoint) WriteFile(path string) error {
	b, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("sweep: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpoint reads and structurally validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("sweep: %s: version %d, want %d", path, cp.Version, checkpointVersion)
	}
	if cp.Fingerprint != cp.Experiment.Fingerprint() {
		return nil, fmt.Errorf("sweep: %s: fingerprint does not match stored config", path)
	}
	for _, ti := range cp.Done {
		if ti < 0 || ti >= cp.Experiment.Config.Trials {
			return nil, fmt.Errorf("sweep: %s: done trial %d out of range [0, %d)",
				path, ti, cp.Experiment.Config.Trials)
		}
	}
	return &cp, nil
}

// matches reports whether the checkpoint was written by the same
// experiment as the header want, in the same shard and mode, i.e. whether
// its records can be reused.
func (cp *Checkpoint) matches(want *Checkpoint) error {
	if cp.Fingerprint != want.Fingerprint {
		return fmt.Errorf("sweep: checkpoint was written by a different experiment (fingerprint %.12s, want %.12s)", cp.Fingerprint, want.Fingerprint)
	}
	if cp.Shard != want.Shard {
		return fmt.Errorf("sweep: checkpoint belongs to shard %v, this run is %v", cp.Shard, want.Shard)
	}
	if cp.Stream != want.Stream {
		return fmt.Errorf("sweep: checkpoint stream mode %v, this run wants %v", cp.Stream, want.Stream)
	}
	return nil
}

// restore unpacks the checkpoint's records into full-length result vectors
// and the done-set (classic mode).
func (cp *Checkpoint) restore(cfg exp.Config) (map[int]bool, []exp.Trial, []*exp.TrialError, error) {
	d := cfg.WithDefaults()
	done := make(map[int]bool, len(cp.Done))
	for _, ti := range cp.Done {
		done[ti] = true
	}
	trials := make([]exp.Trial, d.Trials)
	fails := make([]*exp.TrialError, d.Trials)
	for _, rec := range cp.Trials {
		if rec.Trial < 0 || rec.Trial >= d.Trials || !done[rec.Trial] {
			return nil, nil, nil, fmt.Errorf("sweep: trial record %d outside done set", rec.Trial)
		}
		if len(rec.Result.SessionObs) > 0 {
			// Restore the invariant JSON cannot express: Obs aliases the
			// first session's report, so the index stamping Assemble does
			// through SessionObs is visible through Obs too.
			rec.Result.Obs = rec.Result.SessionObs[0]
		}
		trials[rec.Trial] = rec.Result
	}
	for _, te := range cp.Fails {
		if te.Trial < 0 || te.Trial >= d.Trials || !done[te.Trial] {
			return nil, nil, nil, fmt.Errorf("sweep: failure record %d outside done set", te.Trial)
		}
		// Re-stamp the config exactly as the harness did when the trial
		// originally failed; the file stores results, not configs.
		te.Config = d
		trials[te.Trial] = exp.Trial{Failed: true}
		fails[te.Trial] = &te
	}
	return done, trials, fails, nil
}

// Aggregate rebuilds the shard's exp.Aggregate from a finished classic
// checkpoint — the merge tool's path from file bytes back to the exact
// in-memory aggregate the producing process held.
func (cp *Checkpoint) Aggregate() (*exp.Aggregate, error) {
	if cp.Stream {
		return nil, fmt.Errorf("sweep: streaming checkpoint has no per-trial aggregate")
	}
	cfg, err := cp.Experiment.Resolve()
	if err != nil {
		// A CSV-loaded or shifted trace cannot be rebuilt from the file;
		// it must be merged where the *trace.Trace is at hand.
		return nil, fmt.Errorf("sweep: %v; merge it in-process with exp.MergeShards", err)
	}
	cfg.ShardIndex, cfg.ShardCount = cp.Shard.Index, cp.Shard.Count
	if err := cp.complete(); err != nil {
		return nil, err
	}
	_, trials, fails, err := cp.restore(cfg)
	if err != nil {
		return nil, err
	}
	return exp.Assemble(cfg, trials, fails), nil
}

// complete verifies the checkpoint covers every trial its shard owns.
func (cp *Checkpoint) complete() error {
	done := make(map[int]bool, len(cp.Done))
	for _, ti := range cp.Done {
		done[ti] = true
	}
	sh := cp.Shard
	for ti := 0; ti < cp.Experiment.Config.Trials; ti++ {
		owned := sh.Unsharded() || ti%sh.Count == sh.Index
		if owned && !done[ti] {
			return fmt.Errorf("sweep: shard %v checkpoint is incomplete: trial %d missing", sh, ti)
		}
	}
	return nil
}
