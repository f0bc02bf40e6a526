package sweep

import (
	"fmt"
	"slices"

	"voxel/internal/exp"
)

// Merged is the result of folding a complete set of shard checkpoint files
// back into one campaign. Exactly one of Agg (classic mode) and Stream
// (streaming mode) is set.
type Merged struct {
	Agg    *exp.Aggregate
	Stream *StreamAgg
	cp     *Checkpoint // the merged state in unsharded checkpoint format
}

// MergeFiles loads shard checkpoint files and merges them into the
// single-process campaign result. Every file must be a finished checkpoint
// of the same experiment (fingerprints equal), in the same mode, and the
// shard set must be complete — i/n for every i. A lone unsharded file
// round-trips to itself, which is the byte-determinism check voxel-merge
// offers CI.
func MergeFiles(paths []string) (*Merged, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("sweep: no checkpoint files to merge")
	}
	cps := make([]*Checkpoint, len(paths))
	for i, p := range paths {
		cp, err := LoadCheckpoint(p)
		if err != nil {
			return nil, err
		}
		if i > 0 && cp.Fingerprint != cps[0].Fingerprint {
			return nil, fmt.Errorf("sweep: %s was written by a different experiment than %s",
				p, paths[0])
		}
		if i > 0 && cp.Stream != cps[0].Stream {
			return nil, fmt.Errorf("sweep: %s mixes streaming and classic checkpoints", p)
		}
		if err := cp.complete(); err != nil {
			return nil, fmt.Errorf("%w (%s)", err, p)
		}
		cps[i] = cp
	}
	if err := coverage(cps, paths); err != nil {
		return nil, err
	}
	// Merge in shard-index order, whatever order the files were given in.
	slices.SortFunc(cps, func(a, b *Checkpoint) int { return a.Shard.Index - b.Shard.Index })
	if cps[0].Stream {
		return mergeStreamFiles(cps)
	}
	return mergeClassicFiles(cps)
}

// coverage verifies the files form exactly one complete shard set: every
// index of one count, no duplicates, no strays.
func coverage(cps []*Checkpoint, paths []string) error {
	count := cps[0].Shard.Count
	if count <= 1 {
		if len(cps) != 1 {
			return fmt.Errorf("sweep: %s is unsharded but %d files were given",
				paths[0], len(cps))
		}
		return nil
	}
	if len(cps) != count {
		return fmt.Errorf("sweep: shard count is %d but %d files were given", count, len(cps))
	}
	seen := map[int]string{}
	for i, cp := range cps {
		if cp.Shard.Count != count {
			return fmt.Errorf("sweep: %s is shard %v, others are of %d", paths[i], cp.Shard, count)
		}
		if prev, dup := seen[cp.Shard.Index]; dup {
			return fmt.Errorf("sweep: %s and %s are both shard %v", prev, paths[i], cp.Shard)
		}
		seen[cp.Shard.Index] = paths[i]
	}
	return nil
}

func mergeClassicFiles(cps []*Checkpoint) (*Merged, error) {
	aggs := make([]*exp.Aggregate, len(cps))
	for i, cp := range cps {
		agg, err := cp.Aggregate()
		if err != nil {
			return nil, err
		}
		aggs[i] = agg
	}
	agg, err := exp.MergeShards(aggs)
	if err != nil {
		return nil, err
	}
	// Re-serialize the merged campaign in unsharded checkpoint format: the
	// same bytes a single uninterrupted process would have left behind
	// (modulo run-specific failure stacks).
	out := newCheckpoint(agg.Config, false)
	done := make(map[int]bool, len(agg.Trials))
	for ti := range agg.Trials {
		done[ti] = true
	}
	fails := make([]*exp.TrialError, len(agg.Trials))
	for i := range agg.Failed {
		te := agg.Failed[i]
		fails[te.Trial] = &te
	}
	out.capture(done, agg.Trials, fails, nil)
	return &Merged{Agg: agg, cp: out}, nil
}

func mergeStreamFiles(cps []*Checkpoint) (*Merged, error) {
	sk := NewStreamAgg(0)
	if cps[0].Sketch != nil {
		sk = NewStreamAgg(cps[0].Sketch.Alpha)
	}
	done := map[int]bool{}
	for _, cp := range cps {
		if cp.Sketch == nil {
			return nil, fmt.Errorf("sweep: streaming checkpoint missing sketch state")
		}
		if err := sk.Merge(cp.Sketch); err != nil {
			return nil, err
		}
		for _, ti := range cp.Done {
			done[ti] = true
		}
	}
	out := &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: cps[0].Fingerprint,
		Stream:      true,
		Experiment:  cps[0].Experiment,
	}
	out.capture(done, nil, nil, sk)
	return &Merged{Stream: sk, cp: out}, nil
}

// WriteFile persists the merged campaign as an unsharded checkpoint file,
// atomically, in the same format sweep.Run writes.
func (m *Merged) WriteFile(path string) error { return m.cp.WriteFile(path) }
