// Package sweep is the large-sweep execution engine layered on exp: it
// shards a sweep deterministically across processes, checkpoints
// completed-trial state atomically so a killed campaign resumes without
// recomputing finished trials, and offers a streaming aggregation mode that
// folds per-trial samples into mergeable quantile sketches so peak memory
// stays bounded as trial counts grow.
//
// The determinism contract is inherited from exp and preserved end to end:
// a trial's seed and trace shift depend only on its index and the full
// trial count, never on which shard or process ran it, so the merge of a
// complete shard set — and the resume of a killed run — reproduce the
// single-process aggregate exactly.
package sweep

import (
	"fmt"
	"strconv"

	"voxel/internal/exp"
)

// Shard names one slice of a sharded campaign: this process owns the trials
// whose index ≡ Index (mod Count). The zero value means unsharded.
type Shard struct {
	Index int
	Count int
}

// Unsharded reports whether the shard spec selects the whole sweep.
func (s Shard) Unsharded() bool { return s.Count <= 1 }

// String renders the canonical "i/n" spec.
func (s Shard) String() string {
	return strconv.Itoa(s.Index) + "/" + strconv.Itoa(s.Count)
}

// ParseShard parses an "i/n" spec: shard i of n, with 0 ≤ i < n and n ≥ 1.
func ParseShard(spec string) (Shard, error) {
	i, n, err := exp.ParseShard(spec)
	if err != nil {
		return Shard{}, fmt.Errorf("sweep: %v", err)
	}
	return Shard{Index: i, Count: n}, nil
}
