package exp

import (
	"fmt"
	"reflect"
	"slices"
)

// Normalized returns the config with its execution-only fields cleared:
// shard coordinates, worker parallelism, and the interrupt channel. Two
// configs that normalize equal describe the same sweep — the same trials
// with the same seeds producing the same results — even if they were run
// on different shards, at different parallelism, or under different
// cancellation plumbing. Merge and resume use this as the compatibility
// test, and a merged aggregate is stamped with the normalized (defaulted)
// config, which is exactly what an unsharded sequential run stamps.
func (c Config) Normalized() Config {
	c = c.WithDefaults()
	c.ShardIndex = 0
	c.ShardCount = 0
	c.Parallelism = 0
	c.Interrupt = nil
	return c
}

// MergeShards folds the aggregates of a complete shard set back into the
// aggregate the equivalent unsharded run would have produced, bit for bit.
// Every shard must carry the same ShardCount n, the set must cover shard
// indices 0..n-1 exactly once, and the configs must match after
// Normalized(). The shards' per-trial results are slotted back into one
// full-length trial vector by ownership and re-assembled with the
// normalized config; because trial seeds and trace shifts depend only on
// the trial index and the full trial count — never on which shard ran the
// trial — the refold reproduces the single-process fold exactly. The fold
// is pure, so FailureHook does not fire again for the shards' failures:
// each shard reported them at delivery, when it ran them.
func MergeShards(shards []*Aggregate) (*Aggregate, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("exp: merge of zero shards")
	}
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("exp: shard %d is nil", i)
		}
	}
	n := shards[0].Config.ShardCount
	if n <= 1 {
		if len(shards) == 1 {
			// A single unsharded aggregate "merges" to itself, re-stamped
			// with the normalized config so the output is canonical.
			return mergeRefold([]*Aggregate{shards[0]})
		}
		return nil, fmt.Errorf("exp: shard 0 is unsharded (count %d) but %d shards given", n, len(shards))
	}
	if len(shards) != n {
		return nil, fmt.Errorf("exp: got %d shards, config says %d", len(shards), n)
	}
	norm := shards[0].Config.Normalized()
	seen := make(map[int]bool, n)
	for i, s := range shards {
		c := s.Config
		if c.ShardCount != n {
			return nil, fmt.Errorf("exp: shard %d has count %d, shard 0 has %d", i, c.ShardCount, n)
		}
		if seen[c.ShardIndex] {
			return nil, fmt.Errorf("exp: shard index %d appears twice", c.ShardIndex)
		}
		seen[c.ShardIndex] = true
		if !reflect.DeepEqual(c.Normalized(), norm) {
			return nil, fmt.Errorf("exp: shard %d config does not match shard 0 after normalization", i)
		}
		if len(s.Trials) != norm.Trials {
			return nil, fmt.Errorf("exp: shard %d has %d trial slots, config says %d",
				i, len(s.Trials), norm.Trials)
		}
	}
	// Present in sorted shard-index order so the refold is independent of
	// the order the caller listed the files in.
	ordered := slices.Clone(shards)
	slices.SortFunc(ordered, func(a, b *Aggregate) int { return a.Config.ShardIndex - b.Config.ShardIndex })
	return mergeRefold(ordered)
}

// mergeRefold slots every shard's owned trials into one full vector and
// re-assembles with the normalized config.
func mergeRefold(shards []*Aggregate) (*Aggregate, error) {
	norm := shards[0].Config.Normalized()
	trials := make([]Trial, norm.Trials)
	fails := make([]*TrialError, norm.Trials)
	for _, s := range shards {
		own := s.Config.WithDefaults()
		for ti := 0; ti < norm.Trials; ti++ {
			if !own.Owns(ti) {
				continue
			}
			trials[ti] = s.Trials[ti]
		}
		for fi := range s.Failed {
			te := s.Failed[fi] // copy; the shard's record stays untouched
			if te.Trial < 0 || te.Trial >= norm.Trials {
				return nil, fmt.Errorf("exp: shard %d failure names trial %d of %d",
					s.Config.ShardIndex, te.Trial, norm.Trials)
			}
			// Re-stamp the error's config like the unsharded harness would
			// have, so merged Failed entries compare equal to a clean run's.
			te.Config = norm
			fails[te.Trial] = &te
		}
	}
	return Assemble(norm, trials, fails), nil
}
