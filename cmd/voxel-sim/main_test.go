package main

import (
	"flag"
	"strings"
	"testing"

	"voxel/internal/exp"
	"voxel/internal/sweep"
)

// The cross-flag constraints: -repro excludes every sweep flag, -stream
// excludes the flags that need retained per-trial results, -checkpoint-every
// needs -checkpoint, and the config flag table rejects malformed -shard
// specs.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     []string
		shard   string
		want    sweep.Shard
		wantErr string // substring of the error; "" = must succeed
	}{
		{name: "bare run", set: nil},
		{name: "repro alone", set: []string{"repro"}},
		{name: "repro with profiles", set: []string{"repro", "cpuprofile", "memprofile"}},
		{name: "repro with shard", set: []string{"repro", "shard"}, shard: "0/2",
			wantErr: "drop -shard"},
		{name: "repro with checkpoint", set: []string{"repro", "checkpoint"},
			wantErr: "drop -checkpoint"},
		{name: "repro with stream and trials", set: []string{"repro", "stream", "trials"},
			wantErr: "drop -stream, -trials"},
		{name: "stream with telemetry", set: []string{"stream", "telemetry"},
			wantErr: "cannot honor -telemetry"},
		{name: "stream with telemetry-out", set: []string{"stream", "telemetry-out"},
			wantErr: "cannot honor -telemetry-out"},
		{name: "stream with telemetry-csv", set: []string{"stream", "telemetry-csv"},
			wantErr: "cannot honor -telemetry-csv"},
		{name: "stream with swarm", set: []string{"stream", "swarm"},
			wantErr: "cannot honor -swarm"},
		{name: "stream with checkpoint", set: []string{"stream", "checkpoint", "checkpoint-every"}},
		{name: "checkpoint-every alone", set: []string{"checkpoint-every"},
			wantErr: "does nothing without -checkpoint"},
		{name: "shard ok", set: []string{"shard"}, shard: "1/4",
			want: sweep.Shard{Index: 1, Count: 4}},
		{name: "shard whole sweep", set: []string{"shard"}, shard: "0/1",
			want: sweep.Shard{Index: 0, Count: 1}},
		{name: "shard not i/n", set: []string{"shard"}, shard: "3", wantErr: "not i/n"},
		{name: "shard index not a number", set: []string{"shard"}, shard: "x/4",
			wantErr: "shard index"},
		{name: "shard count zero", set: []string{"shard"}, shard: "0/0",
			wantErr: "must be at least 1"},
		{name: "shard count negative", set: []string{"shard"}, shard: "0/-2",
			wantErr: "must be at least 1"},
		{name: "shard index at count", set: []string{"shard"}, shard: "4/4",
			wantErr: "out of range"},
		{name: "shard index past count", set: []string{"shard"}, shard: "5/4",
			wantErr: "out of range"},
		{name: "shard index negative", set: []string{"shard"}, shard: "-1/4",
			wantErr: "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := validateFlags(set)
			var got sweep.Shard
			if err == nil && tc.shard != "" {
				got, err = parseShard(tc.shard)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got err %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if got != tc.want {
				t.Fatalf("shard = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// parseShard parses a -shard spec the way main does: through the config
// flag table.
func parseShard(spec string) (sweep.Shard, error) {
	fs := flag.NewFlagSet("voxel-sim", flag.ContinueOnError)
	config := exp.RegisterFlags(fs)
	if err := fs.Parse([]string{"-shard", spec}); err != nil {
		return sweep.Shard{}, err
	}
	cfg, err := config()
	return sweep.Shard{Index: cfg.ShardIndex, Count: cfg.ShardCount}, err
}

// shardTrials partitions the trial count exactly: the owned counts of a
// full shard set sum to the total, and every shard gets ⌊n/c⌋ or ⌈n/c⌉.
func TestShardTrials(t *testing.T) {
	for _, count := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 5, 12, 30} {
			sum := 0
			for i := 0; i < count; i++ {
				owned := shardTrials(sweep.Shard{Index: i, Count: count}, n)
				if lo, hi := n/count, (n+count-1)/count; owned < lo || owned > hi {
					t.Fatalf("shard %d/%d of %d trials owns %d, want in [%d,%d]",
						i, count, n, owned, lo, hi)
				}
				sum += owned
			}
			if sum != n {
				t.Fatalf("%d-way shards of %d trials own %d total", count, n, sum)
			}
		}
	}
}
