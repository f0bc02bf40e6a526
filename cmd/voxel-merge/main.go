// Command voxel-merge folds the checkpoint files of a sharded campaign
// (written by voxel-sim -shard i/n -checkpoint) back into the
// single-process result. Given every shard of one campaign it verifies the
// set — same experiment fingerprint, same mode, complete and disjoint — and
// prints the merged statistics exactly as an unsharded voxel-sim run would.
//
// -out re-serializes the merged campaign as an unsharded checkpoint file,
// byte-identical to what one uninterrupted process would have written
// (modulo run-specific failure stacks); CI uses that for the determinism
// check. -telemetry-out / -telemetry-csv export the merged telemetry
// exactly as voxel-sim does.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"voxel"
	"voxel/internal/sweep"
)

func main() {
	out := flag.String("out", "",
		"write the merged campaign as an unsharded checkpoint file (byte-identical to a single-process run's)")
	telemetryOut := flag.String("telemetry-out", "",
		"write the merged telemetry timeline as JSONL to this file (- = stdout)")
	telemetryCSV := flag.String("telemetry-csv", "",
		"write merged per-trial telemetry counters as CSV to this file (- = stdout)")
	flag.Parse()
	files := flag.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: voxel-merge [flags] shard0.json shard1.json ...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	m, err := sweep.MergeFiles(files)
	if err != nil {
		fatal(err)
	}
	if m.Stream != nil {
		fmt.Printf("merged %d streaming shard file(s)\n\n", len(files))
		fmt.Print(m.Stream.Summary())
	} else {
		printAggregate(m.Agg, len(files))
		if m.Agg.Obs != nil {
			if err := m.Agg.Obs.WriteFiles(*telemetryOut, *telemetryCSV, os.Stdout); err != nil {
				fatal(err)
			}
		} else if *telemetryOut != "" || *telemetryCSV != "" {
			fatal(fmt.Errorf("the shards were run without -telemetry; nothing to export"))
		}
	}
	if *out != "" {
		if err := m.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if m.Agg != nil && len(m.Agg.Failed) > 0 {
		os.Exit(1)
	}
	if m.Stream != nil && m.Stream.Failed > 0 {
		os.Exit(1)
	}
}

// printAggregate renders the merged campaign in voxel-sim's output shape.
func printAggregate(agg *voxel.Aggregate, files int) {
	cfg := agg.Config
	fmt.Printf("merged %d shard file(s): %s / %s, %d trials\n",
		files, cfg.System, cfg.Title, len(agg.Trials))
	fmt.Print(agg.FailureReport())
	fmt.Println()
	fmt.Print(agg.Summary())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voxel-merge:", strings.TrimPrefix(err.Error(), "sweep: "))
	os.Exit(1)
}
