// Command voxel-prep runs VOXEL's offline content preparation (§4.1) for a
// title: it analyzes frame importance for every segment and quality,
// selects the cheapest ordering per segment, and writes the enriched DASH
// manifest. It prints summary statistics: chosen-ordering histogram,
// drop-tolerance quartiles, and the manifest size overhead.
package main

import (
	"flag"
	"fmt"
	"os"

	"voxel/internal/dash"
	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/stats"
	"voxel/internal/video"
)

func main() {
	title := flag.String("title", "BBB", "video title (BBB, ED, Sintel, ToS, P1–P10)")
	metricName := flag.String("metric", "ssim", "QoE metric: ssim, vmaf, psnr")
	points := flag.Int("points", 12, "ssims tuples per segment in the manifest")
	segments := flag.Int("segments", 0, "limit segment count (0 = full clip)")
	out := flag.String("out", "", "write the enriched MPD to this file ('-' = stdout)")
	flag.Parse()

	v, err := video.Load(*title)
	if err != nil {
		fatal(err)
	}
	if *segments > 0 && *segments < v.Segments {
		v.Segments = *segments
	}
	var metric qoe.Metric
	if err := metric.UnmarshalText([]byte(*metricName)); err != nil {
		fatal(err)
	}

	a := prep.NewAnalyzer()
	a.Metric = metric

	fmt.Printf("Preparing %s (%s): %d segments × %d qualities, metric %v\n",
		v.Title, v.Genre, v.Segments, video.NumQualities, metric)

	// Ordering histogram and tolerance stats at the top rung.
	orderCount := map[prep.Ordering]int{}
	var tolerance []float64
	plans := a.AnalyzeVideo(v, 12)
	for i, p := range plans {
		orderCount[p.Ordering]++
		tolerance = append(tolerance,
			a.MaxDropFraction(v.Segment(i, 12), prep.OrderByInboundRefs, 0.99))
	}
	fmt.Println("\nChosen orderings at Q12:")
	for _, o := range prep.Orderings() {
		fmt.Printf("  %-18s %3d segments\n", o, orderCount[o])
	}
	sum := stats.Summarize(tolerance)
	fmt.Printf("\nDrop tolerance at Q12/SSIM 0.99: p25=%.1f%% median=%.1f%% p75=%.1f%%\n",
		100*sum.P25, 100*sum.Median, 100*sum.P75)

	man := dash.Build(v, dash.BuildOptions{Voxel: true, PointsPerSegment: *points, Analyzer: a})
	bytes, frac, err := man.SizeOverhead()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nManifest: %d bytes (%.1f%% of an average Q12 segment; paper: ≈16%%)\n",
		bytes, 100*frac)

	if *out != "" {
		data, err := man.EncodeMPD()
		if err != nil {
			fatal(err)
		}
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Printf("Wrote %s\n", *out)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voxel-prep:", err)
	os.Exit(1)
}
