package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"voxel"
	"voxel/internal/exp"
	"voxel/internal/sweep"
)

// setupReps is how many times the untraced run's own process builds the
// workload's manifests; each pass process builds them once more.
const setupReps = 5

// buildManifest builds the manifest exp.ManifestFor caches, without the
// cache: the same title, metric, clip length and curve resolution.
func buildManifest(title string, segments int) (*voxel.Manifest, error) {
	v, err := voxel.LoadVideo(title)
	if err != nil {
		return nil, err
	}
	if segments > 0 && segments < v.Segments {
		v.Segments = segments
	}
	return voxel.PrepareManifest(v, voxel.SSIM, 12), nil
}

// setUp builds the workload's manifests reps times and returns the time of
// each build. The first goes through exp.ManifestFor, filling the process
// cache the trials read; the rest rebuild the same manifests uncached and
// must equal the cached ones.
func setUp(w *workload, reps int, c *checks) ([]float64, error) {
	times := make([]float64, 0, reps)
	cached := make([]*voxel.Manifest, len(w.titles))
	for k := 0; k < reps; k++ {
		built := make([]*voxel.Manifest, len(w.titles))
		t0 := time.Now()
		for i, title := range w.titles {
			if k == 0 {
				cached[i] = exp.ManifestFor(title, voxel.SSIM, w.segments)
				continue
			}
			m, err := buildManifest(title, w.segments)
			if err != nil {
				return nil, err
			}
			built[i] = m
		}
		times = append(times, time.Since(t0).Seconds())
		if k == 1 {
			for i := range w.titles {
				if digestOf(built[i]) != digestOf(cached[i]) {
					c.failf("uncached %s manifest differs from exp.ManifestFor's", w.titles[i])
				}
			}
		}
	}
	return times, nil
}

// runPass runs every cell of the workload through the facade and returns
// the cells' aggregates. dir holds checkpoints and exports; workers > 0
// overrides the trial parallelism.
func runPass(w *workload, dir string, workers int) ([]*voxel.Aggregate, error) {
	var aggs []*voxel.Aggregate
	for i, c := range w.cells {
		agg, rep, err := c.session(dir, workers).Run()
		if err != nil {
			return nil, fmt.Errorf("%s cell %d: %w", w.name, i, err)
		}
		aggs = append(aggs, agg)
		if c.export {
			if _, err := exportReport(rep, filepath.Join(dir, fmt.Sprintf("cell%d", i))); err != nil {
				return nil, err
			}
		}
	}
	return aggs, nil
}

// exportReport writes the telemetry report as base.jsonl and base.csv and
// returns the bytes written.
func exportReport(rep *voxel.Report, base string) (int64, error) {
	var total int64
	for _, ext := range []string{".jsonl", ".csv"} {
		f, err := os.Create(base + ext)
		if err != nil {
			return 0, err
		}
		if ext == ".jsonl" {
			err = rep.WriteJSONL(f)
		} else {
			err = rep.WriteCSV(f)
		}
		if err != nil {
			f.Close()
			return 0, fmt.Errorf("export %s: %w", base+ext, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return 0, err
		}
		total += st.Size()
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// failures counts the failed trials of a pass.
func failures(aggs []*voxel.Aggregate) int {
	n := 0
	for _, a := range aggs {
		n += len(a.Failed)
	}
	return n
}

// checkDigest compares pass i's digest with the first pass's, and the
// first with the recorded one.
func checkDigest(c *checks, o runOpts, i int, first *string, dg, what string) {
	switch {
	case i == 0:
		*first = dg
		if o.expect != "" && dg != o.expect {
			c.failf("%s digest %s at the default seed, expected.json records %s", what, dg, o.expect)
		}
	case dg != *first:
		c.failf("%s digest changed between passes: %s then %s", what, *first, dg)
	}
}

// checkResume re-runs every checkpointed cell against its final checkpoint:
// the sweep engine must restore every trial, run none, and return the same
// aggregate.
func checkResume(w *workload, dir string, aggs []*voxel.Aggregate, c *checks) {
	for i, cl := range w.cells {
		if cl.ckpt == "" {
			continue
		}
		cfg := cl.session(dir, 0).Config()
		res, err := sweep.Run(cfg, sweep.Options{Checkpoint: filepath.Join(dir, cl.ckpt), Every: chaosCheckpointEvery})
		switch {
		case err != nil:
			c.failf("cell %d resume: %v", i, err)
		case res.Ran != 0 || res.Restored != cfg.WithDefaults().Trials:
			c.failf("cell %d resume ran %d and restored %d of %d trials", i, res.Ran, res.Restored, cfg.WithDefaults().Trials)
		case digestAggregates([]*voxel.Aggregate{res.Agg}) != digestAggregates(aggs[i:i+1]):
			c.failf("cell %d resumed aggregate differs from the run's", i)
		}
	}
}

// freshDir makes an empty directory for one pass.
func freshDir(o runOpts, i int) (string, error) {
	dir := filepath.Join(o.workdir, fmt.Sprintf("pass%d", i))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// passMeasure is what one pass process measured: its cold set-up and one
// pass over the workload.
type passMeasure struct {
	Setup     float64  `json:"setup_s"`
	Wall      float64  `json:"wall_s"`
	CPU       float64  `json:"cpu_s"`
	AllocMB   float64  `json:"alloc_mb"`
	AllocsM   float64  `json:"allocs_m"`
	PeakRSS   float64  `json:"peak_rss_mb"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Digest    string   `json:"digest"`
	Problems  []string `json:"problems"`
}

// measurePass sets the workload up once, cold, and runs one pass over it
// in dir, then checks that the checkpointed cells resume.
func measurePass(w *workload, dir string) (passMeasure, error) {
	var c checks
	setups, err := setUp(w, 1, &c)
	if err != nil {
		return passMeasure{}, err
	}
	runtime.GC()
	a := sampleHost()
	aggs, err := runPass(w, dir, 0)
	b := sampleHost()
	if err != nil {
		return passMeasure{}, err
	}
	checkResume(w, dir, aggs, &c)
	return passMeasure{
		Setup:     setups[0],
		Wall:      b.wall.Sub(a.wall).Seconds(),
		CPU:       (b.cpu - a.cpu).Seconds(),
		AllocMB:   float64(b.allocB-a.allocB) / (1 << 20),
		AllocsM:   float64(b.allocObj-a.allocObj) / 1e6,
		PeakRSS:   peakRSSMiB(),
		Attempted: w.trials(),
		Failed:    failures(aggs),
		Digest:    digestAggregates(aggs),
		Problems:  c.problems,
	}, nil
}

// runPassProcess runs measurePass in a fresh process of this program, so
// its manifest cache is cold and its peak RSS is its own.
func runPassProcess(self string, w *workload, o runOpts, dir string) (passMeasure, error) {
	cmd := exec.Command(self, "--pass", "--workload", w.name,
		"--seed", strconv.FormatInt(o.seed, 10), "--workdir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return passMeasure{}, fmt.Errorf("pass process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var pm passMeasure
	if err := json.Unmarshal(lines[len(lines)-1], &pm); err != nil {
		return passMeasure{}, fmt.Errorf("pass process output: %w", err)
	}
	return pm, nil
}

// runE2E is the untraced run: cold set-ups in this process, then passes,
// each in a fresh process, until o.seconds have passed. Every metric is
// the median over the passes; setup_s pools this process's set-ups with
// each pass's.
func runE2E(w *workload, o runOpts, c *checks) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	setups, err := setUp(w, setupReps, c)
	if err != nil {
		return result{}, err
	}
	var passes []passMeasure
	var first string
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		dir, err := freshDir(o, i)
		if err != nil {
			return result{}, err
		}
		pm, err := runPassProcess(self, w, o, dir)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, pm)
		for _, p := range pm.Problems {
			c.failf("pass %d: %s", i, p)
		}
		checkDigest(c, o, i, &first, pm.Digest, w.name)
		if err := os.RemoveAll(dir); err != nil {
			return result{}, err
		}
	}
	res := summarize(setups, passes)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d digest %s, %d passes\n", w.name, o.seed, first, len(passes))
	return res, nil
}

// summarize folds the passes into the end-to-end metrics: the median of
// each over the passes, setup_s over the given set-ups and every pass's.
func summarize(setups []float64, passes []passMeasure) result {
	res := result{Metrics: map[string]metric{}}
	var wall, cpu, allocMB, allocsM, rss []float64
	for _, pm := range passes {
		setups = append(setups, pm.Setup)
		wall = append(wall, pm.Wall)
		cpu = append(cpu, pm.CPU)
		allocMB = append(allocMB, pm.AllocMB)
		allocsM = append(allocsM, pm.AllocsM)
		rss = append(rss, pm.PeakRSS)
		res.Attempted += pm.Attempted
		res.Failed += pm.Failed
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["wall_s"] = metric{median(wall), "s"}
	res.Metrics["cpu_s"] = metric{median(cpu), "s"}
	res.Metrics["alloc_mb"] = metric{median(allocMB), "MiB"}
	res.Metrics["allocs_m"] = metric{median(allocsM), "millions"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MiB"}
	res.Metrics["trial_ok_ratio"] = metric{ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)), "ratio"}
	return res
}
