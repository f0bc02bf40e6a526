package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadRuns reads dir/<workload>/*.json: the last line of each file is one
// run's result, keyed by the file's name.
func loadRuns(dir, workload string) (map[string]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, workload, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
				last = append(last[:0], line...)
			}
		}
		var r result
		if err := json.Unmarshal(last, &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", p, err)
		}
		out[filepath.Base(p)] = r
	}
	return out, nil
}

// verdict classifies a change against its parent by the benchmark's rule:
// improved when the change wins at least nine tenths of all pairs and the
// medians differ by more than the parent's quartile spread; otherwise,
// when either side's spread is wider than the bound, unresolved unless
// every change run is worse than every parent run; otherwise worse when
// the median moved the wrong way by more than the bound.
func verdict(parent, change []float64, wins, pairs int, lowerBetter bool, bound float64) string {
	mp, mc := median(parent), median(change)
	p1, p3 := quartiles(parent)
	c1, c3 := quartiles(change)
	better := mc < mp
	if !lowerBetter {
		better = mc > mp
	}
	if pairs > 0 && 10*wins >= 9*pairs && better && abs(mc-mp) > p3-p1 {
		return "improved"
	}
	worse := ratio(mc-mp, mp)
	if !lowerBetter {
		worse = -worse
	}
	spread := ratio(p3-p1, mp)
	if s := ratio(c3-c1, mc); s > spread {
		spread = s
	}
	if spread > bound {
		if allWorse(parent, change, lowerBetter) {
			return "worse"
		}
		return "unresolved"
	}
	if worse > bound {
		return "worse"
	}
	return "within bound"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func allWorse(parent, change []float64, lowerBetter bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if (lowerBetter && c <= p) || (!lowerBetter && c >= p) {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}

// compareRuns prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the share of pairs the change won, and a verdict.
func compareRuns(out io.Writer, specPath, parentDir, changeDir string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	for _, wl := range spec.Workloads {
		pr, err := loadRuns(parentDir, wl.Name)
		if err != nil {
			return err
		}
		cr, err := loadRuns(changeDir, wl.Name)
		if err != nil {
			return err
		}
		if len(pr) == 0 || len(cr) == 0 {
			fmt.Fprintf(out, "%s: no runs (parent %d, change %d)\n\n", wl.Name, len(pr), len(cr))
			continue
		}
		var keys []string
		for k := range pr {
			if _, ok := cr[k]; ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		fmt.Fprintf(out, "%s: parent %d runs, change %d runs, %d pairs; failed trials parent %s, change %s\n",
			wl.Name, len(pr), len(cr), len(keys), failShare(pr), failShare(cr))
		fmt.Fprintf(out, "  %-16s %-9s %-30s %-30s %-6s %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
		for _, m := range spec.EndToEnd {
			pv, cv := values(pr, m.Name), values(cr, m.Name)
			lower := m.Better == "lower"
			wins := 0
			for _, k := range keys {
				p, c := pr[k].Metrics[m.Name].Value, cr[k].Metrics[m.Name].Value
				if (lower && c < p) || (!lower && c > p) {
					wins++
				}
			}
			p1, p3 := quartiles(pv)
			c1, c3 := quartiles(cv)
			won := "-"
			if len(keys) > 0 {
				won = fmt.Sprintf("%.0f%%", 100*float64(wins)/float64(len(keys)))
			}
			fmt.Fprintf(out, "  %-16s %-9s %-30s %-30s %-6s %s\n", m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(pv), p1, p3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(cv), c1, c3),
				won, verdict(pv, cv, wins, len(keys), lower, m.Bound))
		}
		fmt.Fprintln(out)
	}
	return nil
}

func values(runs map[string]result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failShare(runs map[string]result) string {
	att, fail := 0, 0
	for _, r := range runs {
		att += r.Attempted
		fail += r.Failed
	}
	return fmt.Sprintf("%d/%d", fail, att)
}
