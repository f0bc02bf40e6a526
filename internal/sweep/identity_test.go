package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"voxel/internal/exp"
	"voxel/internal/trace"
)

// smallCfg is a cheap sweep for the identity and hook tests.
func smallCfg() exp.Config {
	c := testCfg()
	c.Trials = 4
	c.Segments = 4
	return c
}

// Every result-affecting Config field must move the fingerprint, with no
// hand-kept list to forget a new one. The execution-only fields must not.
func TestIdentityCoversEveryConfigField(t *testing.T) {
	base := exp.NewDocument(smallCfg()).Fingerprint()
	executionOnly := map[string]bool{
		"Parallelism": true, "ShardIndex": true, "ShardCount": true, "Interrupt": true,
	}
	typ := reflect.TypeOf(exp.Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		c := smallCfg()
		v := reflect.ValueOf(&c).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1) // +1 keeps Metric a valid metric

		case reflect.Uint64:
			v.SetUint(v.Uint() + 3)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1.5)
		case reflect.Pointer:
			c.Trace = trace.ATT() // the trace reference carries it
		case reflect.Chan:
			c.Interrupt = make(chan struct{})
		default:
			t.Fatalf("field %s has kind %v this test cannot perturb", f.Name, v.Kind())
		}
		moved := exp.NewDocument(c).Fingerprint() != base
		if moved == executionOnly[f.Name] {
			t.Errorf("perturbing Config.%s: fingerprint moved = %v, want %v",
				f.Name, moved, !executionOnly[f.Name])
		}
	}
}

// A checkpoint from the previous file format is refused with the version
// error, never reinterpreted.
func TestCheckpointVersion1Refused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if _, err := Run(smallCfg(), Options{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = 1
	if b, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	want := "version 1, want 3"
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadCheckpoint: got %v, want %q", err, want)
	}
	if _, err := Run(smallCfg(), Options{Checkpoint: path}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run: got %v, want %q", err, want)
	}
}

// A shifted copy of a canonical trace keeps the canonical name but not the
// samples, so its checkpoint has no canonical trace key: rebuilding it
// from the file must take the merge-in-process error.
func TestCheckpointShiftedTraceNotCanonical(t *testing.T) {
	cfg := smallCfg()
	cfg.Trace = trace.TMobile().Shifted(37 * time.Second)
	path := filepath.Join(t.TempDir(), "state.json")
	if _, err := Run(cfg, Options{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "no canonical name; merge it in-process"
	if _, err := cp.Aggregate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Aggregate: got %v, want %q", err, want)
	}
}

// FailureHook fires exactly once per failed trial run in this process, at
// delivery — never again for failures restored from a checkpoint or folded
// by a merge.
func TestFailureHookFiresOncePerRunTrial(t *testing.T) {
	fired := map[int]int{}
	exp.FailureHook = func(te *exp.TrialError) { fired[te.Trial]++ }
	defer func() { exp.FailureHook = nil }()
	expect := func(what string, want map[int]int) {
		t.Helper()
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("%s: hook fired %v, want %v", what, fired, want)
		}
		fired = map[int]int{}
	}
	cfg := smallCfg()
	cfg.Inject = "panic@2"
	dir := t.TempDir()

	exp.Run(cfg)
	expect("exp.Run", map[int]int{2: 1})

	if _, err := Run(cfg, Options{Stream: true}); err != nil {
		t.Fatal(err)
	}
	expect("streaming sweep", map[int]int{2: 1})

	whole := filepath.Join(dir, "whole.json")
	if _, err := Run(cfg, Options{Checkpoint: whole}); err != nil {
		t.Fatal(err)
	}
	expect("checkpointed sweep", map[int]int{2: 1})

	res, err := Run(cfg, Options{Checkpoint: whole})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 0 || len(res.Agg.Failed) != 1 {
		t.Fatalf("resume ran %d trials and kept %d failures, want 0 and 1", res.Ran, len(res.Agg.Failed))
	}
	expect("fully restored sweep", map[int]int{})

	var files []string
	var aggs []*exp.Aggregate
	for i := 0; i < 2; i++ {
		sc := cfg
		sc.ShardIndex, sc.ShardCount = i, 2
		f := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		r, err := Run(sc, Options{Checkpoint: f})
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		aggs = append(aggs, r.Agg)
	}
	expect("shard runs", map[int]int{2: 1})

	if _, err := exp.MergeShards(aggs); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFiles(files); err != nil {
		t.Fatal(err)
	}
	expect("merges", map[int]int{})
}
