package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"voxel/internal/exp"
	"voxel/internal/trace"
)

// checkpointVersion gates the file format; a reader refuses any other
// value rather than guessing. Version 2 fingerprints the whole normalized
// exp.Config instead of a hand-kept copy of its fields.
const checkpointVersion = 2

// identity is the canonical description of what a sweep computes: the
// normalized config — every field that changes trial results, with the
// execution-only ones (shard coordinates, parallelism, interrupt plumbing)
// cleared — plus the trace, which the config's JSON leaves out. A trace is
// recorded by name, a hash of its samples (CSV-loaded traces have no
// canonical name but still fingerprint exactly), and its ByName key when
// it is exactly a canonical trace, so voxel-merge can rebuild the config
// from the file alone. Two runs with equal identities produce
// interchangeable trial records; the fingerprint over this struct is what
// lets resume and merge refuse a checkpoint written by a different
// experiment. Because the config is embedded whole, a new Config field
// joins the fingerprint without any change here.
type identity struct {
	exp.Config
	TraceName      string `json:"trace_name,omitempty"`
	TraceHash      string `json:"trace_hash,omitempty"`
	TraceCanonical string `json:"trace_canonical,omitempty"`
}

func newIdentity(cfg exp.Config) identity {
	id := identity{Config: cfg.Normalized()}
	if t := id.Trace; t != nil {
		id.TraceName = t.Name()
		id.TraceHash = hashSamples(t.Samples())
		id.TraceCanonical, _ = trace.CanonicalName(t)
	}
	return id
}

func hashSamples(xs []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprint hashes the canonical JSON of an identity. encoding/json
// renders struct fields in declaration order and floats in shortest exact
// form, so equal identities always hash equal.
func (id identity) fingerprint() string {
	b, err := json.Marshal(id)
	if err != nil {
		// identity is scalars and strings (the trace and interrupt channel
		// are excluded from the JSON); Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// trialRecord stores one completed trial's full result.
type trialRecord struct {
	Trial  int       `json:"trial"`
	Result exp.Trial `json:"result"`
}

// failRecord stores a TrialError minus its Config (the config is the
// file-level identity; re-stamped on load).
type failRecord struct {
	Trial   int    `json:"trial"`
	Seed    int64  `json:"seed"`
	Session int    `json:"session"`
	ClockNS int64  `json:"clock_ns"`
	Rule    string `json:"rule"`
	Msg     string `json:"msg"`
	Stack   string `json:"stack,omitempty"`
}

// Checkpoint is the on-disk state of a (possibly partial) sweep: the
// identity of what is being computed, which shard this file belongs to,
// which trials are done, and their results — either full per-trial records
// (classic mode) or folded sketch state (streaming mode). The final
// checkpoint of a finished shard doubles as the shard's output file, which
// is exactly what voxel-merge consumes.
type Checkpoint struct {
	Version     int           `json:"version"`
	Fingerprint string        `json:"fingerprint"`
	Shard       Shard         `json:"shard"`
	Stream      bool          `json:"stream,omitempty"`
	Config      identity      `json:"config"`
	Done        []int         `json:"done"`
	Trials      []trialRecord `json:"trials,omitempty"`
	Fails       []failRecord  `json:"fails,omitempty"`
	Sketch      *StreamAgg    `json:"sketch,omitempty"`
}

// newCheckpoint builds the header for cfg.
func newCheckpoint(cfg exp.Config, stream bool) *Checkpoint {
	d := cfg.WithDefaults()
	id := newIdentity(d)
	return &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: id.fingerprint(),
		Shard:       Shard{Index: d.ShardIndex, Count: d.ShardCount},
		Stream:      stream,
		Config:      id,
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
			cp.Fails = append(cp.Fails, failRecord{
				Trial: te.Trial, Seed: te.Seed, Session: te.Session,
				ClockNS: int64(te.Clock), Rule: te.Rule, Msg: te.Msg, Stack: te.Stack,
			})
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
	if cp.Fingerprint != cp.Config.fingerprint() {
		return nil, fmt.Errorf("sweep: %s: fingerprint does not match stored config", path)
	}
	for _, ti := range cp.Done {
		if ti < 0 || ti >= cp.Config.Trials {
			return nil, fmt.Errorf("sweep: %s: done trial %d out of range [0, %d)",
				path, ti, cp.Config.Trials)
		}
	}
	return &cp, nil
}

// matches reports whether the checkpoint was written by a run of cfg in
// the same mode, i.e. whether its records can be reused.
func (cp *Checkpoint) matches(cfg exp.Config, stream bool) error {
	d := cfg.WithDefaults()
	if got, want := cp.Fingerprint, newIdentity(d).fingerprint(); got != want {
		return fmt.Errorf("sweep: checkpoint was written by a different experiment (fingerprint %.12s, want %.12s)", got, want)
	}
	if sh := (Shard{Index: d.ShardIndex, Count: d.ShardCount}); cp.Shard != sh {
		return fmt.Errorf("sweep: checkpoint belongs to shard %v, this run is %v", cp.Shard, sh)
	}
	if cp.Stream != stream {
		return fmt.Errorf("sweep: checkpoint stream mode %v, this run wants %v", cp.Stream, stream)
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
	for _, fr := range cp.Fails {
		if fr.Trial < 0 || fr.Trial >= d.Trials || !done[fr.Trial] {
			return nil, nil, nil, fmt.Errorf("sweep: failure record %d outside done set", fr.Trial)
		}
		// Re-stamp the config exactly as the harness did when the trial
		// originally failed; the file stores results, not configs.
		trials[fr.Trial] = exp.Trial{Failed: true}
		fails[fr.Trial] = &exp.TrialError{
			Config: d, Trial: fr.Trial, Seed: fr.Seed, Session: fr.Session,
			Clock: time.Duration(fr.ClockNS), Rule: fr.Rule, Msg: fr.Msg, Stack: fr.Stack,
		}
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
	id := cp.Config
	cfg := id.Config
	if id.TraceName != "" {
		// Only a trace with a canonical ByName key can be rebuilt; a
		// CSV-loaded or shifted trace must be merged in-process, where the
		// *trace.Trace is at hand.
		if id.TraceCanonical == "" {
			return nil, fmt.Errorf(
				"sweep: trace %q has no canonical name; merge it in-process with exp.MergeShards",
				id.TraceName)
		}
		tr, err := trace.ByName(id.TraceCanonical)
		if err != nil {
			return nil, err
		}
		if hashSamples(tr.Samples()) != id.TraceHash {
			return nil, fmt.Errorf("sweep: rebuilt trace %q does not match stored hash", id.TraceCanonical)
		}
		cfg.Trace = tr
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
	for ti := 0; ti < cp.Config.Trials; ti++ {
		owned := sh.Unsharded() || ti%sh.Count == sh.Index
		if owned && !done[ti] {
			return fmt.Errorf("sweep: shard %v checkpoint is incomplete: trial %d missing", sh, ti)
		}
	}
	return nil
}
