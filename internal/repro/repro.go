// Package repro defines the JSON crash artifact the chaos fuzz campaign
// writes for every failure it finds and shrinks. An artifact is a
// self-contained, deterministic description of one trial — the experiment
// configuration knobs, the failing trial's index within its sweep, and the
// violation it is expected to reproduce — small enough to commit next to a
// bug report and replay with `voxel-sim -repro file.json`.
//
// The package is pure data (stdlib JSON only) so every layer can produce
// or consume artifacts without import cycles; the mapping to a runnable
// exp.Config lives in internal/exp.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Artifact is one replayable crash case. Zero-valued fields take the
// experiment harness defaults, mirroring exp.Config.WithDefaults, so a
// shrunk artifact stays minimal on disk.
type Artifact struct {
	Title      string  `json:"title"`
	System     string  `json:"system,omitempty"`
	Trace      string  `json:"trace,omitempty"`
	Metric     string  `json:"metric,omitempty"`
	Buffer     int     `json:"buffer,omitempty"`
	Segments   int     `json:"segments,omitempty"`
	Trials     int     `json:"trials,omitempty"`
	Trial      int     `json:"trial"`
	Seed       int64   `json:"seed,omitempty"`
	Queue      int     `json:"queue,omitempty"`
	CrossMbps  float64 `json:"cross_mbps,omitempty"`
	LinkMbps   float64 `json:"link_mbps,omitempty"`
	Sessions   int     `json:"sessions,omitempty"`
	Impairment string  `json:"impairment,omitempty"`
	Failover   bool    `json:"failover,omitempty"`
	CC         string  `json:"cc,omitempty"`
	// MaxSimTimeSec bounds the trial's virtual time (0 = harness default).
	MaxSimTimeSec float64 `json:"max_sim_time_sec,omitempty"`
	// Inject names a deliberate fault (exp.Config.Inject) when the case
	// exercises the failure pipeline itself rather than a found bug.
	Inject string `json:"inject,omitempty"`
	// Violation is the failure rule this artifact reproduces (an invariant
	// rule like "quic.byte-conservation", "watchdog.event-budget", or
	// "panic"). Replay verifies the same rule fires again.
	Violation string `json:"violation,omitempty"`
	// Detail preserves the original failure message for humans.
	Detail string `json:"detail,omitempty"`
}

// Encode renders the artifact as stable, indented JSON (trailing newline),
// so identical cases produce identical bytes and diff cleanly in review.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Save writes the artifact to path.
func (a *Artifact) Save(path string) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads an artifact from path, rejecting unknown fields so a typo in
// a hand-edited case fails loudly instead of silently changing the repro.
func Load(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// Decode parses an artifact from JSON bytes.
func Decode(b []byte) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("repro: %v", err)
	}
	if a.Title == "" {
		return nil, fmt.Errorf("repro: artifact missing title")
	}
	return &a, nil
}
