package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"voxel/internal/trace"
)

// Document is the one serialized form of an experiment (the flag table
// below is its command-line form): the normalized Config — every field
// that changes trial results, with the execution-only ones (shard
// coordinates, parallelism, interrupt plumbing) cleared — plus a reference
// to its trace, which the Config's JSON leaves out. Sweep checkpoints embed
// it as their identity and crash artifacts as their configuration. Because
// the config is embedded whole, a new Config field joins both without any
// change here.
type Document struct {
	Config Config    `json:"config"`
	Trace  *TraceRef `json:"trace,omitempty"`
}

// TraceRef records a trace by name, a sha256 of its sample bits (so a
// CSV-loaded trace, which has no canonical name, still fingerprints
// exactly), and its ByName key when it is exactly a canonical trace.
type TraceRef struct {
	Name      string `json:"name"`
	Hash      string `json:"hash"`
	Canonical string `json:"canonical,omitempty"`
}

// NewDocument describes cfg.
func NewDocument(cfg Config) Document {
	d := Document{Config: cfg.Normalized()}
	if t := d.Config.Trace; t != nil {
		d.Trace = &TraceRef{Name: t.Name(), Hash: hashSamples(t.Samples())}
		d.Trace.Canonical, _ = trace.CanonicalName(t)
		d.Config.Trace = nil
	}
	return d
}

// hashSamples hashes the samples' little-endian IEEE bits.
func hashSamples(xs []float64) string {
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, xs) // a hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint hashes the document's JSON. encoding/json renders struct
// fields in declaration order and floats in shortest exact form, so equal
// documents always hash equal.
func (d Document) Fingerprint() string {
	b, err := json.Marshal(d)
	if err != nil {
		// Only an out-of-range Metric fails to marshal, and Validate
		// refuses it before any sweep is fingerprinted.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Resolve rebuilds the runnable config. Only a canonical trace can be
// rebuilt, and only when its samples still hash as recorded; a shifted
// copy keeps the canonical name but not the samples, so it has no key.
func (d Document) Resolve() (Config, error) {
	cfg := d.Config
	if r := d.Trace; r != nil {
		if r.Canonical == "" {
			return Config{}, fmt.Errorf("exp: trace %q has no canonical name", r.Name)
		}
		tr, err := trace.ByName(r.Canonical)
		if err != nil {
			return Config{}, err
		}
		if hashSamples(tr.Samples()) != r.Hash {
			return Config{}, fmt.Errorf("exp: rebuilt trace %q does not match stored hash", r.Canonical)
		}
		cfg.Trace = tr
	}
	return cfg, nil
}

// configFlag binds one voxel-sim config flag to Config. def is the flag's
// default and fixes its type (string, int, int64, float64 or bool), so the
// flag registers as the flag package's own kind and -h prints it as such;
// get reads the field as that type, set stores a parsed value. An exec
// (execution-only) flag is never part of a replay command.
type configFlag struct {
	name, usage string
	def         any
	exec        bool
	get         func(c *Config) any
	set         func(c *Config, v any) error
}

// field binds a flag straight to a Config field of the flag's own type.
func field[T string | int | int64 | bool](name string, def T, usage string, p func(*Config) *T) configFlag {
	return configFlag{name: name, def: def, usage: usage,
		get: func(c *Config) any { return *p(c) },
		set: func(c *Config, v any) error { *p(c) = v.(T); return nil }}
}

// crossLink is the fixed link capacity -cross streams through.
const crossLink = 20e6

// defaultTrace is the trace voxel-sim streams over when -trace is absent.
const defaultTrace = "verizon"

// configFlags is the one table of voxel-sim's config flags. voxel-sim
// registers it (RegisterFlags) and ReplayCommand prints a failing config
// through it, so each flag is spelled here and nowhere else. Rows apply in
// order: -cross precedes -trace because cross traffic replaces the trace.
func configFlags() []configFlag {
	return []configFlag{
		{name: "title", def: "BBB", usage: "video title",
			get: func(c *Config) any { return c.Title },
			set: func(c *Config, v any) error {
				if c.Title = v.(string); c.Title == "" {
					return fmt.Errorf("missing title")
				}
				return nil
			}},
		field("system", string(SysVoxel), "system: BOLA/Q, BOLA/Q*, MPC/Q, MPC/Q*, Tput/Q, Tput/Q*, BETA, BOLA-SSIM, VOXEL, VOXEL-rel, VOXEL-untuned",
			func(c *Config) *string { return (*string)(&c.System) }),
		{name: "cross", def: 0.0, usage: "cross-traffic load in Mbps over a 20 Mbps link (replaces the trace)",
			get: func(c *Config) any { return c.CrossTraffic / 1e6 },
			set: func(c *Config, v any) error {
				if mbps := v.(float64); mbps > 0 {
					c.CrossTraffic, c.LinkCapacity = mbps*1e6, crossLink
				}
				return nil
			}},
		{name: "trace", def: defaultTrace, usage: "trace: tmobile, verizon, att, 3g, fcc, wild",
			get: func(c *Config) any {
				if c.Trace == nil || c.CrossTraffic > 0 {
					return defaultTrace // ReplayCommand reports a nil trace
				}
				if name, ok := trace.CanonicalName(c.Trace); ok {
					return name
				}
				// Not ByName's to resolve: the replay fails loudly instead
				// of silently running a different trace.
				return "custom:" + c.Trace.Name()
			},
			set: func(c *Config, v any) (err error) {
				if c.CrossTraffic <= 0 {
					c.Trace, err = trace.ByName(v.(string))
				}
				return err
			}},
		{name: "metric", def: "ssim", usage: "QoE metric: ssim, vmaf, psnr",
			get: func(c *Config) any {
				b, _ := c.Metric.MarshalText()
				return string(b)
			},
			set: func(c *Config, v any) error { return c.Metric.UnmarshalText([]byte(v.(string))) }},
		field("buffer", 3, "playback buffer in segments", func(c *Config) *int { return &c.BufferSegments }),
		field("segments", 0, "limit segment count (0 = full 75)", func(c *Config) *int { return &c.Segments }),
		field("trials", 10, "trials (paper: 30)", func(c *Config) *int { return &c.Trials }),
		field("seed", int64(1), "random seed", func(c *Config) *int64 { return &c.Seed }),
		field("queue", 32, "router queue in packets (750 = long-queue appendix)", func(c *Config) *int { return &c.QueuePackets }),
		{name: "sessions", def: 1, usage: "concurrent video sessions per trial sharing one bottleneck (swarm mode)",
			get: func(c *Config) any { return c.sessions() }, // 0 and 1 both run one session
			set: func(c *Config, v any) error { c.Sessions = v.(int); return nil }},
		field("impair", "", "impairment profile: clean, bursty, flaky-wifi, handover-blackout",
			func(c *Config) *string { return &c.Impairment }),
		field("failover", false, "add a second origin and permanently blackhole the primary path mid-stream",
			func(c *Config) *bool { return &c.Failover }),
		field("inject", "", "schedule a deliberate fault: panic, invariant, or spin, optionally @trial (tests the failure pipeline)",
			func(c *Config) *string { return &c.Inject }),
		field("invariants", false, "arm the cross-layer invariant checker; a violation fails the trial with a replayable error",
			func(c *Config) *bool { return &c.Invariants }),
		{name: "parallel", def: runtime.GOMAXPROCS(0), exec: true,
			usage: "concurrent trial workers (1 = sequential; results are identical either way)",
			set:   func(c *Config, v any) error { c.Parallelism = v.(int); return nil }},
		{name: "shard", def: "", exec: true,
			usage: "run only shard i of an n-way campaign (\"i/n\", e.g. 0/4); fold the shard outputs with voxel-merge",
			set: func(c *Config, v any) (err error) {
				if spec := v.(string); spec != "" {
					c.ShardIndex, c.ShardCount, err = ParseShard(spec)
				}
				return err
			}},
	}
}

// RegisterFlags defines voxel-sim's config flags on fs. After fs.Parse, the
// returned function builds the Config they spell.
func RegisterFlags(fs *flag.FlagSet) func() (Config, error) {
	rows := configFlags()
	for _, r := range rows {
		switch d := r.def.(type) {
		case string:
			fs.String(r.name, d, r.usage)
		case int:
			fs.Int(r.name, d, r.usage)
		case int64:
			fs.Int64(r.name, d, r.usage)
		case float64:
			fs.Float64(r.name, d, r.usage)
		case bool:
			fs.Bool(r.name, d, r.usage)
		}
	}
	return func() (Config, error) {
		var c Config
		for _, r := range rows {
			if err := r.set(&c, fs.Lookup(r.name).Value.(flag.Getter).Get()); err != nil {
				return Config{}, fmt.Errorf("-%s: %v", r.name, err)
			}
		}
		return c, nil
	}
}

// ReplayCommand returns a copy-pasteable voxel-sim invocation that
// deterministically reproduces the failing sweep (the failure fires at the
// same trial index, since trials are independent worlds keyed by seed). It
// prints each config flag whose value differs from its default; values no
// flag can express are named in a trailing shell comment, and only the
// crash artifact replays those.
func (e *TrialError) ReplayCommand() string {
	c := e.Config
	cmd := "go run ./cmd/voxel-sim"
	for _, r := range configFlags() {
		if r.exec {
			continue
		}
		switch v := r.get(&c); {
		case v == r.def:
		case v == true: // every bool flag defaults to false
			cmd += " -" + r.name
		default:
			cmd += " -" + r.name + " " + shellQuote(fmt.Sprint(v))
		}
	}
	var lost []string
	if c.CC != "" {
		lost = append(lost, "cc="+c.CC)
	}
	if c.LinkCapacity != 0 && c.LinkCapacity != crossLink {
		lost = append(lost, fmt.Sprintf("link_capacity=%g", c.LinkCapacity))
	}
	if c.MaxSimTime != 0 {
		lost = append(lost, "max_sim_time="+c.MaxSimTime.String())
	}
	if c.Trace == nil && c.CrossTraffic <= 0 {
		lost = append(lost, "trace=nil")
	}
	if len(lost) > 0 {
		cmd += "  # no flag for: " + strings.Join(lost, ", ")
	}
	return cmd
}

// shellQuote leaves a word made only of shell-safe characters alone and
// single-quotes anything else.
func shellQuote(s string) string {
	if s != "" && strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789@%+=:,./_-") == "" {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

// ParseShard parses an "i/n" spec: shard i of n, with 0 ≤ i < n and n ≥ 1.
func ParseShard(spec string) (index, count int, err error) {
	a, b, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard spec %q is not i/n", spec)
	}
	if index, err = strconv.Atoi(strings.TrimSpace(a)); err != nil {
		return 0, 0, fmt.Errorf("shard index %q: %v", a, err)
	}
	if count, err = strconv.Atoi(strings.TrimSpace(b)); err != nil {
		return 0, 0, fmt.Errorf("shard count %q: %v", b, err)
	}
	if count < 1 {
		return 0, 0, fmt.Errorf("shard count %d must be at least 1", count)
	}
	if index < 0 || index >= count {
		return 0, 0, fmt.Errorf("shard index %d out of range [0, %d)", index, count)
	}
	return index, count, nil
}
