package exp

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"voxel/internal/trace"
)

func sampleArtifact() *Artifact {
	return &Artifact{
		Document: NewDocument(Config{
			Title:      "BBB",
			System:     SysVoxel,
			Trace:      trace.Verizon(),
			Segments:   6,
			Trials:     2,
			Seed:       4242,
			Impairment: "flaky-wifi",
		}),
		Trial:     1,
		Violation: "quic.byte-conservation",
		Detail:    "sent 100 B != acked 90 B + lost 0 B + inflight 0 B",
	}
}

func TestArtifactEncodeDecodeRoundTrip(t *testing.T) {
	a := sampleArtifact()
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, a)
	}
	// Stable bytes: encoding the decoded artifact reproduces the file.
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("encoding not stable:\n%s\nvs\n%s", b, b2)
	}
	if b[len(b)-1] != '\n' {
		t.Fatal("missing trailing newline")
	}
}

func TestArtifactSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.json")
	a := sampleArtifact()
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("load mismatch: %+v", got)
	}
}

// Unknown fields mean a typo'd hand edit would silently change the repro;
// reject them loudly instead, at the top level and inside the config. A
// metric outside ssim/vmaf/psnr is refused the same way.
func TestArtifactDecodeRejectsUnknownFields(t *testing.T) {
	for _, in := range []string{
		`{"config":{"title":"BBB"},"trial":0,"sead":7}`,
		`{"config":{"title":"BBB","sead":7},"trial":0}`,
		`{"config":{"title":"BBB"},"trace":{"name":"verizon","hash":"","sead":7}}`,
		`{"config":{"title":"BBB","metric":"mos"}}`,
	} {
		if _, err := DecodeArtifact([]byte(in)); err == nil {
			t.Fatalf("accepted %s", in)
		}
	}
}

func TestArtifactDecodeRequiresTitle(t *testing.T) {
	if _, err := DecodeArtifact([]byte(`{"config":{"seed":7},"trial":0}`)); err == nil {
		t.Fatal("artifact without title accepted")
	}
}

// Zero-valued knobs stay off disk so shrunk artifacts read minimally.
func TestArtifactEncodeOmitsDefaults(t *testing.T) {
	b, err := (&Artifact{Document: Document{Config: Config{Title: "BBB"}}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"impairment", "failover", "cc", "sessions", "inject", "trace", "violation"} {
		if bytes.Contains(b, []byte(field)) {
			t.Fatalf("zero-valued %q serialized:\n%s", field, b)
		}
	}
}

// FuzzDecodeArtifact feeds arbitrary bytes to the crash-artifact decoder.
// It must never panic; whatever it accepts must re-encode to bytes that
// decode to the same artifact; and it must keep refusing an unknown field
// and a missing title.
func FuzzDecodeArtifact(f *testing.F) {
	sample, err := sampleArtifact().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, in := range []string{
		`{"config":{"title":"BBB"},"trial":0}`,
		`{"config":{"title":"BBB"},"trial":0,"sead":7}`,
		`{"config":{"seed":7},"trial":0}`,
		`{"config":{"title":"BBB","metric":"psnr","cross_traffic":5e6,"max_sim_time":-1},"trace":null}`,
		`{"config":{"title":"ÿ","watchdog_events":18446744073709551615},"trial":-3,"detail":"x"}`,
		`{"config":{"title":"BBB","metric":2}}`,
		`[]`,
		``,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := DecodeArtifact(b)
		if err != nil {
			return
		}
		enc, err := a.Encode()
		if err != nil {
			t.Fatalf("decoded artifact does not encode: %v", err)
		}
		again, err := DecodeArtifact(enc)
		if err != nil {
			t.Fatalf("re-encoded artifact refused: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(a, again) {
			t.Fatalf("re-encode changed the artifact:\n%+v\n%+v", a, again)
		}
		if _, err := DecodeArtifact(append([]byte(`{"sead":7,`), enc[1:]...)); err == nil {
			t.Fatalf("unknown field accepted alongside %s", enc)
		}
		untitled := *a
		untitled.Config.Title = ""
		if b, err := untitled.Encode(); err != nil {
			t.Fatal(err)
		} else if _, err := DecodeArtifact(b); err == nil {
			t.Fatalf("untitled artifact accepted: %s", b)
		}
	})
}
