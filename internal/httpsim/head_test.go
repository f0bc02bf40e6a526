package httpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/quic"
	"voxel/internal/sim"
)

// holdFirst delays a link's first datagram so the ones after it overtake it.
type holdFirst struct {
	seen  int
	delay sim.Time
}

func (h *holdFirst) Apply(now sim.Time, rng *rand.Rand, f *netem.Fate) {
	h.seen++
	if h.seen == 1 {
		f.ExtraDelay += h.delay
	}
}

// A request head that spans several packets must be parsed only once all
// of it is in, whatever order its packets arrive in. A VOXEL body request
// with 200 ranges makes a ~2.8 KB head; holding back its first packet makes
// the terminator arrive before the request line.
func TestServerReassemblesReorderedHead(t *testing.T) {
	fx := newFixture(t, 10, 32, map[string]Object{"/v": ZeroObject(1 << 20)}, ServerOptions{})
	fx.path.Up.Impair(&holdFirst{delay: 200 * time.Millisecond}, 1)
	var ranges RangeSpec
	for i := int64(0); i < 200; i++ {
		ranges = append(ranges, [2]int64{i * 4000, i*4000 + 100})
	}
	if n := len(formatRangeHeader(ranges)); n <= 2*1200 {
		t.Fatalf("range header is %d bytes; the head must span several packets", n)
	}
	resp := fx.client.Get("/v", ranges, true)
	var done bool
	resp.OnComplete = func() { done = true }
	fx.s.RunUntil(10 * time.Second)
	if resp.Status != 206 || resp.BodyLen != ranges.TotalBytes() {
		t.Fatalf("status %d, content-length %d; want 206, %d", resp.Status, resp.BodyLen, ranges.TotalBytes())
	}
	if !done || resp.BytesReceived() != ranges.TotalBytes() {
		t.Fatalf("done=%v received=%d of %d", done, resp.BytesReceived(), ranges.TotalBytes())
	}
}

// FuzzHeadReader feeds a message to the head reader in chunks, in an order
// the fuzzer picks, and requires the head and body an in-order feed yields.
// The body is collected the way Response.onReliableData does it: the runs
// buffered when the head completes, then every later chunk past the head.
// The range-header codec is checked on the same input.
func FuzzHeadReader(f *testing.F) {
	f.Add([]byte("GET /a HTTP/1.1\r\nrange: bytes=0-9,20-29\r\n\r\nbody bytes"), []byte{3, 1, 4, 1, 5, 9})
	f.Add([]byte("HTTP/1.1 206 Partial Content\r\ncontent-length: 4\r\n\r\n\r\n\r\n"), []byte{0, 7, 2})
	f.Add([]byte("bytes=0-906,2000-2000"), []byte{})
	f.Add([]byte("no terminator\r\n"), []byte{1})
	f.Fuzz(func(t *testing.T, msg, plan []byte) {
		if len(msg) > 8<<10 {
			// Heads here are a few KB; longer inputs only slow the
			// quadratic out-of-order RangeSet inserts down.
			return
		}
		var ref headReader
		want := ref.add(0, msg)

		// Cut msg into chunks of plan-chosen lengths and shuffle them.
		type chunk struct {
			off  int
			data []byte
		}
		var chunks []chunk
		for off, i := 0, 0; off < len(msg); i++ {
			n := 1
			if len(plan) > 0 {
				n += int(plan[i%len(plan)])
			}
			n = min(n, len(msg)-off)
			chunks = append(chunks, chunk{off, msg[off : off+n]})
			off += n
		}
		for i := len(chunks) - 1; i > 0 && len(plan) > 0; i-- {
			j := int(plan[(i*7)%len(plan)]) % (i + 1)
			chunks[i], chunks[j] = chunks[j], chunks[i]
		}

		var h headReader
		end := -1
		body := make([]byte, len(msg))
		var got quic.RangeSet
		deliver := func(off uint64, data []byte) {
			copy(body[off:], data)
			got.Add(off, off+uint64(len(data)))
		}
		for _, c := range chunks {
			if end < 0 {
				if end = h.add(uint64(c.off), c.data); end >= 0 {
					if !bytes.Equal(h.buf[:end], msg[:end]) {
						t.Fatalf("head %q, want %q", h.buf[:end], msg[:end])
					}
					parseHead(h.buf[:end])
					h.body(uint64(end), deliver)
				}
				continue
			}
			if e := c.off + len(c.data); e > end {
				s := max(c.off, end)
				deliver(uint64(s-end), c.data[s-c.off:])
			}
		}
		if end != want {
			t.Fatalf("head ends at %d out of order, %d in order", end, want)
		}
		if end >= 0 {
			n := len(msg) - end
			if !got.Contains(0, uint64(n)) || !bytes.Equal(body[:n], msg[end:]) {
				t.Fatalf("body %q, want %q", body[:n], msg[end:])
			}
		}

		spec, err := parseRangeHeader(string(msg))
		if err != nil {
			return
		}
		for _, r := range spec {
			if r[0] < 0 || r[1] <= r[0] {
				t.Fatalf("parsed range %v from %q", r, msg)
			}
		}
		again, err := parseRangeHeader(formatRangeHeader(spec))
		if err != nil || len(again) != len(spec) {
			t.Fatalf("round trip of %v: %v, %v", spec, again, err)
		}
		for i := range spec {
			if again[i] != spec[i] {
				t.Fatalf("round trip of %v: %v", spec, again)
			}
		}
	})
}
