// Package httpsim implements the thin HTTP layer the paper uses to
// interface application and transport (§4.2): GET requests with HTTP range
// headers, and the custom x-voxel-unreliable request header that asks a
// VOXEL-aware server to deliver the response body over a QUIC* unreliable
// stream (announced back via an x-voxel-stream response header). A
// VOXEL-unaware server ignores the header and answers over the reliable
// stream; a VOXEL-unaware client never sends it — the backward-compatible
// matrix §4.2 describes.
//
// Messages use a textual HTTP/1.1-style wire format over QUIC streams; one
// request per stream.
package httpsim

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"voxel/internal/quic"
)

// HeaderUnreliable requests unreliable body delivery.
const HeaderUnreliable = "x-voxel-unreliable"

// HeaderStream announces the unreliable stream carrying the body.
const HeaderStream = "x-voxel-stream"

// Object is server-side content addressable by byte ranges.
type Object interface {
	Size() int64
	// ReadAt returns length bytes at offset. The returned slice is only
	// valid until the next call.
	ReadAt(offset int64, length int) []byte
}

// Handler resolves request paths to objects.
type Handler interface {
	Resolve(path string) (Object, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(path string) (Object, error)

// Resolve implements Handler.
func (f HandlerFunc) Resolve(path string) (Object, error) { return f(path) }

// BytesObject serves a fixed byte slice.
type BytesObject []byte

// Size implements Object.
func (b BytesObject) Size() int64 { return int64(len(b)) }

// ReadAt implements Object.
func (b BytesObject) ReadAt(offset int64, length int) []byte {
	return b[offset : offset+int64(length)]
}

// ZeroObject serves n opaque bytes without materializing them — segment
// payloads whose content is irrelevant to the experiments.
type ZeroObject int64

// Size implements Object.
func (z ZeroObject) Size() int64 { return int64(z) }

// zeroBuf holds the shared all-zero backing slice; it is read and grown via
// atomic loads/stores because concurrent trials serve payloads from it.
var zeroBuf atomic.Value

func init() { zeroBuf.Store(make([]byte, 64<<10)) }

// ReadAt implements Object.
func (z ZeroObject) ReadAt(offset int64, length int) []byte {
	buf := zeroBuf.Load().([]byte)
	if length <= len(buf) {
		return buf[:length]
	}
	n := len(buf)
	for length > n {
		n *= 2
	}
	buf = make([]byte, n)
	zeroBuf.Store(buf)
	return buf[:length]
}

// RangeSpec lists requested [start, end) object ranges, in request order.
// Empty means the whole object.
type RangeSpec [][2]int64

// TotalBytes returns the summed length of the ranges.
func (r RangeSpec) TotalBytes() int64 {
	var n int64
	for _, rr := range r {
		n += rr[1] - rr[0]
	}
	return n
}

// header formatting

func formatRangeHeader(r RangeSpec) string {
	parts := make([]string, len(r))
	for i, rr := range r {
		parts[i] = fmt.Sprintf("%d-%d", rr[0], rr[1]-1)
	}
	return "bytes=" + strings.Join(parts, ",")
}

func parseRangeHeader(v string) (RangeSpec, error) {
	v = strings.TrimPrefix(v, "bytes=")
	var out RangeSpec
	for _, part := range strings.Split(v, ",") {
		d := strings.IndexByte(part, '-')
		if d < 0 {
			return nil, fmt.Errorf("httpsim: malformed range %q", part)
		}
		start, err := strconv.ParseInt(part[:d], 10, 64)
		if err != nil {
			return nil, err
		}
		last, err := strconv.ParseInt(part[d+1:], 10, 64)
		if err != nil {
			return nil, err
		}
		if last < start {
			return nil, fmt.Errorf("httpsim: inverted range %q", part)
		}
		if last == math.MaxInt64 {
			return nil, fmt.Errorf("httpsim: range end overflows %q", part)
		}
		out = append(out, [2]int64{start, last + 1})
	}
	return out, nil
}

func encodeHead(first string, headers map[string]string) []byte {
	var b strings.Builder
	b.WriteString(first)
	b.WriteString("\r\n")
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString(": ")
		b.WriteString(headers[k])
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	return []byte(b.String())
}

func parseHead(data []byte) (first string, headers map[string]string, err error) {
	text := string(data)
	lines := strings.Split(text, "\r\n")
	if len(lines) < 1 || lines[0] == "" {
		return "", nil, fmt.Errorf("httpsim: empty head")
	}
	headers = make(map[string]string)
	for _, l := range lines[1:] {
		if l == "" {
			continue
		}
		c := strings.IndexByte(l, ':')
		if c < 0 {
			return "", nil, fmt.Errorf("httpsim: malformed header %q", l)
		}
		headers[strings.ToLower(strings.TrimSpace(l[:c]))] = strings.TrimSpace(l[c+1:])
	}
	return lines[0], headers, nil
}

// headReader reassembles a message head from stream bytes that may arrive
// out of order. Bytes are buffered with coverage tracking, and the head is
// only looked for in the contiguous prefix: a hole is still zero-filled, so
// searching past it could take a later packet's terminator for the end of
// a head whose start has not arrived yet.
type headReader struct {
	buf []byte
	cov quic.RangeSet
}

// add buffers data at stream offset off. Once the head is complete it
// returns the head's length, terminator included, which is also the stream
// offset where the body starts; until then it returns -1.
func (h *headReader) add(off uint64, data []byte) int {
	need := off + uint64(len(data))
	if n := uint64(len(h.buf)); n < need {
		h.buf = append(h.buf, make([]byte, need-n)...)
	}
	copy(h.buf[off:], data)
	h.cov.Add(off, need)
	return headEnd(h.buf[:h.cov.ContiguousFrom(0)])
}

// body calls fn, in offset order, for each buffered run of bytes past the
// body start; holes stay holes. Offsets are relative to the body start.
func (h *headReader) body(start uint64, fn func(off uint64, data []byte)) {
	for _, cr := range h.cov.Ranges() {
		if cr.End <= start {
			continue
		}
		s := max(cr.Start, start)
		fn(s-start, h.buf[s:cr.End])
	}
}

// headEnd finds the end of the head ("\r\n\r\n"); -1 if incomplete.
func headEnd(data []byte) int {
	idx := bytes.Index(data, []byte("\r\n\r\n"))
	if idx < 0 {
		return -1
	}
	return idx + 4
}
