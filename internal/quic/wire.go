// Package quic implements QUIC*, the paper's partially reliable QUIC
// variant (§4.2): next to ordinary reliable streams it offers unreliable
// streams whose data is congestion- and flow-controlled but never
// retransmitted by the transport. Loss on unreliable streams is detected by
// the sender's ACK machinery and reported to the receiving application
// through a reliable LOSS_REPORT frame, giving the client the "precise
// knowledge about the losses" §4.2 relies on. Packets and frames use a real
// QUIC-style varint wire encoding.
package quic

import (
	"errors"
	"fmt"
)

// Varint encoding per RFC 9000 §16: the two most significant bits of the
// first byte encode the length (1, 2, 4, or 8 bytes).

const (
	maxVarint1 = 63
	maxVarint2 = 16383
	maxVarint4 = 1073741823
	maxVarint8 = 4611686018427387903
)

var errVarint = errors.New("quic: malformed varint")

// appendVarint appends the QUIC varint encoding of v to b.
func appendVarint(b []byte, v uint64) []byte {
	switch {
	case v <= maxVarint1:
		return append(b, byte(v))
	case v <= maxVarint2:
		return append(b, byte(v>>8)|0x40, byte(v))
	case v <= maxVarint4:
		return append(b, byte(v>>24)|0x80, byte(v>>16), byte(v>>8), byte(v))
	case v <= maxVarint8:
		return append(b, byte(v>>56)|0xC0, byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		panic(fmt.Sprintf("quic: varint overflow: %d", v))
	}
}

// consumeVarint decodes a varint from the front of b, returning the value
// and the remaining bytes.
func consumeVarint(b []byte) (uint64, []byte, error) {
	if len(b) == 0 {
		return 0, nil, errVarint
	}
	length := 1 << (b[0] >> 6)
	if len(b) < length {
		return 0, nil, errVarint
	}
	v := uint64(b[0] & 0x3F)
	for i := 1; i < length; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v, b[length:], nil
}

func varintLen(v uint64) int {
	switch {
	case v <= maxVarint1:
		return 1
	case v <= maxVarint2:
		return 2
	case v <= maxVarint4:
		return 4
	default:
		return 8
	}
}

// Frame types. STREAM and USTREAM carry an explicit length and offset; FIN
// is a flag bit on the type byte, as in RFC 9000.
const (
	frameTypePing       = 0x01
	frameTypeAck        = 0x02
	frameTypeMaxData    = 0x10
	frameTypeStream     = 0x08 // reliable stream data; 0x09 with FIN
	frameTypeUStream    = 0x30 // unreliable stream data; 0x31 with FIN
	frameTypeLossReport = 0x38 // sender → receiver: unreliable range lost for good
	finBit              = 0x01
)

// Frame is one QUIC* frame.
type Frame interface {
	// appendTo appends the wire encoding.
	appendTo(b []byte) []byte
	// wireSize returns the encoded size in bytes.
	wireSize() int
	// ackEliciting reports whether the frame must be acknowledged.
	ackEliciting() bool
}

// PingFrame elicits an ACK; used as a PTO probe.
type PingFrame struct{}

func (PingFrame) appendTo(b []byte) []byte { return append(b, frameTypePing) }
func (PingFrame) wireSize() int            { return 1 }
func (PingFrame) ackEliciting() bool       { return true }

// AckRange is a closed interval of acknowledged packet numbers.
type AckRange struct {
	First, Last uint64 // inclusive, First <= Last
}

// AckFrame acknowledges ranges of packet numbers. Ranges are ordered
// descending by packet number, largest first, as in RFC 9000.
type AckFrame struct {
	Ranges []AckRange
}

// Largest returns the largest acknowledged packet number.
func (f *AckFrame) Largest() uint64 {
	if len(f.Ranges) == 0 {
		return 0
	}
	return f.Ranges[0].Last
}

func (f *AckFrame) appendTo(b []byte) []byte {
	b = append(b, frameTypeAck)
	b = appendVarint(b, uint64(len(f.Ranges)))
	for _, r := range f.Ranges {
		b = appendVarint(b, r.First)
		b = appendVarint(b, r.Last)
	}
	return b
}

func (f *AckFrame) wireSize() int {
	n := 1 + varintLen(uint64(len(f.Ranges)))
	for _, r := range f.Ranges {
		n += varintLen(r.First) + varintLen(r.Last)
	}
	return n
}

func (f *AckFrame) ackEliciting() bool { return false }

// MaxDataFrame raises the connection-level flow-control limit.
type MaxDataFrame struct {
	Max uint64
}

func (f *MaxDataFrame) appendTo(b []byte) []byte {
	b = append(b, frameTypeMaxData)
	return appendVarint(b, f.Max)
}
func (f *MaxDataFrame) wireSize() int      { return 1 + varintLen(f.Max) }
func (f *MaxDataFrame) ackEliciting() bool { return true }

// StreamFrame carries stream data. Unreliable reports whether it was sent
// on an unreliable stream (USTREAM wire type); such frames are never
// retransmitted.
type StreamFrame struct {
	StreamID   uint64
	Offset     uint64
	Data       []byte
	Fin        bool
	Unreliable bool
}

func (f *StreamFrame) appendTo(b []byte) []byte {
	t := byte(frameTypeStream)
	if f.Unreliable {
		t = frameTypeUStream
	}
	if f.Fin {
		t |= finBit
	}
	b = append(b, t)
	b = appendVarint(b, f.StreamID)
	b = appendVarint(b, f.Offset)
	b = appendVarint(b, uint64(len(f.Data)))
	return append(b, f.Data...)
}

func (f *StreamFrame) wireSize() int {
	return 1 + varintLen(f.StreamID) + varintLen(f.Offset) +
		varintLen(uint64(len(f.Data))) + len(f.Data)
}

func (f *StreamFrame) ackEliciting() bool { return true }

// streamFrameOverhead bounds the header size of a stream frame, used when
// packing packets.
func streamFrameOverhead(streamID, offset uint64, maxLen int) int {
	return 1 + varintLen(streamID) + varintLen(offset) + varintLen(uint64(maxLen))
}

// LossReportFrame tells the receiver that [Offset, Offset+Length) of an
// unreliable stream was lost and will not be retransmitted by the
// transport. It is itself delivered reliably.
type LossReportFrame struct {
	StreamID uint64
	Offset   uint64
	Length   uint64
}

func (f *LossReportFrame) appendTo(b []byte) []byte {
	b = append(b, frameTypeLossReport)
	b = appendVarint(b, f.StreamID)
	b = appendVarint(b, f.Offset)
	return appendVarint(b, f.Length)
}

func (f *LossReportFrame) wireSize() int {
	return 1 + varintLen(f.StreamID) + varintLen(f.Offset) + varintLen(f.Length)
}

func (f *LossReportFrame) ackEliciting() bool { return true }

// frameDecoder holds the scratch frames decode fills in. The connection
// keeps one for its receive path, so steady-state decoding allocates
// nothing; DecodePacket uses a fresh one per frame to get owned frames.
type frameDecoder struct {
	ack    AckFrame
	max    MaxDataFrame
	stream StreamFrame
	loss   LossReportFrame
}

// decode decodes the frame at the front of b (non-empty) into the
// decoder's scratch and returns it with the bytes after it. This is the
// one place the frame grammar is read. The returned frame is valid until
// the next decode; stream Data aliases b, and ACK ranges grow only as
// their bytes arrive, so a hostile range count cannot force a large
// allocation.
func (d *frameDecoder) decode(b []byte) (Frame, []byte, error) {
	t, b := b[0], b[1:]
	var err error
	switch t {
	case frameTypePing:
		return PingFrame{}, b, nil
	case frameTypeAck:
		var n uint64
		if n, b, err = consumeVarint(b); err != nil {
			return nil, nil, err
		}
		f := &d.ack
		f.Ranges = f.Ranges[:0]
		for ; n > 0; n-- {
			var r AckRange
			if r.First, b, err = consumeVarint(b); err != nil {
				return nil, nil, err
			}
			if r.Last, b, err = consumeVarint(b); err != nil {
				return nil, nil, err
			}
			if r.First > r.Last {
				return nil, nil, fmt.Errorf("quic: invalid ack range %d..%d", r.First, r.Last)
			}
			f.Ranges = append(f.Ranges, r)
		}
		return f, b, nil
	case frameTypeMaxData:
		f := &d.max
		if f.Max, b, err = consumeVarint(b); err != nil {
			return nil, nil, err
		}
		return f, b, nil
	case frameTypeStream, frameTypeStream | finBit, frameTypeUStream, frameTypeUStream | finBit:
		f := &d.stream
		var n uint64
		if f.StreamID, f.Offset, n, b, err = consumeTriple(b); err != nil {
			return nil, nil, err
		}
		if uint64(len(b)) < n {
			return nil, nil, errors.New("quic: truncated stream frame")
		}
		f.Data, b = b[:n:n], b[n:]
		f.Fin, f.Unreliable = t&finBit != 0, t&^finBit == frameTypeUStream
		return f, b, nil
	case frameTypeLossReport:
		f := &d.loss
		if f.StreamID, f.Offset, f.Length, b, err = consumeTriple(b); err != nil {
			return nil, nil, err
		}
		return f, b, nil
	default:
		return nil, nil, fmt.Errorf("quic: unknown frame type 0x%02x", t)
	}
}

// consumeTriple decodes the stream ID, offset and length varints that open
// STREAM and LOSS_REPORT frames.
func consumeTriple(b []byte) (id, off, n uint64, rest []byte, err error) {
	if id, b, err = consumeVarint(b); err != nil {
		return
	}
	if off, b, err = consumeVarint(b); err != nil {
		return
	}
	n, rest, err = consumeVarint(b)
	return
}

// Packet is one QUIC* packet: a packet number followed by frames.
type Packet struct {
	Number uint64
	Frames []Frame
}

// packetHeaderByte marks a short-header 1-RTT packet.
const packetHeaderByte = 0x40

// Encode serializes the packet into a fresh buffer.
func (p *Packet) Encode() []byte {
	return p.AppendTo(make([]byte, 0, p.WireSize()))
}

// AppendTo appends the packet's wire encoding to b and returns the extended
// slice. The transport's hot path uses it with per-connection scratch
// buffers so steady-state sending does not allocate.
func (p *Packet) AppendTo(b []byte) []byte {
	b = append(b, packetHeaderByte)
	b = appendVarint(b, p.Number)
	for _, f := range p.Frames {
		b = f.appendTo(b)
	}
	return b
}

// WireSize returns the encoded size in bytes.
func (p *Packet) WireSize() int {
	n := 1 + varintLen(p.Number)
	for _, f := range p.Frames {
		n += f.wireSize()
	}
	return n
}

// AckEliciting reports whether any frame in the packet elicits an ACK.
func (p *Packet) AckEliciting() bool {
	for _, f := range p.Frames {
		if f.ackEliciting() {
			return true
		}
	}
	return false
}

// decodeHeader splits an encoded packet into its packet number and its
// frame payload.
func decodeHeader(b []byte) (pn uint64, payload []byte, err error) {
	if len(b) == 0 || b[0] != packetHeaderByte {
		return 0, nil, errors.New("quic: bad packet header")
	}
	return consumeVarint(b[1:])
}

// DecodePacket parses an encoded packet into frames that own their memory.
func DecodePacket(b []byte) (*Packet, error) {
	pn, b, err := decodeHeader(b)
	if err != nil {
		return nil, err
	}
	p := &Packet{Number: pn}
	for len(b) > 0 {
		var f Frame
		if f, b, err = new(frameDecoder).decode(b); err != nil {
			return nil, err
		}
		if sf, ok := f.(*StreamFrame); ok {
			sf.Data = append([]byte{}, sf.Data...)
		}
		p.Frames = append(p.Frames, f)
	}
	return p, nil
}
