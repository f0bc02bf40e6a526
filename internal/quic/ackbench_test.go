package quic

import (
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

// benchSender returns a server-side Conn (the data sender in the experiment
// topology) with a warmed RTT estimate, without running any traffic.
func benchSender(s *sim.Sim) *Conn {
	tr := trace.Constant("bench", 50e6, 3600)
	path := netem.NewPath(s, tr, 64)
	_, server := NewPair(s, path, Config{}, Config{})
	server.rtt.OnSample(60 * time.Millisecond)
	return server
}

// benchTrack registers sp as in flight, mirroring what sendOnePacket does.
func benchTrack(c *Conn, sp *sentPacket) {
	c.sentQ.push(sp)
}

// BenchmarkOnAckSlidingWindow models the steady state of a bulk transfer:
// a ~512-packet window where each arriving ACK acknowledges the two oldest
// packets (the receiver reports its whole history as one range, as buildAck
// does) while two new packets enter flight. This is the exact shape that
// made the map-based onAck O(window) per ACK.
func BenchmarkOnAckSlidingWindow(b *testing.B) {
	s := sim.New(1)
	c := benchSender(s)
	const window = 512
	next := uint64(0)
	fill := func(k int) {
		for i := 0; i < k; i++ {
			sp := c.allocSent()
			sp.pn, sp.size, sp.sentAt = next, 1252, s.Now()
			benchTrack(c, sp)
			c.lastAckElic = s.Now()
			next++
		}
	}
	fill(window)
	acked := uint64(0)
	ack := &AckFrame{Ranges: []AckRange{{First: 0, Last: 0}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acked += 2
		ack.Ranges[0] = AckRange{First: 0, Last: acked - 1}
		c.onAck(ack)
		fill(2)
	}
}

// BenchmarkOnAckReordered acknowledges with a gapped two-range ACK so the
// newly-acked set is not a pure prefix of the in-flight window.
func BenchmarkOnAckReordered(b *testing.B) {
	s := sim.New(2)
	c := benchSender(s)
	const window = 256
	next := uint64(0)
	fill := func(k int) {
		for i := 0; i < k; i++ {
			sp := c.allocSent()
			sp.pn, sp.size, sp.sentAt = next, 1252, s.Now()
			benchTrack(c, sp)
			c.lastAckElic = s.Now()
			next++
		}
	}
	fill(window)
	acked := uint64(0)
	ack := &AckFrame{Ranges: []AckRange{{}, {}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Ack [acked+1, acked+2] but leave packet `acked` outstanding, then
		// close the gap on the next iteration.
		ack.Ranges[0] = AckRange{First: acked + 1, Last: acked + 2}
		ack.Ranges[1] = AckRange{First: 0, Last: acked}
		c.onAck(ack)
		acked += 3
		fill(3)
	}
}

// BenchmarkDetectLossPath exercises the loss-declaration walk: a window
// where the packet threshold declares the three oldest packets lost on
// every ACK of the frontier.
func BenchmarkDetectLossPath(b *testing.B) {
	s := sim.New(3)
	c := benchSender(s)
	const window = 256
	next := uint64(0)
	fill := func(k int) {
		for i := 0; i < k; i++ {
			sp := c.allocSent()
			sp.pn, sp.size, sp.sentAt = next, 1252, s.Now()
			benchTrack(c, sp)
			c.lastAckElic = s.Now()
			next++
		}
	}
	fill(window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Ack only the newest packet: everything ≥3 behind it is declared
		// lost by packet threshold and requeued.
		ack := &AckFrame{Ranges: []AckRange{{First: next - 1, Last: next - 1}}}
		c.onAck(ack)
		// Drain the requeued retransmissions so queues stay bounded.
		c.retransmit = c.retransmit[:0]
		c.ctrlQ = c.ctrlQ[:0]
		fill(window - sentCount(c))
	}
}

// sentCount reports the number of packets tracked in flight.
func sentCount(c *Conn) int {
	return c.sentQ.size()
}

// BenchmarkPacketEncodeScratch measures encoding a full-size data packet
// into a reused buffer.
func BenchmarkPacketEncodeScratch(b *testing.B) {
	pkt := &Packet{
		Number: 1 << 20,
		Frames: []Frame{
			&AckFrame{Ranges: []AckRange{{100, 200}, {10, 50}}},
			&StreamFrame{StreamID: 4, Offset: 1 << 20, Data: make([]byte, 1100)},
		},
	}
	buf := make([]byte, 0, pkt.WireSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = pkt.AppendTo(buf[:0])
	}
	_ = buf
}
