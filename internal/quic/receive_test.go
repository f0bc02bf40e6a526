package quic

import (
	"reflect"
	"testing"
	"time"

	"voxel/internal/sim"
)

// rxState is the receiver state a packet may only touch once it has been
// validated in full.
type rxState struct {
	Received   uint64
	PNs        []ByteRange
	AckPending bool
	AckElic    int
	Streams    int
	SendLimit  uint64
}

func rxSnapshot(c *Conn) rxState {
	return rxState{
		Received:   c.stats.PacketsReceived,
		PNs:        append([]ByteRange(nil), c.recvdPNs.Ranges()...),
		AckPending: c.ackPending,
		AckElic:    c.ackElicCount,
		Streams:    len(c.streams),
		SendLimit:  c.sendLimit,
	}
}

// liveReceiver returns the client end of a pair that has already carried a
// short reliable transfer, so its ACK state and stream map are non-empty.
func liveReceiver(t *testing.T) *Conn {
	s := sim.New(31)
	client, server := testPair(t, s, 10, 32)
	client.OnStream(func(*Stream) {})
	st := server.OpenStream(false)
	st.Write(payload(4000))
	st.CloseWrite()
	s.RunUntil(time.Second)
	if len(client.streams) == 0 || client.stats.PacketsReceived == 0 {
		t.Fatal("priming transfer did not reach the client")
	}
	return client
}

// TestCorruptPacketDroppedAtomically sends packets whose first frame is
// valid and whose second is truncated: the receiver must not act on the
// valid prefix.
func TestCorruptPacketDroppedAtomically(t *testing.T) {
	truncated := []byte{frameTypeStream, 0, 0, 5, 1, 2} // 5 bytes promised, 2 sent
	for _, first := range []Frame{
		&MaxDataFrame{Max: 1 << 40},
		&StreamFrame{StreamID: 9, Data: []byte("new stream")},
	} {
		c := liveReceiver(t)
		valid := (&Packet{Number: 1000, Frames: []Frame{first}}).Encode()
		before := rxSnapshot(c)
		c.receive(append(append([]byte(nil), valid...), truncated...))
		if after := rxSnapshot(c); !reflect.DeepEqual(after, before) {
			t.Fatalf("%T then a truncated frame changed receiver state:\n got %+v\nwant %+v", first, after, before)
		}
		c.receive(valid)
		if after := rxSnapshot(c); reflect.DeepEqual(after, before) {
			t.Fatalf("%T alone left receiver state unchanged; the check above is vacuous", first)
		}
	}
}

// TestReceiveAllocFree pins the steady-state receive path at 0 allocs/op:
// the packet is decoded twice into per-connection scratch, dispatched in
// place, and the ACK it elicits leaves through a pooled outgoing packet.
// The stream data and the reported loss are already known, so the stream
// layer has no new range to record.
func TestReceiveAllocFree(t *testing.T) {
	s := sim.New(32)
	_, c := testPair(t, s, 10, 8)
	pkt := (&Packet{Number: 0, Frames: []Frame{
		&AckFrame{Ranges: []AckRange{{First: 0, Last: 0}}},
		&StreamFrame{StreamID: 0, Data: payload(1000), Unreliable: true},
		&LossReportFrame{StreamID: 0, Offset: 100, Length: 200},
	}}).Encode()
	for i := 0; i < 64; i++ { // fill the link queue and warm the pools
		c.receive(pkt)
	}
	allocs := testing.AllocsPerRun(200, func() { c.receive(pkt) })
	if allocs > 0 {
		t.Fatalf("receive allocates %.1f allocs/op, want 0", allocs)
	}
	if c.stats.PacketsReceived < 200 || len(c.streams) != 1 {
		t.Fatalf("packets were not accepted: %+v", rxSnapshot(c))
	}
}
