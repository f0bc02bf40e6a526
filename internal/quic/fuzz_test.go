package quic

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzRangeSet drives the interval set against a brute-force byte-map
// model. The fuzz input is a script of Add operations decoded as
// (start, length) pairs; after each step every query — Contains, Gaps,
// CoveredBytes, ContiguousFrom, Min/Max, and the well-formedness of
// Ranges() — must agree with the model.
//
// Run with: go test -fuzz FuzzRangeSet ./internal/quic
func FuzzRangeSet(f *testing.F) {
	f.Add([]byte{0, 4, 8, 4, 4, 4})        // [0,4) [8,12) then bridge [4,8)
	f.Add([]byte{0, 0, 1, 1, 1, 1})        // empty add, duplicate adds
	f.Add([]byte{10, 5, 0, 30, 2, 2})      // add swallowed by a superset
	f.Add([]byte{250, 10, 0, 1, 255, 255}) // near the scripted byte limits
	f.Fuzz(func(t *testing.T, script []byte) {
		const horizon = 1 << 10 // model window; scripted offsets stay far below
		var s RangeSet
		model := make([]bool, horizon)
		for len(script) >= 2 {
			start := uint64(script[0]) * 2
			length := uint64(script[1])
			script = script[2:]
			end := start + length
			s.Add(start, end)
			for b := start; b < end && b < horizon; b++ {
				model[b] = true
			}
			verifyAgainstModel(t, &s, model)
		}
	})
}

func verifyAgainstModel(t *testing.T, s *RangeSet, model []bool) {
	t.Helper()
	var covered uint64
	for _, c := range model {
		if c {
			covered++
		}
	}
	if got := s.CoveredBytes(); got != covered {
		t.Fatalf("CoveredBytes = %d, model %d", got, covered)
	}
	// Ranges() must be sorted, non-empty, non-adjacent, and match the model.
	prevEnd := uint64(0)
	for i, r := range s.Ranges() {
		if r.End <= r.Start {
			t.Fatalf("range %d empty: %+v", i, r)
		}
		if i > 0 && r.Start <= prevEnd {
			t.Fatalf("range %d not coalesced/sorted: %+v after end %d", i, r, prevEnd)
		}
		prevEnd = r.End
	}
	for b := uint64(0); b < uint64(len(model)); b++ {
		if got := s.Contains(b, b+1); got != model[b] {
			t.Fatalf("Contains(%d) = %v, model %v", b, got, model[b])
		}
	}
	// Gaps over the full window are exactly the model's uncovered runs.
	want := uncoveredRuns(model)
	got := s.Gaps(0, uint64(len(model)))
	if len(got) != len(want) {
		t.Fatalf("Gaps: %d runs, model %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("gap %d = %+v, model %+v", i, got[i], want[i])
		}
	}
	// ContiguousFrom(0) is the model's leading covered run.
	lead := uint64(0)
	for lead < uint64(len(model)) && model[lead] {
		lead++
	}
	if got := s.ContiguousFrom(0); got != lead {
		t.Fatalf("ContiguousFrom(0) = %d, model %d", got, lead)
	}
}

func uncoveredRuns(model []bool) []ByteRange {
	var runs []ByteRange
	for b := 0; b < len(model); {
		if model[b] {
			b++
			continue
		}
		start := b
		for b < len(model) && !model[b] {
			b++
		}
		runs = append(runs, ByteRange{Start: uint64(start), End: uint64(b)})
	}
	return runs
}

// FuzzRangeSetWide exercises offsets across the full uint64 domain, where
// a byte-map model is impossible: only the structural invariants and
// conservation between CoveredBytes and Ranges are checked (overflowing
// start+length pairs are skipped — the caller contract is end >= start).
func FuzzRangeSetWide(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s RangeSet
		for len(raw) >= 10 {
			start := binary.LittleEndian.Uint64(raw[:8])
			length := uint64(binary.LittleEndian.Uint16(raw[8:10]))
			raw = raw[10:]
			if start+length < start {
				continue
			}
			s.Add(start, start+length)
			var covered uint64
			prevEnd := uint64(0)
			for i, r := range s.Ranges() {
				if r.End <= r.Start {
					t.Fatalf("range %d empty: %+v", i, r)
				}
				if i > 0 && r.Start <= prevEnd {
					t.Fatalf("range %d overlaps/adjacent: %+v after %d", i, r, prevEnd)
				}
				prevEnd = r.End
				covered += r.End - r.Start
			}
			if got := s.CoveredBytes(); got != covered {
				t.Fatalf("CoveredBytes = %d, ranges sum %d", got, covered)
			}
		}
	})
}

// FuzzDecodePacket drives the one frame decoder through both of its
// callers. No input may panic; a packet DecodePacket accepts must re-encode
// to bytes that decode to an equal packet; and Conn.receive on a live
// connection must accept exactly what DecodePacket accepts, leaving the
// packet count, ACK state and stream map untouched on a rejected packet.
//
// Run with: go test -fuzz FuzzDecodePacket ./internal/quic
func FuzzDecodePacket(f *testing.F) {
	pkt := roundTripPacket()
	f.Add(pkt.Encode())
	for _, fr := range pkt.Frames {
		f.Add((&Packet{Number: pkt.Number, Frames: []Frame{fr}}).Encode())
	}
	f.Add(ackRangeCountCrash)
	f.Fuzz(func(t *testing.T, b []byte) {
		pkt, err := DecodePacket(b)
		if err == nil {
			again, err := DecodePacket(pkt.Encode())
			if err != nil {
				t.Fatalf("re-encoded packet does not decode: %v", err)
			}
			if again.Number != pkt.Number || !framesEqual(again.Frames, pkt.Frames) {
				t.Fatalf("round trip changed the packet:\n got %#v\nwant %#v", again, pkt)
			}
		}
		c := liveReceiver(t)
		before := rxSnapshot(c)
		c.receive(b)
		after := rxSnapshot(c)
		switch {
		case err != nil && !reflect.DeepEqual(after, before):
			t.Fatalf("receive acted on a packet DecodePacket rejects (%v):\n got %+v\nwant %+v", err, after, before)
		case err == nil && after.Received != before.Received+1:
			t.Fatalf("receive dropped a packet DecodePacket accepts")
		}
	})
}
