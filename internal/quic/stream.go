package quic

// Stream is a QUIC* stream. Reliable streams deliver every byte; unreliable
// streams (the QUIC* extension) deliver what survives the network, with
// transport-level loss reported through LOSS_REPORT frames.
//
// The API is event-driven to match the discrete-event simulator: receivers
// register callbacks instead of blocking on Read.
type Stream struct {
	conn       *Conn
	id         uint64
	unreliable bool

	// send state. Queued bytes live in the chunks handed to Write (one
	// exact-size copy each); nextFrame slices frames straight out of the
	// head chunk instead of re-copying, so a chunk is shared read-only with
	// the frames cut from it until the garbage collector sees the last one.
	sendChunks [][]byte // chunks not yet fully packetized
	sendPos    int      // consumed bytes of sendChunks[0]
	sendLen    int      // total unpacketized bytes across all chunks
	sendBase   uint64   // stream offset of the next byte to packetize
	finQueued  bool     // CloseWrite called
	finSent    bool
	finOffset  uint64

	// receive state
	received   RangeSet
	lost       RangeSet // from LOSS_REPORT frames (unreliable only)
	finalKnown bool
	finalSize  uint64

	onData  func(offset uint64, data []byte)
	onLost  func(offset, length uint64)
	onFin   func(finalSize uint64)
	doneFin bool
}

// ID returns the stream ID. Client-initiated streams are even, server-
// initiated odd.
func (s *Stream) ID() uint64 { return s.id }

// Unreliable reports whether this is an unreliable (QUIC*) stream.
func (s *Stream) Unreliable() bool { return s.unreliable }

// Write queues data for transmission. The data is copied.
func (s *Stream) Write(data []byte) {
	if s.finQueued {
		panic("quic: Write after CloseWrite")
	}
	if len(data) == 0 {
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.sendChunks = append(s.sendChunks, cp)
	s.sendLen += len(cp)
	s.conn.markActive(s)
}

// CloseWrite queues the FIN: no more data will be written.
func (s *Stream) CloseWrite() {
	if s.finQueued {
		return
	}
	s.finQueued = true
	s.conn.markActive(s)
}

// OnData registers the receive callback; it fires once per arriving stream
// frame with that frame's offset and payload. Frames can arrive out of
// order; duplicate bytes are suppressed.
func (s *Stream) OnData(fn func(offset uint64, data []byte)) { s.onData = fn }

// OnLost registers the loss callback for unreliable streams; it fires when
// the peer's transport gives up on a range.
func (s *Stream) OnLost(fn func(offset, length uint64)) { s.onLost = fn }

// OnFin registers the finalization callback; it fires once the FIN arrived
// and, for reliable streams, every byte is in — for unreliable streams it
// fires when every byte is either received or reported lost.
func (s *Stream) OnFin(fn func(finalSize uint64)) {
	s.onFin = fn
	s.maybeFin()
}

// Received returns the receive-side coverage set (read-only).
func (s *Stream) Received() *RangeSet { return &s.received }

// Lost returns the ranges reported permanently lost (read-only).
func (s *Stream) Lost() *RangeSet { return &s.lost }

// FinalSize returns the stream's final size; ok is false until the FIN
// arrives.
func (s *Stream) FinalSize() (uint64, bool) { return s.finalSize, s.finalKnown }

// pendingSendBytes reports how much new data (plus FIN) awaits packetizing.
func (s *Stream) pendingSendBytes() int {
	n := s.sendLen
	if s.finQueued && !s.finSent {
		n++ // FIN itself needs to ride on a frame
	}
	return n
}

// nextFrame cuts up to maxData bytes of new data into a frame, or returns
// nil when nothing is pending. The cut size depends only on how much data
// is queued, never on chunk boundaries, so framing is identical to a flat
// buffer. When the cut fits inside the head chunk the frame aliases it
// (full-capacity slice: appends by a holder cannot scribble on the chunk);
// only a cut spanning chunks copies.
func (s *Stream) nextFrame(maxData int) *StreamFrame {
	if maxData <= 0 {
		return nil
	}
	n := s.sendLen
	if n == 0 && !(s.finQueued && !s.finSent) {
		return nil
	}
	if n > maxData {
		n = maxData
	}
	var data []byte
	if n > 0 {
		if head := s.sendChunks[0]; len(head)-s.sendPos >= n {
			data = head[s.sendPos : s.sendPos+n : s.sendPos+n]
			s.sendPos += n
		} else {
			data = make([]byte, 0, n)
			for len(data) < n {
				head := s.sendChunks[0][s.sendPos:]
				take := n - len(data)
				if take > len(head) {
					take = len(head)
				}
				data = append(data, head[:take]...)
				s.sendPos += take
				if s.sendPos == len(s.sendChunks[0]) {
					s.dropHeadChunk()
				}
			}
		}
		s.sendLen -= n
		if len(s.sendChunks) > 0 && s.sendPos == len(s.sendChunks[0]) {
			s.dropHeadChunk()
		}
	}
	f := s.conn.allocFrame()
	f.StreamID = s.id
	f.Offset = s.sendBase
	f.Data = data
	f.Unreliable = s.unreliable
	s.sendBase += uint64(n)
	if s.finQueued && s.sendLen == 0 && !s.finSent {
		f.Fin = true
		s.finSent = true
		s.finOffset = s.sendBase
	}
	return f
}

// dropHeadChunk releases the fully-consumed head chunk. Frames cut from it
// may still alias its bytes; the chunk stays alive through them until the
// last one is acked and freed.
func (s *Stream) dropHeadChunk() {
	s.sendChunks[0] = nil
	s.sendChunks = s.sendChunks[1:]
	s.sendPos = 0
}

// handleData processes an arriving stream frame on the receive side.
func (s *Stream) handleData(f *StreamFrame) {
	if len(f.Data) > 0 {
		start := f.Offset
		end := f.Offset + uint64(len(f.Data))
		// Suppress duplicate delivery: only surface sub-ranges not yet seen.
		gaps := s.received.Gaps(start, end)
		s.received.Add(start, end)
		if s.onData != nil {
			for _, g := range gaps {
				s.onData(g.Start, f.Data[g.Start-start:g.End-start])
			}
		}
	}
	if f.Fin {
		end := f.Offset + uint64(len(f.Data))
		if !s.finalKnown || end > s.finalSize {
			s.finalSize = end
			s.finalKnown = true
		}
	}
	s.maybeFin()
}

// handleLossReport records a permanent hole on an unreliable stream.
func (s *Stream) handleLossReport(f *LossReportFrame) {
	start, end := f.Offset, f.Offset+f.Length
	// Data that actually arrived (e.g. reordered past the report) wins.
	for _, g := range s.received.Gaps(start, end) {
		s.lost.Add(g.Start, g.End)
		if s.onLost != nil {
			s.onLost(g.Start, g.End-g.Start)
		}
	}
	s.maybeFin()
}

// maybeFin fires the fin callback once the stream's fate is fully known.
func (s *Stream) maybeFin() {
	if s.doneFin || !s.finalKnown || s.onFin == nil {
		return
	}
	if !s.fullyAccounted() {
		return
	}
	if chk := s.conn.sim.Checker(); chk.Enabled() && !s.unreliable && s.finalSize > 0 {
		// Reliable delivery must finalize as one contiguous range
		// [0, finalSize): a gap or an overshoot here means retransmission
		// lost or duplicated bytes that the application will never see.
		rs := s.received.Ranges()
		if len(rs) != 1 || rs[0].Start != 0 || rs[0].End != s.finalSize {
			chk.Failf("quic", "quic.reliable-contiguity",
				"stream %d finalized with %d ranges, covered %d of %d bytes",
				s.id, len(rs), s.received.CoveredBytes(), s.finalSize)
		}
	}
	s.doneFin = true
	s.onFin(s.finalSize)
}

// fullyAccounted reports whether every byte up to finalSize is either
// received or (for unreliable streams) reported lost.
func (s *Stream) fullyAccounted() bool {
	if !s.finalKnown {
		return false
	}
	if s.finalSize == 0 {
		return true
	}
	var union RangeSet
	for _, r := range s.received.Ranges() {
		union.Add(r.Start, r.End)
	}
	for _, r := range s.lost.Ranges() {
		union.Add(r.Start, r.End)
	}
	return union.Contains(0, s.finalSize)
}
