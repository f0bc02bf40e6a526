package quic

import (
	"errors"
	"time"

	"voxel/internal/cc"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/sim"
)

// ErrIdleTimeout is the close reason when a connection saw no peer traffic
// for its configured idle timeout.
var ErrIdleTimeout = errors.New("quic: idle timeout")

// ErrClosed is the generic close reason for an application-initiated Close.
var ErrClosed = errors.New("quic: connection closed")

// packetOverhead is the per-packet on-wire overhead (UDP+IP headers) added
// to every encoded packet's size; packets are at most cc.MSS bytes before it.
const packetOverhead = 28

// Config parameterizes a QUIC* connection.
type Config struct {
	// InitialMaxData is the connection flow-control window granted to the
	// peer.
	InitialMaxData uint64
	// Controller overrides the congestion controller (default CUBIC).
	Controller cc.Controller

	// IdleTimeout closes the connection when no packet arrives from the
	// peer for this long. Zero disables idle teardown (legacy behavior:
	// a dead link leaves the connection probing forever).
	IdleTimeout sim.Time
	// KeepAlive, with IdleTimeout set, sends a PING at half the idle
	// timeout whenever the connection is otherwise quiet, so an idle but
	// healthy connection is not torn down (e.g. while the player's buffer
	// is full and no requests are outstanding).
	KeepAlive bool
	// PTOBackoffCap bounds the PTO backoff exponent so probe spacing
	// plateaus at PTO<<cap instead of doubling without bound — during a
	// multi-second blackout the connection keeps probing at a bounded
	// period and detects link recovery quickly. Zero keeps the legacy
	// schedule (persistent congestion at 3 consecutive PTOs resets the
	// backoff); with a cap, persistent congestion is declared once per
	// streak and the exponent keeps growing up to the cap.
	PTOBackoffCap int

	// Obs receives transport telemetry (packet/byte counters, RTT samples,
	// loss-report events). Nil disables recording at zero cost: every scope
	// method no-ops on a nil receiver, which the ACK-path allocation tests
	// pin at 0 allocs/op.
	Obs *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.InitialMaxData == 0 {
		c.InitialMaxData = 16 << 20
	}
	if c.Controller == nil {
		c.Controller = cc.NewCubic()
	}
	return c
}

// Stats counts transport-level activity for the experiment harness.
type Stats struct {
	PacketsSent       uint64
	PacketsReceived   uint64
	PacketsDeclLost   uint64
	BytesSent         uint64 // QUIC payload bytes incl. headers
	StreamBytesSent   uint64 // new stream payload bytes
	RetransmitBytes   uint64 // reliable stream bytes retransmitted
	UnreliableLost    uint64 // unreliable stream bytes reported lost
	UnreliableRewrite uint64 // always 0: selective retx is the player's HTTP re-request
	PTOCount          uint64
}

type sentPacket struct {
	pn           uint64
	size         int // wire size incl. overhead, for cc accounting
	sentAt       sim.Time
	streamFrames []*StreamFrame
	ctrlFrames   []Frame
}

// outPacket is one encoded packet on its way to the peer. Its Deliver and
// Done callbacks are bound once, when the connection's pool first creates
// it, so transmitting a pooled packet allocates nothing.
type outPacket struct {
	buf     []byte
	deliver func() // peer parses buf
	done    func() // buf returns to the pool
}

// Conn is one endpoint of a QUIC* connection running inside the simulator.
type Conn struct {
	sim   *sim.Sim
	cfg   Config
	link  *netem.Link // direction toward the peer
	peer  *Conn
	ctl   cc.Controller
	rtt   cc.RTTEstimator
	stats Stats
	obs   *obs.Scope // nil = telemetry disabled (all calls no-op)

	// Conservation counters for the invariant checker: every ack-eliciting
	// packet pushed into sentQ must end up acked or declared lost, with the
	// remainder in flight. Plain uint adds on the hot path; the comparison
	// against the queue only happens with a checker armed on the sim.
	elicSent   uint64 // ack-eliciting packets pushed into sentQ
	elicBytes  uint64 // wire bytes of those packets
	ackedPkts  uint64 // packets removed from sentQ by an ACK
	ackedBytes uint64
	lostBytes  uint64 // wire bytes of packets declared lost

	// packet number spaces
	nextPN        uint64
	sentQ         sentQueue // in-flight ack-eliciting packets, ascending pn
	largestAcked  uint64
	anyAcked      bool
	recoveryStart sim.Time
	ptoTimer      *sim.Timer
	ptoCount      int
	lastAckElic   sim.Time

	// receiving
	recvdPNs     RangeSet
	ackPending   bool
	ackElicCount int
	ackTimer     *sim.Timer

	// streams
	streams      map[uint64]*Stream
	nextStreamID uint64
	onStream     func(*Stream)
	active       []*Stream // streams with pending new data, FIFO

	// frame queues
	ctrlQ      []Frame
	retransmit []*StreamFrame // reliable stream data to resend

	// flow control
	sendLimit    uint64 // peer's MAX_DATA
	sentData     uint64 // new stream payload bytes sent
	recvLimit    uint64 // what we advertised
	recvData     uint64 // stream payload bytes received (new bytes)
	sendBlockedF bool

	// pacing
	paceTimer  *sim.Timer
	nextSendAt sim.Time
	sendArmed  bool

	// lifecycle
	closed    bool
	closeErr  error
	onClose   func(error)
	lastRecv  sim.Time   // virtual time of the last valid packet received
	idleTimer *sim.Timer // armed iff cfg.IdleTimeout > 0
	keepTimer *sim.Timer // armed iff cfg.KeepAlive && cfg.IdleTimeout > 0

	// scratch and freelists for the zero-allocation fast path. Everything
	// here is per-connection and single-threaded (one simulation runs on
	// one goroutine), so reuse needs no synchronization.
	spFree     []*sentPacket  // sentPacket freelist
	sfFree     []*StreamFrame // StreamFrame freelist (send side)
	outFree    []*outPacket   // encoded packets, returned after delivery
	txFrames   []Frame        // frame list scratch for the packet being built
	txAck      AckFrame       // ACK frame scratch for buildAck
	rx         frameDecoder   // frame scratch for receive
	ackScratch []*sentPacket  // newly-acked scratch for onAck
}

// NewPair creates a connected client/server pair over the path. The client
// transmits on path.Up and the server on path.Down (the shaped bottleneck).
func NewPair(s *sim.Sim, path *netem.Path, clientCfg, serverCfg Config) (client, server *Conn) {
	client = newConn(s, path.Up, clientCfg, true)
	server = newConn(s, path.Down, serverCfg, false)
	client.peer = server
	server.peer = client
	client.sendLimit = server.cfg.InitialMaxData
	server.sendLimit = client.cfg.InitialMaxData
	return client, server
}

func newConn(s *sim.Sim, link *netem.Link, cfg Config, isClient bool) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		sim:       s,
		cfg:       cfg,
		link:      link,
		ctl:       cfg.Controller,
		obs:       cfg.Obs,
		streams:   make(map[uint64]*Stream),
		recvLimit: cfg.InitialMaxData,
	}
	if isClient {
		c.nextStreamID = 0
	} else {
		c.nextStreamID = 1
	}
	c.ptoTimer = sim.NewTimer(s, c.onPTO)
	c.ackTimer = sim.NewTimer(s, func() { c.sendAckNow() })
	c.paceTimer = sim.NewTimer(s, func() {
		c.sendArmed = false
		c.trySend()
	})
	if cfg.IdleTimeout > 0 {
		c.idleTimer = sim.NewTimer(s, func() { c.Close(ErrIdleTimeout) })
		c.idleTimer.Arm(cfg.IdleTimeout)
		if cfg.KeepAlive {
			c.keepTimer = sim.NewTimer(s, c.onKeepAlive)
			c.keepTimer.Arm(cfg.IdleTimeout / 2)
		}
	}
	return c
}

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() Stats { return c.stats }

// Sim returns the simulator the connection runs on, for layers above the
// transport that need timers (request deadlines, retry backoff).
func (c *Conn) Sim() *sim.Sim { return c.sim }

// LastActivity returns the virtual time of the last valid packet received
// from the peer (zero if none yet). Layers above the transport use it to
// tell a dead link apart from a connection that is merely busy serving
// other streams: request deadlines only fire when the whole connection has
// gone quiet, not when one request is queued behind another transfer.
func (c *Conn) LastActivity() sim.Time { return c.lastRecv }

// RTT returns the connection's RTT estimator.
func (c *Conn) RTT() *cc.RTTEstimator { return &c.rtt }

// Controller exposes the congestion controller (read-only use).
func (c *Conn) Controller() cc.Controller { return c.ctl }

// OnStream registers the callback invoked when the peer opens a stream.
func (c *Conn) OnStream(fn func(*Stream)) { c.onStream = fn }

// OnClose registers the callback invoked once when the connection closes,
// with the close reason. Registered after close, it fires immediately.
func (c *Conn) OnClose(fn func(error)) {
	c.onClose = fn
	if c.closed && fn != nil {
		fn(c.closeErr)
	}
}

// Closed reports whether the connection has been closed.
func (c *Conn) Closed() bool { return c.closed }

// Err returns the close reason, or nil while the connection is open.
func (c *Conn) Err() error { return c.closeErr }

// Close tears the connection down: every timer stops, queued and in-flight
// data is released, and no further events are scheduled — a closed
// connection is inert, so a simulation over a dead link drains instead of
// re-arming probe timers forever. The reason (ErrIdleTimeout, ErrClosed,
// ...) is reported to the OnClose callback. Close is idempotent and purely
// local: the peer learns of it only through its own idle timeout, as with a
// real endpoint that vanished.
func (c *Conn) Close(reason error) {
	if c.closed {
		return
	}
	if reason == nil {
		reason = ErrClosed
	}
	c.closed = true
	c.closeErr = reason
	c.obs.Inc(obs.CConnCloses)
	c.obs.Event(obs.EvConnClosed, closeReasonCode(reason), 0, 0)
	c.ptoTimer.Stop()
	c.ackTimer.Stop()
	c.paceTimer.Stop()
	if c.idleTimer != nil {
		c.idleTimer.Stop()
	}
	if c.keepTimer != nil {
		c.keepTimer.Stop()
	}
	for i := c.sentQ.head; i < len(c.sentQ.pk); i++ {
		c.releaseSent(c.sentQ.pk[i])
	}
	c.sentQ.reset()
	c.ctrlQ = nil
	c.retransmit = nil
	c.active = nil
	c.ackPending = false
	if c.onClose != nil {
		c.onClose(reason)
	}
}

// closeReasonCode maps a close reason to its telemetry code.
func closeReasonCode(reason error) int64 {
	switch reason {
	case ErrIdleTimeout:
		return obs.ReasonIdleTimeout
	case ErrClosed:
		return obs.ReasonClosed
	default:
		return obs.ReasonOther
	}
}

// onKeepAlive sends a PING when the send side has been quiet for half the
// idle timeout, so the peer's idle timer (and, via the elicited ACK, our
// own) keeps getting refreshed across application-level silences.
func (c *Conn) onKeepAlive() {
	if c.closed {
		return
	}
	interval := c.cfg.IdleTimeout / 2
	if c.sim.Now()-c.lastAckElic >= interval && c.sentQ.empty() {
		c.ctrlQ = append(c.ctrlQ, PingFrame{})
		c.trySend()
	}
	c.keepTimer.Arm(interval)
}

// OpenStream opens a new locally initiated stream.
func (c *Conn) OpenStream(unreliable bool) *Stream {
	s := &Stream{conn: c, id: c.nextStreamID, unreliable: unreliable}
	c.nextStreamID += 2
	c.streams[s.id] = s
	return s
}

func (c *Conn) markActive(s *Stream) {
	for _, a := range c.active {
		if a == s {
			c.trySend()
			return
		}
	}
	c.active = append(c.active, s)
	c.trySend()
}

// --- pools ---

// allocSent returns a clean sentPacket, reusing freed ones. The frame
// slices keep their capacity across reuse.
//
//voxel:allocfree
//voxel:pool-get put=releaseSent
func (c *Conn) allocSent() *sentPacket {
	if n := len(c.spFree); n > 0 {
		sp := c.spFree[n-1]
		c.spFree = c.spFree[:n-1]
		return sp
	}
	return &sentPacket{}
}

// releaseSent recycles a sentPacket whose frames have already been handed
// off or freed.
//
//voxel:allocfree
func (c *Conn) releaseSent(sp *sentPacket) {
	for i := range sp.streamFrames {
		sp.streamFrames[i] = nil
	}
	for i := range sp.ctrlFrames {
		sp.ctrlFrames[i] = nil
	}
	*sp = sentPacket{streamFrames: sp.streamFrames[:0], ctrlFrames: sp.ctrlFrames[:0]}
	c.spFree = append(c.spFree, sp)
}

// allocFrame returns a zeroed StreamFrame from the send-side freelist.
//
//voxel:allocfree
//voxel:pool-get put=freeFrame
func (c *Conn) allocFrame() *StreamFrame {
	if n := len(c.sfFree); n > 0 {
		f := c.sfFree[n-1]
		c.sfFree = c.sfFree[:n-1]
		*f = StreamFrame{}
		return f
	}
	return &StreamFrame{}
}

// freeFrame recycles a StreamFrame that no queue references anymore.
//
//voxel:allocfree
func (c *Conn) freeFrame(f *StreamFrame) {
	f.Data = nil
	c.sfFree = append(c.sfFree, f)
}

// getOut returns a pooled outgoing packet with an empty buffer sized for
// one packet. Packets come back through their done callback after the peer
// finished parsing the delivered bytes (the receive path never retains wire
// bytes), or immediately when the link dropped the datagram.
//
//voxel:pool-get put=transmit
func (c *Conn) getOut() *outPacket {
	if n := len(c.outFree); n > 0 {
		op := c.outFree[n-1]
		c.outFree = c.outFree[:n-1]
		op.buf = op.buf[:0]
		return op
	}
	op := &outPacket{buf: make([]byte, 0, cc.MSS+64)}
	op.deliver = func() { c.peer.receive(op.buf) }
	op.done = func() { c.outFree = append(c.outFree, op) }
	return op
}

// encode numbers a packet carrying frames, serializes it into a pooled
// buffer, and counts it as sent. Every packet the connection emits (data,
// ACK-only, PTO probe) goes through encode and then transmit.
func (c *Conn) encode(frames []Frame) *outPacket {
	pkt := Packet{Number: c.nextPN, Frames: frames}
	c.nextPN++
	op := c.getOut()
	op.buf = pkt.AppendTo(op.buf)
	c.stats.PacketsSent++
	c.stats.BytesSent += uint64(len(op.buf))
	c.obs.Inc(obs.CPacketsSent)
	c.obs.Count(obs.CBytesSent, uint64(len(op.buf)))
	return op
}

// wireSize is the on-wire size of an encoded packet, for congestion
// control and the link.
func (op *outPacket) wireSize() int { return len(op.buf) + packetOverhead }

// transmit hands an encoded packet to the link toward the peer.
//
//voxel:allocfree
func (c *Conn) transmit(op *outPacket) {
	if !c.link.Send(netem.Datagram{Size: op.wireSize(), Deliver: op.deliver, Done: op.done}) {
		op.done() // dropped at the queue: reclaim immediately
	}
}

// --- send path ---

// trySend drains as much pending data as congestion control and pacing
// allow, then arms the pacing timer if blocked on time.
func (c *Conn) trySend() {
	for {
		if c.closed || !c.hasPending() {
			return
		}
		now := c.sim.Now()
		if c.nextSendAt > now && c.hasAckElicitingPending() {
			if !c.sendArmed {
				c.sendArmed = true
				c.paceTimer.ArmAt(c.nextSendAt)
			}
			// ACK-only packets are not paced.
			if c.ackPending && c.ackElicCount >= 2 {
				c.sendAckNow()
			}
			return
		}
		if !c.sendOnePacket() {
			return
		}
	}
}

func (c *Conn) hasPending() bool {
	return c.ackPending || c.hasAckElicitingPending()
}

func (c *Conn) hasAckElicitingPending() bool {
	if len(c.ctrlQ) > 0 || len(c.retransmit) > 0 {
		return true
	}
	for _, s := range c.active {
		if s.pendingSendBytes() > 0 {
			return true
		}
	}
	return false
}

// txPacket is the packet sendOnePacket is filling.
type txPacket struct {
	frames []Frame
	sp     *sentPacket // records the reliable frames for loss recovery
	budget int         // payload bytes still free
}

func (p *txPacket) add(f Frame) {
	p.frames = append(p.frames, f)
	p.budget -= f.wireSize()
}

func (p *txPacket) addStream(f *StreamFrame) {
	p.add(f)
	p.sp.streamFrames = append(p.sp.streamFrames, f)
}

// sendOnePacket assembles and transmits one packet; it returns false when
// nothing was sent (no data, or blocked by congestion control).
func (c *Conn) sendOnePacket() bool {
	now := c.sim.Now()
	canSendData := c.ctl.CanSend(cc.MSS)
	p := txPacket{
		frames: c.txFrames[:0],
		sp:     c.allocSent(),
		budget: cc.MSS - 1 - 8, // header byte + worst-case packet number
	}
	sp := p.sp

	if c.ackPending {
		ack := c.buildAck()
		if ack.wireSize() <= p.budget {
			p.add(ack)
			c.clearAckState()
		}
	}

	if canSendData {
		// Control frames (MAX_DATA, LOSS_REPORT): reliable, requeued on loss.
		for len(c.ctrlQ) > 0 && c.ctrlQ[0].wireSize() <= p.budget {
			f := c.ctrlQ[0]
			c.ctrlQ = c.ctrlQ[1:]
			p.add(f)
			sp.ctrlFrames = append(sp.ctrlFrames, f)
		}
		// Reliable retransmissions.
		if n := c.packRetransmit(&p); n > 0 {
			c.stats.RetransmitBytes += n
			c.obs.Count(obs.CRetransmitBytes, n)
		}
		// New stream data, FIFO across active streams.
		for len(c.active) > 0 && p.budget > 64 {
			s := c.active[0]
			if s.pendingSendBytes() == 0 {
				c.active = c.active[1:]
				continue
			}
			if c.sentData >= c.sendLimit {
				break // connection flow control blocked
			}
			maxData := p.budget - streamFrameOverhead(s.id, s.sendBase, p.budget)
			if fc := int(c.sendLimit - c.sentData); maxData > fc {
				maxData = fc
			}
			f := s.nextFrame(maxData)
			if f == nil {
				break
			}
			p.addStream(f)
			c.sentData += uint64(len(f.Data))
			c.stats.StreamBytesSent += uint64(len(f.Data))
			c.obs.Count(obs.CStreamBytesSent, uint64(len(f.Data)))
		}
	}

	c.txFrames = p.frames // keep grown capacity for the next packet
	if len(p.frames) == 0 {
		c.releaseSent(sp)
		return false
	}

	sp.pn = c.nextPN
	op := c.encode(p.frames)
	sp.size = op.wireSize()
	if len(sp.ctrlFrames)+len(sp.streamFrames) > 0 { // anything but a lone ACK
		c.track(sp, now)
		c.ctl.OnPacketSent(now, sp.size)
		c.armPTO()
		// Pacing: space packets at ~1.25× the window rate.
		rate := 1.25 * float64(c.ctl.Window()) / c.rtt.SmoothedRTT().Seconds()
		gap := sim.Time(float64(sp.size) / rate * float64(time.Second))
		base := c.nextSendAt
		if base < now {
			base = now
		}
		c.nextSendAt = base + gap
	} else {
		// Nothing tracks a non-eliciting (ACK-only) packet; recycle it.
		c.releaseSent(sp)
	}
	c.transmit(op)
	return true
}

// packRetransmit moves frames from the front of the retransmit queue into p
// while more than 64 bytes of budget remain: a frame that fits moves whole,
// otherwise a prefix is split off into a new frame and the suffix stays
// queued. It returns the payload bytes moved.
func (c *Conn) packRetransmit(p *txPacket) (moved uint64) {
	for len(c.retransmit) > 0 && p.budget > 64 {
		f := c.retransmit[0]
		hdr := streamFrameOverhead(f.StreamID, f.Offset, len(f.Data))
		if hdr+len(f.Data) <= p.budget {
			c.retransmit = c.retransmit[1:]
		} else {
			avail := p.budget - hdr
			if avail <= 0 {
				break
			}
			head := c.allocFrame()
			head.StreamID, head.Offset = f.StreamID, f.Offset
			head.Data, head.Unreliable = f.Data[:avail], f.Unreliable
			f.Offset += uint64(avail)
			f.Data = f.Data[avail:]
			f = head
		}
		p.addStream(f)
		moved += uint64(len(f.Data))
	}
	return moved
}

// track registers an ack-eliciting packet as in flight.
func (c *Conn) track(sp *sentPacket, now sim.Time) {
	sp.sentAt = now
	c.sentQ.push(sp)
	c.elicSent++
	c.elicBytes += uint64(sp.size)
	c.lastAckElic = now
}

// buildAck assembles the ACK frame for the received packet-number history
// into per-connection scratch; the caller encodes it before the next call.
func (c *Conn) buildAck() *AckFrame {
	rs := c.recvdPNs.Ranges()
	f := &c.txAck
	f.Ranges = f.Ranges[:0]
	// Largest-first, capped at 32 ranges.
	for i := len(rs) - 1; i >= 0 && len(f.Ranges) < 32; i-- {
		f.Ranges = append(f.Ranges, AckRange{First: rs[i].Start, Last: rs[i].End - 1})
	}
	return f
}

func (c *Conn) clearAckState() {
	c.ackPending = false
	c.ackElicCount = 0
	c.ackTimer.Stop()
}

func (c *Conn) sendAckNow() {
	if !c.ackPending {
		return
	}
	c.txFrames = append(c.txFrames[:0], c.buildAck())
	c.clearAckState()
	c.transmit(c.encode(c.txFrames))
}

// --- receive path ---

// receive parses and dispatches one packet straight off the wire bytes in
// two passes over the one frame decoder: the first validates every frame
// and notes whether any is ack-eliciting, so a corrupt packet is dropped
// atomically; the second decodes again into per-connection scratch and
// handles each frame in place. Stream payloads reach the application as
// sub-slices of the wire buffer (nothing downstream retains them), so
// steady-state receiving does not allocate or copy.
//
//voxel:allocfree
func (c *Conn) receive(encoded []byte) {
	if c.closed {
		return // packets arriving after close fall on the floor
	}
	pn, payload, err := decodeHeader(encoded)
	if err != nil {
		return // corrupt packets are dropped
	}
	ackEliciting := false
	for b := payload; len(b) > 0; {
		var f Frame
		if f, b, err = c.rx.decode(b); err != nil {
			return
		}
		ackEliciting = ackEliciting || f.ackEliciting()
	}
	c.stats.PacketsReceived++
	c.obs.Inc(obs.CPacketsReceived)
	c.recvdPNs.Add(pn, pn+1)
	c.lastRecv = c.sim.Now()
	if c.idleTimer != nil {
		c.idleTimer.Arm(c.cfg.IdleTimeout) // peer activity: push back teardown
	}

	for b := payload; len(b) > 0; {
		var f Frame
		f, b, _ = c.rx.decode(b) // validated above
		switch f := f.(type) {
		case *AckFrame:
			c.onAck(f)
		case *MaxDataFrame:
			if f.Max > c.sendLimit {
				c.sendLimit = f.Max
			}
		case *StreamFrame:
			c.onStreamFrame(f)
			f.Data = nil
		case *LossReportFrame:
			c.obs.Count(obs.CLossReportedBytes, f.Length)
			c.obs.Event(obs.EvLossReport, int64(f.StreamID), int64(f.Offset), int64(f.Length))
			if s := c.streams[f.StreamID]; s != nil {
				s.handleLossReport(f)
			}
		}
	}

	if ackEliciting {
		c.ackPending = true
		c.ackElicCount++
		if c.ackElicCount >= 2 {
			c.sendAckNow()
		} else if !c.ackTimer.Armed() {
			c.ackTimer.Arm(25 * time.Millisecond)
		}
	}
	c.trySend()
}

func (c *Conn) onStreamFrame(f *StreamFrame) {
	s := c.streams[f.StreamID]
	if s == nil {
		// Peer-initiated stream: register it and notify the application
		// before delivering data so callbacks are in place.
		s = &Stream{conn: c, id: f.StreamID, unreliable: f.Unreliable}
		c.streams[f.StreamID] = s
		if c.onStream != nil {
			c.onStream(s)
		}
	}
	before := s.received.CoveredBytes()
	s.handleData(f)
	newBytes := s.received.CoveredBytes() - before
	c.recvData += newBytes
	// Replenish connection flow control once half the window is consumed.
	if c.recvLimit-c.recvData < c.cfg.InitialMaxData/2 {
		c.recvLimit = c.recvData + c.cfg.InitialMaxData
		c.ctrlQ = append(c.ctrlQ, &MaxDataFrame{Max: c.recvLimit})
	}
}

// onAck processes an ACK by merging its ranges (descending, as buildAck
// emits them) against the in-flight queue (ascending by packet number):
// one pass in O(scanned + ranges), where the scan stops at the largest
// acknowledged packet. Processing order is ascending packet number by
// construction — no map iteration, no sorting.
//
//voxel:allocfree
func (c *Conn) onAck(f *AckFrame) {
	now := c.sim.Now()
	if len(f.Ranges) == 0 {
		return
	}
	largest := f.Largest()
	if !c.anyAcked || largest > c.largestAcked {
		c.largestAcked = largest
		c.anyAcked = true
	}

	q := &c.sentQ
	newlyAcked := c.ackScratch[:0]
	j := len(f.Ranges) - 1 // walk ranges smallest-first
	i := q.head
	w := q.head // survivors below the frontier compact toward the head
	for ; i < len(q.pk); i++ {
		sp := q.pk[i]
		if sp.pn > largest {
			break
		}
		for j >= 0 && f.Ranges[j].Last < sp.pn {
			j--
		}
		if j >= 0 && f.Ranges[j].First <= sp.pn {
			newlyAcked = append(newlyAcked, sp)
		} else {
			q.pk[w] = sp
			w++
		}
	}
	if len(newlyAcked) > 0 {
		// Slide the surviving scanned packets up against the unscanned
		// tail, so the live window stays contiguous.
		survivors := w - q.head
		newHead := i - survivors
		if survivors > 0 && newHead != q.head {
			copy(q.pk[newHead:i], q.pk[q.head:w])
		}
		for k := q.head; k < newHead; k++ {
			q.pk[k] = nil
		}
		q.head = newHead
		q.shrink()

		// RTT sample: exactly once per ACK that newly acknowledges the
		// largest packet, taken before the congestion-controller callbacks.
		if last := newlyAcked[len(newlyAcked)-1]; last.pn == largest {
			c.rtt.OnSample(now - last.sentAt)
			c.obs.Observe(obs.HRTTMs, int64((now-last.sentAt)/time.Millisecond))
		}
		for _, sp := range newlyAcked {
			c.ackedPkts++
			c.ackedBytes += uint64(sp.size)
			c.ctl.OnAck(now, sp.size, now-sp.sentAt)
		}
		c.ptoCount = 0
		for _, sp := range newlyAcked {
			for _, sf := range sp.streamFrames {
				c.freeFrame(sf)
			}
			c.releaseSent(sp)
		}
	}
	c.ackScratch = newlyAcked[:0]

	c.detectLosses(now)
	c.checkConservation()
	c.armPTO()
	c.trySend()
}

// checkConservation asserts, with a checker armed on the sim, that every
// ack-eliciting packet (and byte) ever pushed into the in-flight queue is
// accounted for exactly once: acknowledged, declared lost, or still in
// flight. The in-flight side is recomputed from the queue itself, so a
// requeue path that drops or duplicates a packet without bookkeeping is
// caught at the next ACK.
func (c *Conn) checkConservation() {
	chk := c.sim.Checker()
	if !chk.Enabled() || c.closed {
		return
	}
	if inflight := uint64(c.sentQ.size()); c.elicSent != c.ackedPkts+c.stats.PacketsDeclLost+inflight {
		chk.Failf("quic", "quic.packet-conservation",
			"sent %d != acked %d + lost %d + inflight %d",
			c.elicSent, c.ackedPkts, c.stats.PacketsDeclLost, inflight)
	}
	var infBytes uint64
	for i := c.sentQ.head; i < len(c.sentQ.pk); i++ {
		infBytes += uint64(c.sentQ.pk[i].size)
	}
	if c.elicBytes != c.ackedBytes+c.lostBytes+infBytes {
		chk.Failf("quic", "quic.byte-conservation",
			"sent %d B != acked %d B + lost %d B + inflight %d B",
			c.elicBytes, c.ackedBytes, c.lostBytes, infBytes)
	}
}

// detectLosses declares packets lost by packet threshold (3) and time
// threshold (9/8 smoothed RTT behind the largest acknowledged packet).
//
// Both thresholds are monotone along the queue — packet numbers ascend and
// send times never decrease — so the lost packets always form a prefix of
// the in-flight queue: the walk stops at the first packet neither
// threshold condemns.
//
//voxel:allocfree
func (c *Conn) detectLosses(now sim.Time) {
	if !c.anyAcked || c.sentQ.empty() {
		return
	}
	base := c.rtt.SmoothedRTT()
	if l := c.rtt.LatestRTT(); l > base {
		base = l
	}
	timeThresh := base*9/8 + 10*time.Millisecond
	q := &c.sentQ
	lost := 0
	for i := q.head; i < len(q.pk); i++ {
		sp := q.pk[i]
		if sp.pn >= c.largestAcked ||
			(c.largestAcked-sp.pn < 3 && now-sp.sentAt <= timeThresh) {
			break
		}
		lost++
	}
	if lost == 0 {
		return
	}
	for i := 0; i < lost; i++ {
		sp := q.pk[q.head+i]
		c.stats.PacketsDeclLost++
		c.lostBytes += uint64(sp.size)
		c.obs.Inc(obs.CPacketsLost)
		isNew := sp.sentAt >= c.recoveryStart
		if isNew {
			c.recoveryStart = now
		}
		c.ctl.OnLoss(now, sp.size, isNew)
		c.requeueLost(sp)
	}
	q.dropPrefix(lost)
}

// requeueLost recovers the contents of a lost packet: reliable stream data
// is retransmitted, unreliable stream data becomes a LOSS_REPORT, and
// control frames are requeued. The emptied sentPacket (and any frame no
// queue references anymore) returns to the connection's freelists.
func (c *Conn) requeueLost(sp *sentPacket) {
	for _, f := range sp.streamFrames {
		if f.Unreliable {
			c.stats.UnreliableLost += uint64(len(f.Data))
			c.obs.Count(obs.CUnreliableLostBytes, uint64(len(f.Data)))
			c.ctrlQ = append(c.ctrlQ, &LossReportFrame{
				StreamID: f.StreamID,
				Offset:   f.Offset,
				Length:   uint64(len(f.Data)),
			})
			if f.Fin {
				// The FIN must still reach the peer: resend an empty FIN
				// frame reliably so the stream's final size is known.
				fin := c.allocFrame()
				fin.StreamID = f.StreamID
				fin.Offset = f.Offset + uint64(len(f.Data))
				fin.Fin, fin.Unreliable = true, true
				c.retransmit = append(c.retransmit, fin)
			}
			c.freeFrame(f) // never retransmitted: the frame is done
		} else {
			c.retransmit = append(c.retransmit, f)
		}
	}
	c.ctrlQ = append(c.ctrlQ, sp.ctrlFrames...)
	c.releaseSent(sp)
}

// --- PTO ---

func (c *Conn) armPTO() {
	if c.closed || c.sentQ.empty() {
		c.ptoTimer.Stop()
		return
	}
	exp := c.ptoCount
	if cap := c.cfg.PTOBackoffCap; cap > 0 && exp > cap {
		exp = cap
	}
	backoff := sim.Time(1) << uint(exp)
	c.ptoTimer.ArmAt(c.lastAckElic + c.rtt.PTO()*backoff)
}

func (c *Conn) onPTO() {
	if c.closed || c.sentQ.empty() {
		return
	}
	c.ptoCount++
	c.stats.PTOCount++
	c.obs.Inc(obs.CPTOs)
	now := c.sim.Now()
	// Persistent congestion at 3 consecutive PTOs. Legacy (no backoff cap)
	// resets the backoff each time, retrying the whole window at full tempo;
	// with a cap, it is declared once per streak and the streak keeps
	// backing off (up to the cap), so a dead link is probed at a bounded,
	// non-collapsing cadence until traffic or the idle timeout ends it.
	if c.ptoCount == 3 || (c.cfg.PTOBackoffCap == 0 && c.ptoCount > 3) {
		// Declare everything in flight lost and collapse the window. The
		// queue is already in ascending packet-number order.
		q := &c.sentQ
		for i := q.head; i < len(q.pk); i++ {
			c.stats.PacketsDeclLost++
			c.lostBytes += uint64(q.pk[i].size)
			c.requeueLost(q.pk[i])
		}
		q.reset()
		c.ctl.OnRetransmissionTimeout(now)
		c.recoveryStart = now
		if c.cfg.PTOBackoffCap == 0 {
			c.ptoCount = 0
		}
		c.nextSendAt = 0
		c.trySend()
		if c.cfg.PTOBackoffCap > 0 {
			// The streak continues: keep probing even if trySend was
			// blocked, so link recovery is still detected.
			c.armPTO()
		}
		return
	}
	// Send a probe to elicit an ACK that unblocks threshold loss detection.
	c.txFrames = append(c.txFrames[:0], PingFrame{})
	sp := c.allocSent()
	sp.pn = c.nextPN
	op := c.encode(c.txFrames)
	sp.size = op.wireSize()
	c.track(sp, now)
	c.transmit(op)
	c.armPTO()
}
