package sim

// Differential proof that the timing-wheel kernel preserves the binary
// heap's firing semantics bit-for-bit: both kernels execute identical
// random schedule/cancel/reschedule/run scripts — including same-instant
// ties, past-time clamps, zero delays, nested scheduling from inside
// callbacks, far-future overflow events, and mid-script Halt — and must
// produce identical execution traces, clocks, and counters.

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// kernel is the scheduling surface shared by *Sim and *refSim, generic
// over the handle type so the drivers compile against both concretely.
type kernel[E any] interface {
	Schedule(Time, func()) E
	At(Time, func()) E
	Cancel(E)
	Reschedule(E, Time)
	Step() bool
	Run()
	RunUntil(Time)
	Halt()
	Halted() bool
	Now() Time
	Pending() int
	Executed() uint64
}

var (
	_ kernel[*Event]    = (*Sim)(nil)
	_ kernel[*refEvent] = (*refSim)(nil)
)

// splitmix64 hashes an event id into the deterministic per-event behavior
// both drivers replay, so nested actions never consume shared random state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type traceRec struct {
	id int
	at Time
}

// driver replays a script against one kernel, recording the execution
// trace. Fired callbacks perform nested actions derived purely from the
// event id, so both kernels see the same nested ops iff their execution
// orders match — any divergence shows up as a trace mismatch.
type driver[E any] struct {
	k       kernel[E]
	handles []E
	trace   []traceRec
}

func (d *driver[E]) spawn(at Time, absolute bool) {
	id := len(d.handles)
	fn := func() { d.onFire(id) }
	if absolute {
		d.handles = append(d.handles, d.k.At(at, fn))
	} else {
		d.handles = append(d.handles, d.k.Schedule(at, fn))
	}
}

func (d *driver[E]) onFire(id int) {
	d.trace = append(d.trace, traceRec{id, d.k.Now()})
	h := splitmix64(uint64(id))
	switch h % 8 {
	case 0: // near child, possibly a same-instant tie (delay 0)
		d.spawn(Time(h>>8%uint64(2*time.Millisecond)), false)
	case 1: // far child: beyond the wheel horizon, exercises overflow
		d.spawn(wheelSpan+Time(h>>8%uint64(wheelSpan)), false)
	case 2: // cancel some earlier handle (possibly fired/canceled/recycled)
		d.k.Cancel(d.handles[int(h>>32)%len(d.handles)])
	case 3: // reschedule an earlier handle, sometimes into the past (clamps)
		target := d.handles[int(h>>32)%len(d.handles)]
		d.k.Reschedule(target, d.k.Now()+Time(h>>8%uint64(5*time.Millisecond))-time.Millisecond)
	case 4: // absolute-time child in the past: clamps to now
		d.spawn(d.k.Now()-Time(h>>8%uint64(time.Millisecond)), true)
	}
}

// scriptOp is one pre-generated top-level operation, replayed identically
// against both kernels.
type scriptOp struct {
	kind  int
	delay Time
	id    int
	n     int
}

func genScript(rng *rand.Rand, nops int) []scriptOp {
	ops := make([]scriptOp, 0, nops)
	created := 0
	for i := 0; i < nops; i++ {
		op := scriptOp{kind: rng.Intn(10)}
		switch op.kind {
		case 0, 1, 2: // schedule near (ties likely: coarse delay grid)
			op.delay = Time(rng.Intn(64)) * 250 * time.Microsecond
			created++
		case 3: // schedule far (overflow territory)
			op.delay = wheelSpan + Time(rng.Int63n(int64(3*wheelSpan)))
			created++
		case 4: // schedule very far (seconds to minutes)
			op.delay = Time(rng.Int63n(int64(2 * time.Minute)))
			created++
		case 5: // cancel
			if created == 0 {
				continue
			}
			op.id = rng.Intn(created)
		case 6: // reschedule (sometimes into the past)
			if created == 0 {
				continue
			}
			op.id = rng.Intn(created)
			op.delay = Time(rng.Int63n(int64(20*time.Millisecond))) - 2*time.Millisecond
		case 7: // step a few events
			op.n = rng.Intn(8)
		case 8: // run until a deadline a bit ahead
			op.delay = Time(rng.Int63n(int64(50 * time.Millisecond)))
		case 9: // schedule at an absolute time, sometimes in the past
			op.delay = Time(rng.Int63n(int64(4*time.Millisecond))) - time.Millisecond
			created++
		}
		ops = append(ops, op)
	}
	return ops
}

func replay[E any](k kernel[E], ops []scriptOp, halt bool) *driver[E] {
	d := runScript(k, ops)
	if halt {
		// Halt from inside an event mid-run: the clock must freeze at the
		// halting event on both kernels, including through RunUntil.
		k.Schedule(time.Millisecond, func() { k.Halt() })
		k.RunUntil(k.Now() + 10*time.Second)
	}
	k.Run()
	return d
}

// runScript replays the script's operations and leaves the kernel with
// whatever the script left pending.
func runScript[E any](k kernel[E], ops []scriptOp) *driver[E] {
	d := &driver[E]{k: k}
	for _, op := range ops {
		switch op.kind {
		case 0, 1, 2, 3, 4:
			d.spawn(op.delay, false)
		case 5:
			if op.id < len(d.handles) {
				k.Cancel(d.handles[op.id])
			}
		case 6:
			if op.id < len(d.handles) {
				k.Reschedule(d.handles[op.id], k.Now()+op.delay)
			}
		case 7:
			for i := 0; i < op.n; i++ {
				k.Step()
			}
		case 8:
			k.RunUntil(k.Now() + op.delay)
		case 9:
			d.spawn(k.Now()+op.delay, true)
		}
	}
	return d
}

func diffKernels(t *testing.T, seed int64, nops int, halt bool) {
	t.Helper()
	ops := genScript(rand.New(rand.NewSource(seed)), nops)
	dw := replay[*Event](New(seed), ops, halt)
	dh := replay[*refEvent](newRefSim(), ops, halt)
	compareDrivers(t, seed, dw, dh)
}

// diffSliced drains the wheel the way the experiment harness's trial loop
// does — RunUntilBudget slices of random width and random budget, down to
// one event per call — while the heap reference drains the same span with
// one RunUntil. Slicing must be invisible: same trace, clock, and counters,
// with or without a Halt fired mid-drain.
func diffSliced(t *testing.T, seed int64, nops int, halt bool) {
	t.Helper()
	ops := genScript(rand.New(rand.NewSource(seed)), nops)
	w := New(seed)
	dw := runScript[*Event](w, ops)
	dh := runScript[*refEvent](newRefSim(), ops)
	if halt {
		w.Schedule(time.Millisecond, w.Halt)
		dh.k.Schedule(time.Millisecond, dh.k.Halt)
	}
	end := dh.k.Now() + 10*time.Second
	dh.k.RunUntil(end)

	rng := rand.New(rand.NewSource(seed ^ 0x5EED))
	for !w.Halted() {
		next := w.Now() + 1 + Time(rng.Int63n(int64(5*time.Millisecond)))
		if next > end {
			next = end
		}
		var budget uint64
		switch rng.Intn(3) {
		case 0:
			budget = 1
		case 1:
			budget = uint64(1 + rng.Intn(4))
		default:
			budget = 1 << 20
		}
		if !w.RunUntilBudget(next, budget) && next == end {
			break
		}
	}
	compareDrivers(t, seed, dw, dh)
}

func compareDrivers(t *testing.T, seed int64, dw *driver[*Event], dh *driver[*refEvent]) {
	t.Helper()
	if len(dw.trace) != len(dh.trace) {
		t.Fatalf("seed %d: wheel fired %d events, heap fired %d", seed, len(dw.trace), len(dh.trace))
	}
	for i := range dw.trace {
		if dw.trace[i] != dh.trace[i] {
			t.Fatalf("seed %d: trace diverges at %d: wheel %+v, heap %+v", seed, i, dw.trace[i], dh.trace[i])
		}
	}
	if dw.k.Now() != dh.k.Now() {
		t.Fatalf("seed %d: clock diverges: wheel %v, heap %v", seed, dw.k.Now(), dh.k.Now())
	}
	if dw.k.Executed() != dh.k.Executed() {
		t.Fatalf("seed %d: executed diverges: wheel %d, heap %d", seed, dw.k.Executed(), dh.k.Executed())
	}
	if dw.k.Pending() != dh.k.Pending() {
		t.Fatalf("seed %d: pending diverges: wheel %d, heap %d", seed, dw.k.Pending(), dh.k.Pending())
	}
}

func TestDifferentialHeapVsWheel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		diffKernels(t, seed, 400, false)
	}
}

func TestDifferentialHeapVsWheelWithHalt(t *testing.T) {
	for seed := int64(100); seed <= 120; seed++ {
		diffKernels(t, seed, 200, true)
	}
}

func TestDifferentialSlicedBudgetDrain(t *testing.T) {
	for seed := int64(200); seed <= 240; seed++ {
		diffSliced(t, seed, 400, false)
	}
}

func TestDifferentialSlicedBudgetDrainWithHalt(t *testing.T) {
	for seed := int64(300); seed <= 320; seed++ {
		diffSliced(t, seed, 200, true)
	}
}

func TestDifferentialLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential run")
	}
	for seed := int64(500); seed <= 505; seed++ {
		diffKernels(t, seed, 5000, false)
	}
}

// Property: any mix of near and far-future delays fires in nondecreasing
// (time, insertion) order with the overflow heap promoting far events into
// the near wheel exactly when due — checked against both the recorded
// per-event deadline and global ordering.
func TestQuickOverflowPromotion(t *testing.T) {
	f := func(raw []uint32, farMask uint64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 150 {
			raw = raw[:150]
		}
		s := New(11)
		type slot struct {
			want  Time
			fired bool
			at    Time
			order int
		}
		scheduled := make([]slot, len(raw))
		var order int
		for i, r := range raw {
			d := Time(r % uint32(20*time.Millisecond))
			if farMask&(1<<uint(i%64)) != 0 {
				// Far future: one to four wheel horizons out, so the event
				// must survive in overflow and be promoted as the window
				// slides forward.
				d += wheelSpan + Time(r%uint32(3*int64(wheelSpan)))
			}
			i := i
			scheduled[i].want = d
			s.Schedule(d, func() {
				scheduled[i].fired = true
				scheduled[i].at = s.Now()
				scheduled[i].order = order
				order++
			})
		}
		s.Run()
		// Every event fired exactly at its deadline, and the global firing
		// order is (time, insertion-sequence).
		prevAt, prevIdx := Time(-1), -1
		byOrder := make([]int, len(raw))
		for i, sl := range scheduled {
			if !sl.fired || sl.at != sl.want {
				return false
			}
			byOrder[sl.order] = i
		}
		for _, i := range byOrder {
			at := scheduled[i].at
			if at < prevAt || (at == prevAt && i < prevIdx) {
				return false
			}
			prevAt, prevIdx = at, i
		}
		return s.Now() == prevAt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Property: chains of far-future events that schedule further far-future
// events keep promoting correctly as the window jumps across long empty
// stretches.
func TestQuickFarChainPromotion(t *testing.T) {
	f := func(hops uint8, step uint32) bool {
		n := int(hops%12) + 2
		d := wheelSpan/2 + Time(step%uint32(2*int64(wheelSpan)))
		s := New(13)
		var fired []Time
		var hop func(left int)
		hop = func(left int) {
			fired = append(fired, s.Now())
			if left > 0 {
				s.Schedule(d, func() { hop(left - 1) })
			}
		}
		s.Schedule(d, func() { hop(n) })
		s.Run()
		if len(fired) != n+1 {
			return false
		}
		for i, at := range fired {
			if at != Time(i+1)*d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
