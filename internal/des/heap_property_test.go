package des

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"satqos/internal/stats"
)

// refItem is one scheduled event as the reference model sees it.
type refItem struct {
	id   int
	time float64
	seq  uint64
	ev   *Event
}

// refBefore is the reference order, written out independently of the
// heap's.
func refBefore(a, b *refItem) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// heapHarness drives a Simulation and a reference model side by side.
// The reference keeps the pending events in a slice sorted by
// (time, seq) and fires from its front, so it shares no code with the
// heap.
type heapHarness struct {
	t      *testing.T
	rng    *stats.RNG
	sim    *Simulation
	reuse  bool
	ref    []*refItem // pending, sorted by (time, seq)
	byEv   map[*Event]*refItem
	fired  []*refItem // every fired item, for already-fired cancels
	log    []int      // ids in the order the simulation fired them
	nextID int
	seq    uint64 // schedules since the last Reset
	peak   int    // reference peak depth since the last Reset
}

func (h *heapHarness) record(it *refItem, now float64) {
	if now != it.time {
		h.t.Fatalf("event %d fired at %g, scheduled for %g", it.id, now, it.time)
	}
	h.log = append(h.log, it.id)
}

// schedule adds one event through Schedule or ScheduleCall. Delays are
// drawn from a coarse grid half the time so equal-time ties are common.
func (h *heapHarness) schedule() {
	delay := float64(h.rng.Intn(8)) * 0.5
	if h.rng.Float64() < 0.5 {
		delay = h.rng.Float64() * 4
	}
	h.seq++
	it := &refItem{id: h.nextID, time: h.sim.Now() + delay, seq: h.seq}
	h.nextID++
	if h.rng.Float64() < 0.5 {
		it.ev = h.sim.Schedule(delay, "p", func(now float64) { h.record(it, now) })
	} else {
		it.ev = h.sim.ScheduleCall(delay, "p-call", func(now float64, arg any) {
			h.record(arg.(*refItem), now)
		}, it)
	}
	h.byEv[it.ev] = it
	h.ref = slices.Insert(h.ref, h.refSearch(it), it)
	h.peak = max(h.peak, len(h.ref))
}

// refSearch returns the position of it in the sorted reference, or
// where it would be inserted.
func (h *heapHarness) refSearch(it *refItem) int {
	return sort.Search(len(h.ref), func(i int) bool { return !refBefore(h.ref[i], it) })
}

func (h *heapHarness) dropRef(it *refItem) {
	i := h.refSearch(it)
	if i == len(h.ref) || h.ref[i] != it {
		h.t.Fatalf("event %d is not pending in the reference", it.id)
	}
	h.ref = slices.Delete(h.ref, i, i+1)
}

// expectFire pops the reference minimum and returns its id.
func (h *heapHarness) expectFire() int {
	it := h.ref[0]
	h.ref = slices.Delete(h.ref, 0, 1)
	h.fired = append(h.fired, it)
	return it.id
}

// cancelSlot cancels the event in heap slot i.
func (h *heapHarness) cancelSlot(i int) {
	ev := h.sim.queue[i].ev
	it := h.byEv[ev]
	h.sim.Cancel(ev)
	if !ev.Canceled() {
		h.t.Fatalf("Canceled() = false after Cancel of event %d", it.id)
	}
	h.dropRef(it)
}

// step fires one event on both sides and compares them.
func (h *heapHarness) step() {
	want := -1
	if len(h.ref) > 0 {
		want = h.expectFire()
	}
	start := len(h.log)
	ok := h.sim.Step()
	if ok != (want >= 0) {
		h.t.Fatalf("Step() = %v with %d pending in the reference", ok, len(h.ref)+1)
	}
	if ok && (len(h.log) != start+1 || h.log[start] != want) {
		h.t.Fatalf("Step fired %v, want [%d]", h.log[start:], want)
	}
}

// run fires every event up to horizon on both sides and compares them.
func (h *heapHarness) run(horizon float64) {
	var want []int
	for len(h.ref) > 0 && h.ref[0].time <= horizon {
		want = append(want, h.expectFire())
	}
	start := len(h.log)
	n := h.sim.Run(horizon)
	got := h.log[start:]
	if int(n) != len(want) || !slices.Equal(got, want) {
		h.t.Fatalf("Run(%g) fired %v (returned %d), want %v", horizon, got, n, want)
	}
	if h.sim.Now() != horizon {
		h.t.Fatalf("Now = %g after Run(%g)", h.sim.Now(), horizon)
	}
}

func (h *heapHarness) reset() {
	h.sim.Reset()
	h.ref = h.ref[:0]
	h.seq = 0
	h.peak = 0
}

// check asserts the invariants that hold between operations.
func (h *heapHarness) check(op string) {
	q := h.sim.queue
	for i, en := range q {
		if en.ev.index != i {
			h.t.Fatalf("after %s: event in slot %d has index %d", op, i, en.ev.index)
		}
		if i > 0 && en.before(&q[(i-1)/4]) {
			h.t.Fatalf("after %s: slot %d orders before its parent", op, i)
		}
	}
	if h.sim.Pending() != len(h.ref) {
		h.t.Fatalf("after %s: Pending = %d, reference holds %d", op, h.sim.Pending(), len(h.ref))
	}
	st := h.sim.Stats()
	if st.MaxHeapDepth != h.peak || st.Scheduled != h.seq {
		h.t.Fatalf("after %s: MaxHeapDepth/Scheduled = %d/%d, reference %d/%d",
			op, st.MaxHeapDepth, st.Scheduled, h.peak, h.seq)
	}
}

// TestHeapMatchesReference drives seeded random interleavings of
// Schedule, ScheduleCall, Cancel (top, last and middle slot, and
// already-fired events), Step, Run and Reset at pending depths up to
// 3000, with the freelist on and off, and checks every firing against a
// reference that orders by (time, seq). After each operation every
// queued event's index must equal its slot.
func TestHeapMatchesReference(t *testing.T) {
	for _, depth := range []int{10, 300, 3000} {
		for _, reuse := range []bool{false, true} {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("depth=%d/reuse=%v/seed=%d", depth, reuse, seed), func(t *testing.T) {
					h := &heapHarness{
						t:     t,
						rng:   stats.NewRNG(seed, uint64(depth)),
						sim:   &Simulation{},
						reuse: reuse,
						byEv:  make(map[*Event]*refItem),
					}
					if reuse {
						h.sim.EnableEventReuse()
					}
					counts := map[string]int{}
					for op := 0; op < 1500; op++ {
						name := h.randomOp(depth)
						counts[name]++
						h.check(name)
					}
					h.run(math.Inf(1))
					h.check("drain")
					for _, name := range []string{"schedule", "step", "run", "cancel-top", "cancel-last", "cancel-mid"} {
						if counts[name] == 0 {
							t.Errorf("operation %s never ran", name)
						}
					}
				})
			}
		}
	}
}

// randomOp performs one random operation and returns its name. Below
// the target depth it mostly schedules bursts, above it mostly fires and
// cancels, so the pending count wanders around depth.
func (h *heapHarness) randomOp(depth int) string {
	n := len(h.ref)
	r := h.rng.Float64()
	switch {
	case r < 0.002:
		h.reset()
		return "reset"
	case n < depth && r < 0.5:
		for i, k := 0, 1+h.rng.Intn(max(1, depth/20)); i < k; i++ {
			h.schedule()
		}
		return "schedule"
	case n == 0 || r < 0.55:
		h.schedule()
		return "schedule"
	case r < 0.62:
		h.cancelSlot(0)
		return "cancel-top"
	case r < 0.69:
		h.cancelSlot(n - 1)
		return "cancel-last"
	case r < 0.76:
		h.cancelSlot(n / 2)
		return "cancel-mid"
	case r < 0.80:
		// Canceling a fired event is a no-op. With the freelist on the
		// contract forbids it (the storage may already be reused).
		if h.reuse || len(h.fired) == 0 {
			h.step()
			return "step"
		}
		ev := h.fired[h.rng.Intn(len(h.fired))].ev
		h.sim.Cancel(ev)
		return "cancel-fired"
	case r < 0.92:
		h.step()
		return "step"
	default:
		h.run(h.sim.Now() + h.rng.Float64()*0.5)
		return "run"
	}
}
