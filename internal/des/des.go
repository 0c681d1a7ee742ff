// Package des is a deterministic discrete-event simulation kernel.
//
// It drives the two simulations in this repository: the long-horizon
// constellation degradation process (failures, spare deployments) and
// the short-horizon OAQ coordination episodes (crosslink messages,
// geolocation iterations). Events scheduled at equal times fire in
// schedule order (FIFO), which makes runs reproducible bit-for-bit for a
// fixed seed.
package des

import (
	"fmt"
	"math"

	"satqos/internal/obs/trace"
)

// Handler is invoked when an event fires. now is the simulation time of
// the event.
type Handler func(now float64)

// ArgHandler is the allocation-free handler form used by ScheduleCall:
// a plain (usually package-level) function receiving the scheduling-time
// argument back at dispatch. Because neither the function value nor the
// argument requires a per-event closure, hot loops that schedule many
// short-lived events can stay free of heap allocations.
type ArgHandler func(now float64, arg any)

// Event is a scheduled occurrence. Events are created by
// Simulation.Schedule and may be canceled before they fire.
type Event struct {
	time     float64
	index    int // heap slot, -1 once fired, canceled or reset away
	canceled bool
	handler  Handler
	argFn    ArgHandler
	arg      any
	label    string
}

// Time returns the simulation time at which the event is scheduled.
func (e *Event) Time() float64 { return e.time }

// Label returns the diagnostic label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Simulation is a single-threaded event-driven simulator. The zero value
// is a simulation positioned at time 0 with no events; it is ready to
// use.
type Simulation struct {
	now    float64
	queue  eventQueue
	seq    uint64
	fired  uint64
	halted bool
	// reuse enables the fired-event freelist (see EnableEventReuse).
	reuse bool
	free  []*Event
	// tracer, when non-nil, records a dispatch span around every fired
	// event (see SetTracer). The kernel pays one nil check when tracing
	// is off.
	tracer *trace.Recorder
	// Kernel counters (see Stats); plain fields, since the simulation is
	// single-threaded by contract.
	freeHits   uint64
	freeMisses uint64
	maxDepth   int
}

// Stats is a snapshot of the kernel's counters since the last Reset.
// Scheduled counts Schedule calls, Fired dispatched events; FreelistHits
// and FreelistMisses split Scheduled by whether the event storage came
// from the recycled pool; MaxHeapDepth is the peak pending-event count.
type Stats struct {
	Scheduled      uint64
	Fired          uint64
	FreelistHits   uint64
	FreelistMisses uint64
	MaxHeapDepth   int
}

// Stats returns the kernel counters accumulated since the last Reset.
func (s *Simulation) Stats() Stats {
	return Stats{
		Scheduled:      s.seq,
		Fired:          s.fired,
		FreelistHits:   s.freeHits,
		FreelistMisses: s.freeMisses,
		MaxHeapDepth:   s.maxDepth,
	}
}

// Reset returns the simulation to time zero with an empty event queue,
// keeping the queue's backing storage and the recycled-event pool so a
// caller can run many short simulations back to back without
// reallocating. Any *Event previously returned by Schedule is invalid
// after a Reset.
func (s *Simulation) Reset() {
	for _, en := range s.queue {
		e := en.ev
		e.index = -1
		if s.reuse {
			e.handler = nil
			e.argFn = nil
			e.arg = nil
			s.free = append(s.free, e)
		}
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.halted = false
	s.freeHits = 0
	s.freeMisses = 0
	s.maxDepth = 0
}

// EnableEventReuse turns on recycling of fired events: Step returns each
// event's storage to a freelist that Schedule draws from. This is safe
// only for callers that never Cancel an event after it has fired and
// never retain the *Event returned by Schedule past its firing — a
// recycled pointer would then refer to an unrelated live event. The OAQ
// episode engine qualifies (it discards every schedule handle);
// package membership does not (its Ticker stop function cancels a
// possibly-fired event).
func (s *Simulation) EnableEventReuse() { s.reuse = true }

// ClearEventFreelist discards the recycled-event pool (keeping its
// backing array). The sharded evaluators call it when they draw a
// pooled runner for a fresh shard: the freelist hit/miss counters are
// published metrics, and they must be a function of the shard alone —
// not of how warm a pool the shard happened to inherit — for snapshots
// to stay bit-identical at any worker count.
func (s *Simulation) ClearEventFreelist() {
	clear(s.free)
	s.free = s.free[:0]
}

// SetTracer attaches (or with nil, detaches) a span recorder: every
// dispatched event is wrapped in a KindDispatch span labeled with the
// event's scheduling label, so protocol spans created inside the handler
// nest under it. The tracer survives Reset, mirroring the freelist.
func (s *Simulation) SetTracer(r *trace.Recorder) { s.tracer = r }

// Now returns the current simulation time.
func (s *Simulation) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// Pending returns the number of scheduled, non-canceled events. Cancel
// removes an event from the queue at once, so that is the queue length.
func (s *Simulation) Pending() int { return len(s.queue) }

// Schedule registers handler to run after delay units of simulation time.
// The label is for diagnostics. Scheduling into the past is a programming
// error and panics; simultaneous events run in scheduling order.
func (s *Simulation) Schedule(delay float64, label string, handler Handler) *Event {
	if handler == nil {
		panic("des: Schedule with nil handler")
	}
	return s.schedule(delay, label, handler, nil, nil)
}

// ScheduleCall registers fn to run after delay units of simulation time,
// passing arg back at dispatch. It is the allocation-free counterpart of
// Schedule: when fn is a package-level function and arg is a pointer, no
// per-event closure is heap-allocated, which keeps hot simulation loops
// (the OAQ episode engine) free of steady-state allocations.
func (s *Simulation) ScheduleCall(delay float64, label string, fn ArgHandler, arg any) *Event {
	if fn == nil {
		panic("des: ScheduleCall with nil handler")
	}
	return s.schedule(delay, label, nil, fn, arg)
}

// ScheduleCallAt is ScheduleCall at absolute simulation time t >= Now.
func (s *Simulation) ScheduleCallAt(t float64, label string, fn ArgHandler, arg any) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: ScheduleCallAt(%q) at %g before now %g", label, t, s.now))
	}
	return s.ScheduleCall(t-s.now, label, fn, arg)
}

// schedule is the common scheduling core behind Schedule and
// ScheduleCall; exactly one of handler and argFn is non-nil.
func (s *Simulation) schedule(delay float64, label string, handler Handler, argFn ArgHandler, arg any) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: Schedule(%q) with negative or NaN delay %g", label, delay))
	}
	s.seq++
	t := s.now + delay
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		// Field by field: assigning a whole Event literal would build
		// and block-copy the full struct on every recycled schedule.
		e.time = t
		e.canceled = false
		e.handler = handler
		e.argFn = argFn
		e.arg = arg
		e.label = label
		s.freeHits++
	} else {
		e = &Event{time: t, handler: handler, argFn: argFn, arg: arg, label: label}
		s.freeMisses++
	}
	s.queue.push(entry{time: t, seq: s.seq, ev: e})
	if len(s.queue) > s.maxDepth {
		s.maxDepth = len(s.queue)
	}
	return e
}

// ScheduleAt registers handler to run at absolute simulation time t >= Now.
func (s *Simulation) ScheduleAt(t float64, label string, handler Handler) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: ScheduleAt(%q) at %g before now %g", label, t, s.now))
	}
	return s.Schedule(t-s.now, label, handler)
}

// Cancel removes the event from the pending set; a canceled event never
// fires. Canceling an already-fired or already-canceled event is a no-op.
func (s *Simulation) Cancel(e *Event) {
	if e == nil {
		return
	}
	if e.index >= 0 {
		s.queue.remove(e.index)
	}
	e.canceled = true
}

// Halt stops the run loop after the current event completes. It is the
// mechanism by which an event handler ends a Run early.
func (s *Simulation) Halt() { s.halted = true }

// Step fires the next pending event, advancing the clock, and reports
// whether an event was fired.
func (s *Simulation) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.pop()
	s.now = e.time
	s.fired++
	if s.tracer != nil {
		sp := s.tracer.Begin(trace.KindDispatch, e.label, trace.SatKernel, s.now)
		if e.handler != nil {
			e.handler(s.now)
		} else {
			e.argFn(s.now, e.arg)
		}
		s.tracer.End(sp, s.now)
	} else if e.handler != nil {
		e.handler(s.now)
	} else {
		e.argFn(s.now, e.arg)
	}
	if s.reuse {
		// Recycled after the handler so a handler scheduling new
		// events cannot be handed its own in-flight event.
		e.handler = nil
		e.argFn = nil
		e.arg = nil
		s.free = append(s.free, e)
	}
	return true
}

// Run fires events until the queue drains, Halt is called, or the clock
// would pass horizon (events strictly after horizon remain pending). It
// returns the number of events fired during this call.
func (s *Simulation) Run(horizon float64) uint64 {
	if horizon < s.now {
		panic(fmt.Sprintf("des: Run horizon %g before now %g", horizon, s.now))
	}
	s.halted = false
	start := s.fired
	// Events strictly after the horizon stay pending.
	for !s.halted && len(s.queue) > 0 && s.queue[0].time <= horizon {
		s.Step()
	}
	// A run always leaves the clock at the horizon (unless halted early)
	// so that successive Run calls observe contiguous time.
	if !s.halted && s.now < horizon {
		s.now = horizon
	}
	return s.fired - start
}

// entry is one heap slot. The ordering key is stored inline so sifting
// compares slots without dereferencing their events.
type entry struct {
	time float64
	seq  uint64
	ev   *Event
}

// before is the queue order: by time, ties in scheduling order. Every
// seq is distinct, so this is a strict total order.
func (a *entry) before(b *entry) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap ordered by (time, seq): the children
// of slot i are 4i+1 … 4i+4. Each event's index tracks its slot, which
// Cancel uses to remove it in O(log n).
type eventQueue []entry

func (q *eventQueue) push(en entry) {
	*q = append(*q, en)
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest event; the queue must be
// non-empty.
func (q *eventQueue) pop() *Event {
	e := (*q)[0].ev
	q.remove(0)
	return e
}

// remove deletes the event in slot i.
func (q *eventQueue) remove(i int) {
	h := *q
	h[i].ev.index = -1
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
	}
	h[n] = entry{}
	*q = h[:n]
	if i != n && !q.down(i) {
		q.up(i)
	}
}

// up sifts slot i toward the root.
func (q eventQueue) up(i int) {
	x := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = x
	x.ev.index = i
}

// down sifts slot i toward the leaves and reports whether it moved.
func (q eventQueue) down(i0 int) bool {
	n := len(q)
	x := q[i0]
	i := i0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = x
	x.ev.index = i
	return i > i0
}

// Ticker schedules handler every period units of time, starting after the
// first period, until the returned stop function is called. It is used
// for the scheduled ground-spare deployment policy (period φ).
func (s *Simulation) Ticker(period float64, label string, handler Handler) (stop func()) {
	if period <= 0 || math.IsNaN(period) {
		panic(fmt.Sprintf("des: Ticker(%q) with non-positive period %g", label, period))
	}
	stopped := false
	var pending *Event
	var tick Handler
	tick = func(now float64) {
		if stopped {
			return
		}
		handler(now)
		if !stopped {
			pending = s.Schedule(period, label, tick)
		}
	}
	pending = s.Schedule(period, label, tick)
	return func() {
		stopped = true
		s.Cancel(pending)
	}
}
