package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark is tuned on is a shared two-vCPU machine
// whose memory-bound speed swings by up to 2× over seconds as other
// tenants come and go; pure ALU work barely moves, while allocation-,
// pointer- and map-heavy code — every layer here — moves with it. The
// process CPU clock removes preemption but not that swing. So the
// benchmark calibrates: between operations, at most every calInterval
// of CPU time, it times a fixed reference task of the same kind of
// work, and scales each operation by refNominal over the reference
// cost measured around it. Reported times are therefore in "quiet-host"
// units: what the operation costs when the reference task costs
// refNominal. The raw medians are printed on the "# raw" line.
const (
	calInterval = 25 * time.Millisecond
	refNominal  = 650 * time.Microsecond
)

// refSample is one timed run of the reference task.
type refSample struct {
	at   time.Duration // cpuNow after the run
	cost time.Duration
}

// calibrator times the reference task and maps any CPU-clock instant
// to the host speed around it.
type calibrator struct {
	last    time.Duration
	samples []refSample
}

// measure runs the reference task once and records its cost.
func (c *calibrator) measure() {
	start := cpuNow()
	referenceTask()
	end := cpuNow()
	c.samples = append(c.samples, refSample{at: end, cost: end - start})
	c.last = end
}

// tick measures the reference if calInterval of CPU time has passed
// since the last measurement. Workloads call it between operations.
func (c *calibrator) tick() {
	if cpuNow()-c.last >= calInterval {
		c.measure()
	}
}

// scale returns refNominal over the mean reference cost of the samples
// just before and just after t.
func (c *calibrator) scale(t time.Duration) float64 {
	i := sort.Search(len(c.samples), func(i int) bool { return c.samples[i].at > t })
	var sum time.Duration
	n := 0
	if i > 0 {
		sum += c.samples[i-1].cost
		n++
	}
	if i < len(c.samples) {
		sum += c.samples[i].cost
		n++
	}
	if n == 0 {
		return 1
	}
	return float64(refNominal) * float64(n) / float64(sum)
}

// calibrated returns d scaled to quiet-host units at instant t.
func (c *calibrator) calibrated(t, d time.Duration) float64 {
	return float64(d) * c.scale(t)
}

// calibratedSpan returns the CPU time between start and end in
// quiet-host units, leaving out the reference runs inside the span and
// scaling each stretch between them by the host speed around it.
func (c *calibrator) calibratedSpan(start, end time.Duration) float64 {
	var total float64
	from := start
	for _, s := range c.samples {
		if s.at <= start || s.at > end {
			continue
		}
		total += c.calibrated(from, s.at-s.cost-from)
		from = s.at
	}
	return total + c.calibrated(from, end-from)
}

type refNode struct {
	next  *refNode
	Val   int
	Name  string
	Score float64
}

// refState is the reference task's working set, built once so that the
// task allocates little: its garbage would otherwise move the garbage
// collector's schedule, and with it peak_rss_mib, from run to run.
var refState = func() struct {
	nodes []*refNode
	m     map[string]int
	keys  []string
	buf   bytes.Buffer
	back  []refNode
	queue refQueue
} {
	var st struct {
		nodes []*refNode
		m     map[string]int
		keys  []string
		buf   bytes.Buffer
		back  []refNode
		queue refQueue
	}
	st.nodes = make([]*refNode, 3000)
	for i := range st.nodes {
		st.nodes[i] = &refNode{Val: i * 7919 % 3001, Name: strconv.Itoa(i), Score: float64(i) / 3}
	}
	for i, n := range st.nodes {
		n.next = st.nodes[(i*1103+17)%len(st.nodes)]
	}
	st.m = make(map[string]int, len(st.nodes))
	return st
}()

// refSink keeps the reference task's result observable.
var refSink int

// referenceTask is a fixed, program-independent mix of the work the
// layers do — pointer chasing, map updates, JSON encoding and
// decoding, sorting, an event-queue hold loop — costing about
// refNominal on a quiet host.
func referenceTask() {
	st := &refState
	clear(st.m)
	p := st.nodes[0]
	for i := 0; i < 20000; i++ {
		p = p.next
		st.m[p.Name] += p.Val
	}
	st.buf.Reset()
	_ = json.NewEncoder(&st.buf).Encode(st.nodes[:60]) // plain structs always encode
	st.back = st.back[:0]
	_ = json.Unmarshal(st.buf.Bytes(), &st.back) // decoding what was just encoded
	st.keys = st.keys[:0]
	for k := range st.m {
		st.keys = append(st.keys, k)
	}
	sort.Strings(st.keys)
	// An event-queue hold loop: pop the earliest node, push it back
	// later, at a constant depth of 300.
	st.queue = append(st.queue[:0], st.nodes[:300]...)
	heap.Init(&st.queue)
	for i := 0; i < 1500; i++ {
		n := heap.Pop(&st.queue).(*refNode)
		n.Score += float64(n.Val%97) + 1
		heap.Push(&st.queue, n)
	}
	refSink += len(st.keys) + len(st.back) + st.queue[0].Val
}

// refQueue is a binary min-heap of nodes by Score.
type refQueue []*refNode

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].Score < q[j].Score }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refNode)) }
func (q *refQueue) Pop() any {
	old := *q
	n := old[len(old)-1]
	*q = old[:len(old)-1]
	return n
}
