package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"satqos/internal/obs"
)

// span is one timed call the benchmark made into a layer. The
// operations of a traced round share the round's span as parent; the
// direct calls made while checking answers, and the kernel and episode
// probes, are roots.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps a traced run's spans in memory until the run ends. Span
// times are raw process CPU clock readings; durationsUS calibrates them
// to quiet-host units like every other reported time.
type spans struct {
	list []span
	cal  *calibrator
}

// add records a finished span and returns its id. Start and end are
// cpuNow readings.
func (s *spans) add(name string, parent int32, start, end time.Duration) int32 {
	id := int32(len(s.list)) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name,
		Start: start.Nanoseconds(), End: end.Nanoseconds()})
	return id
}

// timed is one operation's interval on the process CPU clock.
type timed struct {
	start time.Duration
	d     time.Duration
}

// addRound records a traced round: a "round" span covering its
// operations and one child span per operation, named by name(i).
func (s *spans) addRound(ops []timed, name func(i int) string) {
	if len(ops) == 0 {
		return
	}
	last := ops[len(ops)-1]
	parent := s.add("round", 0, ops[0].start, last.start+last.d)
	for i, op := range ops {
		s.add(name(i), parent, op.start, op.start+op.d)
	}
}

// durationsUS returns the calibrated durations in µs of every span
// with the name.
func (s *spans) durationsUS(name string) []float64 {
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			start, end := time.Duration(sp.Start), time.Duration(sp.End)
			out = append(out, s.cal.calibratedSpan(start, end)/1e3)
		}
	}
	return out
}

// maxWritten caps the spans written to the trace file; the metrics use
// every span.
const maxWritten = 20000

// write stores the first maxWritten spans as JSON lines.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, sp := range s.list {
		if i == maxWritten {
			break
		}
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Program counters the traced rounds difference: the workload's own
// registry (qosd's, or the one routed batches publish into) and the
// process-wide one (parallel engine, capacity and G-table caches).
var (
	programCounters = []string{
		"des_events_fired_total", "des_freelist_hits_total", "des_freelist_misses_total",
		"oaq_episodes_total", "oaq_retransmissions_total",
		"crosslink_messages_sent_total", "crosslink_dropped_loss_total",
		"crosslink_dropped_failsilent_total", "crosslink_dropped_queue_total",
		"route_packets_injected_total", "route_background_packets_total",
		"route_packets_delivered_total", "route_dropped_queue_total", "route_hops_total",
		"satqosd_cache_hits_total", "satqosd_cache_misses_total",
	}
	processCounters = []string{
		"parallel_shards_total",
		"capacity_analytic_cache_hits_total", "capacity_analytic_cache_misses_total",
		"qos_gtable_cache_hits_total", "qos_gtable_cache_misses_total",
	}
)

// counterSnap holds counter values by name plus the parallel engine's
// summed task busy time.
type counterSnap struct {
	c    map[string]uint64
	busy float64
}

// snapCounters reads the counters from the workload's registry and the
// process registry.
func snapCounters(program *obs.Registry) counterSnap {
	s := counterSnap{c: make(map[string]uint64, len(programCounters)+len(processCounters))}
	for _, n := range programCounters {
		s.c[n] = program.Counter(n, "").Value()
	}
	for _, n := range processCounters {
		s.c[n] = obs.Default().Counter(n, "").Value()
	}
	s.busy = obs.Default().Histogram("parallel_task_busy_seconds", "", obs.DurationBuckets).Sum()
	return s
}

// layerMetrics accumulates a traced run's per-layer numbers.
type layerMetrics struct {
	out    map[string]metric
	delta  map[string]uint64
	busy   float64
	allocs uint64
	bytes  uint64
	gcs    uint32
	ops    int
	wall   time.Duration // wall-clock time of the traced rounds
}

func newLayerMetrics() *layerMetrics {
	return &layerMetrics{out: map[string]metric{}, delta: map[string]uint64{}}
}

func (lm *layerMetrics) set(name string, v float64, unit string) { lm.out[name] = metric{v, unit} }

func (lm *layerMetrics) addCounters(a, b counterSnap) {
	for n, v := range b.c {
		lm.delta[n] += v - a.c[n]
	}
	lm.busy += b.busy - a.busy
}

func (lm *layerMetrics) addMem(a, b *runtime.MemStats) {
	lm.allocs += b.Mallocs - a.Mallocs
	lm.bytes += b.TotalAlloc - a.TotalAlloc
	lm.gcs += b.NumGC - a.NumGC
}

// ratio is a/b, or 0 when b is 0 (the layer was not reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOrZero is the median of xs, or 0 when the layer was not
// reached.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// finish derives the counter-based metrics every workload reports. A
// metric of a layer the workload does not reach reads 0.
func (lm *layerMetrics) finish(program *obs.Registry, sp *spans) {
	d := func(n string) float64 { return float64(lm.delta[n]) }
	ops := float64(lm.ops)
	eps := d("oaq_episodes_total")
	lm.set("des.events_per_episode", ratio(d("des_events_fired_total"), eps), "count")
	lm.set("des.heap_depth_max", float64(program.Gauge("des_heap_depth_max", "").Value()), "count")
	lm.set("des.freelist_hit_share", ratio(d("des_freelist_hits_total"),
		d("des_freelist_hits_total")+d("des_freelist_misses_total")), "share")
	lm.set("oaq.episodes_per_op", eps/ops, "count")
	lm.set("oaq.retransmissions_per_episode", ratio(d("oaq_retransmissions_total"), eps), "count")
	sent := d("crosslink_messages_sent_total")
	lm.set("crosslink.messages_per_episode", ratio(sent, eps), "count")
	lm.set("crosslink.drop_share", ratio(d("crosslink_dropped_loss_total")+
		d("crosslink_dropped_failsilent_total")+d("crosslink_dropped_queue_total"), sent), "share")
	inj := d("route_packets_injected_total")
	lm.set("route.background_packets_per_episode", ratio(d("route_background_packets_total"), eps), "count")
	lm.set("route.hops_per_episode", ratio(d("route_hops_total"), eps), "count")
	lm.set("route.delivered_share", ratio(d("route_packets_delivered_total"), inj), "share")
	lm.set("route.queue_drop_share", ratio(d("route_dropped_queue_total"), inj), "share")
	lm.set("parallel.shards_per_op", d("parallel_shards_total")/ops, "count")
	// The engine times its tasks on the wall clock.
	lm.set("parallel.busy_share", ratio(lm.busy, lm.wall.Seconds()), "share")
	lm.set("qosd.cache_hit_share", ratio(d("satqosd_cache_hits_total"),
		d("satqosd_cache_hits_total")+d("satqosd_cache_misses_total")), "share")
	lm.set("qosd.errors", float64(program.Counter("satqosd_request_errors_total", "").Value()), "count")
	lm.set("qosd.shed", float64(program.Counter("satqosd_shed_total", "").Value()), "count")
	lm.set("qosd.degraded", float64(program.Counter("satqosd_degraded_total", "").Value()), "count")
	lm.set("capacity.analytic_cache_hit_share", ratio(d("capacity_analytic_cache_hits_total"),
		d("capacity_analytic_cache_hits_total")+d("capacity_analytic_cache_misses_total")), "share")
	lm.set("qos.gtable_hit_share", ratio(d("qos_gtable_cache_hits_total"),
		d("qos_gtable_cache_hits_total")+d("qos_gtable_cache_misses_total")), "share")
	lm.set("runtime.alloc_bytes_per_op", float64(lm.bytes)/ops, "bytes")
	lm.set("runtime.allocs_per_op", float64(lm.allocs)/ops, "count")
	lm.set("runtime.gc_cycles_per_op", float64(lm.gcs)/ops, "count")
	// Set by the workloads that reach these layers.
	lm.set("qosd.overhead_us", 0, "us")
	lm.set("qosd.response_bytes_per_op", 0, "bytes")
	lm.set("stochgeom.zero_answer_share", 0, "share")
	lm.set("capacity.fold_mismatch_share", 0, "share")

	for _, c := range []string{"mc_miss", "mc_hit", "analytic", "stochgeom", "coverage"} {
		lm.set("qosd.handler_us."+c, medianOrZero(sp.durationsUS("qosd.Handler/"+c)), "us")
	}
	lm.set("qos.compose_us", medianOrZero(sp.durationsUS("qos.Model.Compose")), "us")
	lm.set("stochgeom.evaluate_us.zero_band", medianOrZero(sp.durationsUS("stochgeom.Design.Evaluate/zero_band")), "us")
	lm.set("stochgeom.evaluate_us.other", medianOrZero(sp.durationsUS("stochgeom.Design.Evaluate/other")), "us")
	lm.set("oaq.episode_us.ideal", episodeUS(sp, "ideal"), "us")
	lm.set("oaq.episode_us.routed", episodeUS(sp, "routed"), "us")
	for _, p := range presetNames {
		lm.set("constellation.coverage_count_us."+p,
			medianOrZero(sp.durationsUS("constellation.SharedScanner.CoverageCount/"+p)), "us")
	}
	for _, depth := range desDepths {
		lm.set(fmt.Sprintf("des.ns_per_event.depth%d", depth), desNsPerEvent(sp, depth), "ns")
	}
}
