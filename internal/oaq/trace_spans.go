package oaq

import "satqos/internal/obs/trace"

// This file is the span-tracing glue of the episode engine (the
// fmt-based event timeline of trace.go is a separate, older facility).
// Every hook is gated on e.rec != nil, so episodes without a tracing
// config pay one pointer compare per site and allocate nothing.

// termTraceLabels memoizes the KindTermination span label per cause, so
// the recording path never formats.
var termTraceLabels = func() [numTerminations]string {
	var l [numTerminations]string
	for t := TermNone; int(t) < numTerminations; t++ {
		l[int(t)] = "term:" + t.String()
	}
	return l
}()

// setTracer attaches (or with nil, detaches) a span recorder to the
// runner's whole simulation stack: the des kernel (dispatch spans), both
// crosslink fabrics (message spans and drop events), and the episode
// engine itself (episode, phase, compute, and await spans).
func (r *episodeRunner) setTracer(rec *trace.Recorder) {
	r.ep.rec = rec
	r.ep.sim.SetTracer(rec)
	r.ep.net.SetTracer(rec)
	r.ep.ground.SetTracer(rec)
}

// newShardRecorder builds the per-shard recorder for an evaluation, or
// nil when tracing is off. Each shard worker owns its recorder (the
// recorder is single-goroutine, like the runner); retained traces merge
// in the shared Collector, which sorts by episode ordinal — so the
// retained set is identical at any worker count.
func newShardRecorder(cfg *trace.Config) *trace.Recorder {
	if cfg == nil {
		return nil
	}
	return trace.NewRecorder(cfg)
}

// startTrace opens the episode's root span. Called from run() after the
// signal has been placed; e.ord must already hold the episode's global
// ordinal.
func (e *episode) startTrace() {
	e.rec.StartEpisode(e.ord)
	e.rootSpan = e.rec.Begin(trace.KindEpisode, "episode", trace.SatKernel, e.sigStart)
}

// finishTrace closes the root span, annotates the termination cause, and
// lets the recorder decide retention from the episode outcome. The
// invariant check runs only when the anomaly policy asks for it.
func (e *episode) finishTrace(res *EpisodeResult, endAt float64) {
	if e.terminationSeen {
		e.rec.Event(trace.KindTermination, termTraceLabels[int(e.termination)],
			trace.SatKernel, endAt, float64(e.termination))
	}
	e.rec.EndArg(e.rootSpan, endAt, float64(e.termination))
	violated := false
	if e.rec.WantInvariant() {
		violated = e.net.Stats().CheckInvariant() != nil ||
			e.ground.Stats().CheckInvariant() != nil ||
			(e.fab != nil && e.fab.Stats().CheckInvariant() != nil)
	}
	e.rec.FinishEpisode(trace.Outcome{
		Detected:           res.Detected,
		Delivered:          res.Delivered,
		RetriesExhausted:   res.Termination == TermRetriesExhausted,
		LatencyMin:         res.DeliveryLatency,
		InvariantViolation: violated,
	})
}

// tracedShard wraps one evaluation shard with tracing bookkeeping:
// attach a per-shard recorder, seed the ordinal base, and flush retained
// traces to the collector when done. It returns a detach func; both
// halves are no-ops when tracing is off.
func (r *episodeRunner) attachShardTracer(cfg *trace.Config, ordBase uint64) func() {
	rec := newShardRecorder(cfg)
	if rec == nil {
		return func() {}
	}
	r.setTracer(rec)
	r.ep.ord = ordBase
	return func() {
		rec.Flush()
		r.setTracer(nil)
	}
}
