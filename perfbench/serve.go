package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"time"

	"satqos/internal/capacity"
	"satqos/internal/constellation"
	"satqos/internal/fault"
	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/qos"
	"satqos/internal/qosd"
	"satqos/internal/stats"
	"satqos/internal/validate"
)

// serveOp is one request sent to the handler in-process: no listener,
// no transport, so every non-200 answer is the handler's own.
type serveOp struct {
	class  string // generator class, see the workloads
	key    int    // serve-montecarlo key index, -1 otherwise
	method string
	target string
	body   []byte
	t      timed
	status int
	resp   []byte
}

// do sends op through h and times ServeHTTP alone; building the request
// and recorder happens before the clock starts.
func (op *serveOp) do(h http.Handler) timed {
	var body io.Reader
	if op.body != nil {
		body = bytes.NewReader(op.body)
	}
	req := httptest.NewRequest(op.method, op.target, body)
	rec := httptest.NewRecorder()
	op.t.start = cpuNow()
	h.ServeHTTP(rec, req)
	op.t.d = cpuNow() - op.t.start
	op.status = rec.Code
	op.resp = rec.Body.Bytes()
	return op.t
}

// decodeResponse parses a 200 /v1/evaluate answer.
func decodeResponse(op *serveOp) (*qosd.Response, error) {
	if op.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", op.status, bytes.TrimSpace(op.resp))
	}
	var r qosd.Response
	if err := json.Unmarshal(op.resp, &r); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &r, nil
}

// answerDigest hashes an answer without its per-request fields
// (elapsed time, cache flag), so a cached answer must hash equal to the
// answer first computed for its key.
func answerDigest(r *qosd.Response) [32]byte {
	c := *r
	c.ElapsedMS, c.Cached = 0, false
	b, _ := json.Marshal(&c) // a decoded Response always re-encodes
	return sha256.Sum256(b)
}

// pmfOf rebuilds the QoS mass function from the answer's P(Y ≥ y).
func pmfOf(r *qosd.Response) qos.PMF {
	var p qos.PMF
	for y := range p {
		p[y] = r.PYGE[y]
		if y+1 < len(p) {
			p[y] -= r.PYGE[y+1]
		}
	}
	return p
}

// checkPYGE compares the answer's QoS measure and mean level with a
// directly computed mass function, bit for bit.
func checkPYGE(r *qosd.Response, pmf qos.PMF) error {
	for y := qos.Level(0); y < qos.NumLevels; y++ {
		if got, want := r.PYGE[y], pmf.CCDF(y); got != want {
			return fmt.Errorf("P(Y>=%d) = %v, direct call gives %v", y, got, want)
		}
	}
	if r.MeanLevel != pmf.Mean() {
		return fmt.Errorf("mean level %v, direct call gives %v", r.MeanLevel, pmf.Mean())
	}
	return nil
}

// newServer builds the in-process service every serve workload drives:
// one episode-engine worker per request, default cache and limits.
func newServer() (*qosd.Server, *obs.Registry, error) {
	reg := obs.NewRegistry()
	srv, err := qosd.NewServer(qosd.Config{Registry: reg, Workers: 1})
	return srv, reg, err
}

// mustOK sends op and fails unless the handler answered 200; it is the
// set-up's warm-up step, so it first gives the calibrator its turn.
func mustOK(h http.Handler, op *serveOp, cal *calibrator) error {
	cal.tick()
	op.do(h)
	if op.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", op.method, op.target, op.status, bytes.TrimSpace(op.resp))
	}
	return nil
}

func postOp(class string, key int, req any) serveOp {
	body, _ := json.Marshal(req) // plain structs always encode
	return serveOp{class: class, key: key, method: http.MethodPost, target: "/v1/evaluate", body: body}
}

// serve-montecarlo sizing: every Monte-Carlo request runs mcEpisodes
// (two engine shards). A round is the fixed mcPattern of requests;
// oldRepeatLag rounds back, a key's cache entry has been
// evicted by the ~11 fresh entries each round inserts into the
// 256-entry cache, while repeats drawn from the last recentRounds
// rounds are always still cached.
const (
	mcEpisodes   = 2048
	recentRounds = 5
	oldRepeatLag = 40
	mcWarmSeed   = 2003
)

// mcPattern is one round's request pattern. "mc": a fresh Monte-Carlo
// key at the next operating point of mcPoints; "old": the first key of
// round r−oldRepeatLag (evicted by now, so recomputed), or a fresh key
// at the first point before that round exists; "rep": a recent
// Monte-Carlo key (a cache hit); "an": a fresh analytic key with a
// deployment; "anrep": a recent analytic key (a hit).
var mcPattern = []string{"mc", "mc", "an", "mc", "rep", "mc", "old", "an",
	"mc", "rep", "mc", "anrep", "mc", "rep", "mc", "rep"}

// mcPoints are the operating points of a round's fresh Monte-Carlo
// keys, one each, so that every round carries the same mix of k,
// scheme, channel loss and retries, fail-silence, backward messaging
// and inline faults; only the engine seeds differ between rounds and
// between input seeds.
var mcPoints = []qosd.Request{
	{K: 8, Scheme: "oaq"},
	{K: 9, Scheme: "baq", LossProb: 0.2, Retries: 2, Faults: faultsJSON},
	{K: 10, Scheme: "oaq", LossProb: 0.05, Retries: 1},
	{K: 11, Scheme: "baq", FailSilentProb: 0.1, Backward: true},
	{K: 12, Scheme: "oaq", LossProb: 0.2, Retries: 2, FailSilentProb: 0.02},
	{K: 13, Scheme: "baq", LossProb: 0.05, Backward: true},
	{K: 14, Scheme: "oaq", Retries: 1, Faults: faultsJSON},
	{K: 10, Scheme: "baq", LossProb: 0.05, Retries: 1, FailSilentProb: 0.02},
}

// deployments is the analytic requests' deployment grid; set-up fills
// the capacity cache with all of it.
var deployments = func() []qosd.Deployment {
	var out []qosd.Deployment
	for _, eta := range []int{8, 10, 12} {
		for _, lambda := range []float64{1e-4, 3e-4, 1e-3} {
			for _, phi := range []float64{2160, 8760} {
				out = append(out, qosd.Deployment{Eta: eta, LambdaPerHour: lambda, PhiHours: phi})
			}
		}
	}
	return out
}()

// serveKey is one distinct request of serve-montecarlo and the digest
// of its first answer.
type serveKey struct {
	req    qosd.Request
	round  int
	seen   bool
	digest [32]byte
}

// serveMC is the serve-montecarlo workload.
type serveMC struct {
	seed uint64
	rng  *rand.Rand
	h    http.Handler
	reg  *obs.Registry
	// keys holds the keys a later request may repeat, by id: those of
	// the last recentRounds rounds and each round's first key until its
	// old repeat. Older keys are dropped, so the benchmark's own live
	// heap — which every collection marks — stays the same size.
	keys     map[int]*serveKey
	nextID   int
	recentMC []int // keys created in the last recentRounds rounds
	recentAn []int
	firstKey []int // per round, the round's first key
	ops      []serveOp

	geom      qos.Geometry
	refCfg    constellation.Config
	overhead  []float64
	respBytes int
	respOps   int
}

func newServeMC(seed uint64) (workload, error) {
	cfg, err := constellation.PresetConfig(constellation.PresetReference)
	if err != nil {
		return nil, err
	}
	geom, err := qos.NewGeometry(cfg.PeriodMin, cfg.CoverageTimeMin)
	if err != nil {
		return nil, err
	}
	return &serveMC{seed: seed, rng: rand.New(rand.NewPCG(seed, 0x736572766d63)), refCfg: cfg, geom: geom,
		keys: map[int]*serveKey{}}, nil
}

func (w *serveMC) registry() *obs.Registry { return w.reg }

// setup starts the service and pays what a restarted daemon pays once:
// one analytic request per deployment of the grid (each solves and
// caches its capacity distribution) and one Monte-Carlo request per
// scheme with and without faults (the pooled episode runner and its
// queues).
func (w *serveMC) setup(cal *calibrator) error {
	srv, reg, err := newServer()
	if err != nil {
		return err
	}
	w.reg, w.h = reg, srv.Handler()
	for _, d := range deployments {
		op := postOp("warm", -1, qosd.Request{Mode: qosd.ModeAnalytic, Deployment: &d})
		if err := mustOK(w.h, &op, cal); err != nil {
			return err
		}
	}
	for _, scheme := range []string{"oaq", "baq"} {
		for _, faults := range []json.RawMessage{nil, faultsJSON} {
			op := postOp("warm", -1, qosd.Request{Mode: qosd.ModeMonteCarlo, Scheme: scheme,
				LossProb: 0.1, Retries: 1, Faults: faults, Episodes: mcEpisodes, Seed: mcWarmSeed})
			if err := mustOK(w.h, &op, cal); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *serveMC) teardown() {
	w.h, w.reg = nil, nil
	capacity.ResetAnalyticCache()
	qos.ResetGTableCache()
}

// newMCKey adds a fresh Monte-Carlo key at operating point i of
// mcPoints; its random engine seed makes it distinct.
func (w *serveMC) newMCKey(r, i int) int {
	req := mcPoints[i]
	req.Mode = qosd.ModeMonteCarlo
	req.Episodes = mcEpisodes
	req.Seed = w.rng.Uint64() | 1
	id := w.addKey(req, r)
	w.recentMC = append(w.recentMC, id)
	return id
}

// newAnalyticKey draws a fresh analytic key: a deployment from the
// grid and a deadline τ drawn from a continuum, so keys never collide.
func (w *serveMC) newAnalyticKey(r int) int {
	d := deployments[w.rng.IntN(len(deployments))]
	req := qosd.Request{
		Mode:       qosd.ModeAnalytic,
		Scheme:     []string{"oaq", "baq"}[w.rng.IntN(2)],
		TauMin:     4 + 2*w.rng.Float64(),
		Deployment: &d,
	}
	id := w.addKey(req, r)
	w.recentAn = append(w.recentAn, id)
	return id
}

func (w *serveMC) addKey(req qosd.Request, r int) int {
	id := w.nextID
	w.nextID++
	w.keys[id] = &serveKey{req: req, round: r}
	return id
}

// trimKeys forgets the keys no request of round r or later repeats.
func (w *serveMC) trimKeys(r int) {
	trim := func(ids []int) []int {
		i := 0
		for ; i < len(ids) && w.keys[ids[i]].round <= r-recentRounds; i++ {
			if k := w.keys[ids[i]]; w.firstKey[k.round] != ids[i] {
				delete(w.keys, ids[i])
			}
		}
		return ids[i:]
	}
	w.recentMC, w.recentAn = trim(w.recentMC), trim(w.recentAn)
	if old := r - oldRepeatLag - 1; old >= 0 {
		delete(w.keys, w.firstKey[old])
	}
}

func (w *serveMC) round(r int, traced bool, cal *calibrator) []timed {
	w.trimKeys(r)
	w.ops = w.ops[:0]
	point := 0
	for _, kind := range mcPattern {
		var key int
		switch kind {
		case "mc":
			key = w.newMCKey(r, point)
			point++
		case "old":
			if r >= oldRepeatLag {
				key = w.firstKey[r-oldRepeatLag]
			} else {
				key = w.newMCKey(r, 0)
			}
		case "rep":
			key = w.recentMC[w.rng.IntN(len(w.recentMC))]
		case "an":
			key = w.newAnalyticKey(r)
		case "anrep":
			key = w.recentAn[w.rng.IntN(len(w.recentAn))]
		}
		if len(w.firstKey) == r {
			w.firstKey = append(w.firstKey, key)
		}
		w.ops = append(w.ops, postOp(kind, key, w.keys[key].req))
	}
	ts := make([]timed, len(w.ops))
	for i := range w.ops {
		cal.tick()
		ts[i] = w.ops[i].do(w.h)
	}
	return ts
}

// mcParams mirrors how the service resolves a Monte-Carlo request on
// the reference preset, for the direct comparison call.
func (w *serveMC) mcParams(req *qosd.Request) (oaq.Params, error) {
	scheme := qos.SchemeOAQ
	if req.Scheme == "baq" {
		scheme = qos.SchemeBAQ
	}
	p := oaq.ReferenceParams(req.K, scheme)
	p.Geom = w.geom
	p.TauMin = 5
	p.SignalDuration = stats.Exponential{Rate: 0.5}
	p.ComputeTime = stats.Exponential{Rate: 30}
	p.BackwardMessaging = req.Backward
	p.FailSilentProb = req.FailSilentProb
	p.MessageLossProb = req.LossProb
	p.RequestRetries = req.Retries
	if len(req.Faults) > 0 {
		s, err := fault.Parse(req.Faults)
		if err != nil {
			return p, err
		}
		p.Faults = s
	}
	return p, p.Validate()
}

// evaluationOf rebuilds the engine's Evaluation from a Monte-Carlo
// answer so validate.CheckEvaluation can check it.
func evaluationOf(r *qosd.Response) (*oaq.Evaluation, error) {
	ev := &oaq.Evaluation{
		Episodes:            r.Episodes,
		PMF:                 pmfOf(r),
		DeliveredFraction:   r.DeliveredFraction,
		DetectedFraction:    r.DetectedFraction,
		MeanChainLength:     r.MeanChainLength,
		MeanMessages:        r.MeanMessages,
		MeanDeliveryLatency: r.MeanDeliveryLatency,
		Terminations:        map[oaq.Termination]int{},
	}
	for name, n := range r.Terminations {
		t, ok := terminationByName[name]
		if !ok {
			return nil, fmt.Errorf("unknown termination cause %q", name)
		}
		ev.Terminations[t] = n
	}
	return ev, nil
}

var terminationByName = func() map[string]oaq.Termination {
	m := map[string]oaq.Termination{}
	for t := oaq.TermNone; t <= oaq.TermRetriesExhausted; t++ {
		m[t.String()] = t
	}
	return m
}()

// sameAsDirect compares a Monte-Carlo answer with the engine's own
// Evaluation, bit for bit.
func sameAsDirect(r *qosd.Response, ev *oaq.Evaluation) error {
	if err := checkPYGE(r, ev.PMF); err != nil {
		return err
	}
	if r.Episodes != ev.Episodes || r.DeliveredFraction != ev.DeliveredFraction ||
		r.DetectedFraction != ev.DetectedFraction || r.MeanChainLength != ev.MeanChainLength ||
		r.MeanMessages != ev.MeanMessages || r.MeanDeliveryLatency != ev.MeanDeliveryLatency {
		return fmt.Errorf("aggregates differ from the direct call: %+v vs %+v", r, ev)
	}
	for t, n := range ev.Terminations {
		if n > 0 && r.Terminations[t.String()] != n {
			return fmt.Errorf("termination %v: %d, direct call gives %d", t, r.Terminations[t.String()], n)
		}
	}
	return nil
}

// check verifies every answer of the round. Monte-Carlo answers must
// form a consistent Evaluation; the round's first one must equal a
// direct oaq.EvaluateParallel call with the same seed; analytic answers
// must equal a direct capacity + compose call; and every answer to a
// key seen before must be bit-identical to the key's first answer.
func (w *serveMC) check(r int, traced bool, sp *spans) int {
	failed := 0
	names := make([]string, len(w.ops))
	for i := range w.ops {
		op := &w.ops[i]
		resp, err := decodeResponse(op)
		names[i] = "qosd.Handler/mc_miss"
		var direct time.Duration
		if err == nil {
			names[i] = handlerSpan(resp)
			direct, err = w.checkAnswer(op, resp, i == 0, traced, sp)
		}
		if err != nil {
			fail("serve-montecarlo round %d op %d (%s, key %d): %v", r, i, op.class, op.key, err)
			failed++
			continue
		}
		if traced {
			w.respBytes += len(op.resp)
			w.respOps++
			if direct > 0 {
				w.overhead = append(w.overhead, float64((op.t.d-direct).Nanoseconds())/1e3)
			}
		}
	}
	if traced {
		ts := make([]timed, len(w.ops))
		for i := range w.ops {
			ts[i] = w.ops[i].t
		}
		sp.addRound(ts, func(i int) string { return names[i] })
	}
	return failed
}

// handlerSpan names a serve-montecarlo request's span by how it was
// answered.
func handlerSpan(resp *qosd.Response) string {
	switch {
	case resp.Mode == qosd.ModeAnalytic && resp.Cached:
		return "qosd.Handler/analytic_hit"
	case resp.Mode == qosd.ModeAnalytic:
		return "qosd.Handler/analytic"
	case resp.Cached:
		return "qosd.Handler/mc_hit"
	}
	return "qosd.Handler/mc_miss"
}

// checkAnswer checks one decoded answer; sample asks for the direct
// comparison call on a Monte-Carlo miss. It returns the duration of the
// direct backend call it made, if any.
func (w *serveMC) checkAnswer(op *serveOp, resp *qosd.Response, sample, traced bool, sp *spans) (time.Duration, error) {
	key := w.keys[op.key]
	var direct time.Duration
	switch key.req.Mode {
	case qosd.ModeMonteCarlo:
		if resp.Mode != qosd.ModeMonteCarlo || resp.Seed != key.req.Seed || resp.Episodes != mcEpisodes {
			return 0, fmt.Errorf("answer mode %q seed %d episodes %d for a Monte-Carlo request (seed %d)",
				resp.Mode, resp.Seed, resp.Episodes, key.req.Seed)
		}
		ev, err := evaluationOf(resp)
		if err != nil {
			return 0, err
		}
		if err := validate.CheckEvaluation(ev); err != nil {
			return 0, err
		}
		if sample && !resp.Cached {
			p, err := w.mcParams(&key.req)
			if err != nil {
				return 0, err
			}
			start := cpuNow()
			want, err := oaq.EvaluateParallel(p, mcEpisodes, key.req.Seed, 1)
			direct = cpuNow() - start
			if err != nil {
				return 0, err
			}
			if traced {
				sp.add("oaq.EvaluateParallel/direct", 0, start, start+direct)
			}
			if err := sameAsDirect(resp, want); err != nil {
				return 0, err
			}
		}
	case qosd.ModeAnalytic:
		if resp.Mode != qosd.ModeAnalytic {
			return 0, fmt.Errorf("answer mode %q for an analytic request", resp.Mode)
		}
		if err := validate.CheckPMF(pmfOf(resp)); err != nil {
			return 0, err
		}
		if !resp.Cached {
			d, pmf, err := w.analyticDirect(&key.req, traced, sp)
			if err != nil {
				return 0, err
			}
			if err := checkPYGE(resp, pmf); err != nil {
				return 0, err
			}
			direct = d
		}
	}
	if (op.class == "rep" || op.class == "anrep") && !resp.Cached {
		return 0, fmt.Errorf("repeat of a key from the last %d rounds was not served from the cache", recentRounds)
	}
	d := answerDigest(resp)
	if key.seen && d != key.digest {
		return 0, fmt.Errorf("answer differs from the key's first answer (cached=%t)", resp.Cached)
	}
	key.seen, key.digest = true, d
	return direct, nil
}

// analyticDirect computes an analytic answer without the service: the
// capacity distribution of the deployment, composed by the model.
func (w *serveMC) analyticDirect(req *qosd.Request, traced bool, sp *spans) (time.Duration, qos.PMF, error) {
	scheme := qos.SchemeOAQ
	if req.Scheme == "baq" {
		scheme = qos.SchemeBAQ
	}
	model, err := qos.NewModel(w.geom, req.TauMin, 0.5, 30)
	if err != nil {
		return 0, qos.PMF{}, err
	}
	cp := capacity.Params{ActivePerPlane: w.refCfg.ActivePerPlane, Spares: w.refCfg.SparesPerPlane,
		Eta: req.Deployment.Eta, LambdaPerHour: req.Deployment.LambdaPerHour, PhiHours: req.Deployment.PhiHours}
	start := cpuNow()
	dist, err := cp.Analytic()
	if err != nil {
		return 0, qos.PMF{}, err
	}
	mid := cpuNow()
	pmf, err := model.Compose(scheme, dist)
	end := cpuNow()
	if err != nil {
		return 0, qos.PMF{}, err
	}
	if traced {
		sp.add("capacity.Params.Analytic", 0, start, mid)
		sp.add("qos.Model.Compose", 0, mid, end)
	}
	return end - start, pmf, validate.CheckCapacityDistribution(dist)
}

func (w *serveMC) verify(traced bool, sp *spans) []error {
	var errs []error
	for _, name := range []string{"satqosd_request_errors_total", "satqosd_shed_total", "satqosd_degraded_total"} {
		if n := w.reg.Counter(name, "").Value(); n != 0 {
			errs = append(errs, fmt.Errorf("%s = %d, want 0", name, n))
		}
	}
	if traced {
		p, err := w.mcParams(&mcPoints[0])
		if err == nil {
			err = timeEpisodes(sp, p, "ideal", 64, w.seed)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (w *serveMC) layers(lm *layerMetrics) {
	lm.set("qosd.overhead_us", medianOrZero(w.overhead), "us")
	lm.set("qosd.response_bytes_per_op", ratio(float64(w.respBytes), float64(w.respOps)), "bytes")
}
