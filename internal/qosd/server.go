// Package qosd is the QoS-evaluation service behind cmd/satqosd: a
// long-running HTTP server that answers "what QoS does this
// constellation + protocol + fault scenario deliver" queries over the
// same analytic model and Monte-Carlo episode engine the batch CLIs
// use. The server adds what a daemon needs and a CLI doesn't: an
// episode-weighted admission budget with explicit 429 load shedding,
// graceful degradation to analytic-only answers under pressure, a
// canonical-key response cache, per-request deadlines threaded into the
// episode engine as context cancellation, and a metrics/trace surface
// on the shared debug mux.
//
// Monte-Carlo answers are bit-identical to oaqbench for the same
// parameters and seed at any server worker count: evaluation goes
// through oaq.EvaluateParallelCtx, whose fixed shard decomposition
// makes the answer a pure function of (params, episodes, seed).
package qosd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"satqos/internal/constellation"
	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/obs/trace"
	"satqos/internal/orbit"
	"satqos/internal/qos"
)

// maxRequestBytes bounds a /v1/evaluate body: the decoder reads at
// most this much, and a longer body is refused with 413 instead of
// being buffered whole.
const maxRequestBytes = 1 << 20

// Evaluation modes (Request.Mode and Response.Mode).
const (
	ModeAnalytic   = "analytic"
	ModeMonteCarlo = "montecarlo"
	ModeStochGeom  = "stochgeom"
	ModeAuto       = "auto"
)

// Response is the /v1/evaluate answer.
type Response struct {
	// Mode is the path that actually produced the answer ("analytic" or
	// "montecarlo") — for auto requests it reveals whether the server
	// degraded.
	Mode string `json:"mode"`
	// Degraded is true when an auto request wanted Monte-Carlo but the
	// admission budget forced the analytic fallback.
	Degraded bool `json:"degraded,omitempty"`
	// Cached is true when the answer was served from the response cache.
	Cached bool `json:"cached,omitempty"`

	Preset   string `json:"preset"`
	K        int    `json:"k"`
	Scheme   string `json:"scheme"`
	Episodes int    `json:"episodes,omitempty"` // Monte-Carlo only
	Seed     uint64 `json:"seed,omitempty"`     // Monte-Carlo only

	// PYGE[y] is P(Y ≥ y) for y = 0..3, the paper's QoS measure.
	PYGE      [qos.NumLevels]float64 `json:"p_y_ge"`
	MeanLevel float64                `json:"mean_level"`

	// Stochastic-geometry detail (stochgeom answers only): the BPP
	// visible-count law at the request latitude.
	LatitudeDeg      float64 `json:"latitude_deg,omitempty"`
	VisibleMean      float64 `json:"visible_mean,omitempty"`
	CoverageFraction float64 `json:"coverage_fraction,omitempty"`
	Localizability   float64 `json:"localizability,omitempty"`
	PKVisible        float64 `json:"p_k_visible,omitempty"`

	// Monte-Carlo detail (absent on analytic answers).
	DeliveredFraction   float64           `json:"delivered_fraction,omitempty"`
	DetectedFraction    float64           `json:"detected_fraction,omitempty"`
	MeanChainLength     float64           `json:"mean_chain_length,omitempty"`
	MeanMessages        float64           `json:"mean_messages,omitempty"`
	MeanDeliveryLatency float64           `json:"mean_delivery_latency_min,omitempty"`
	Terminations        map[string]int    `json:"terminations,omitempty"`
	AlertLatency        *LatencyQuantiles `json:"alert_latency,omitempty"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// Config parameterizes a Server. Zero values pick serving defaults.
type Config struct {
	// Registry receives the server's own satqosd_* metrics plus the
	// merged per-request oaq_* metrics; it also backs the debug mux's
	// /metrics endpoints. Required.
	Registry *obs.Registry
	// Workers is the episode-engine worker count per Monte-Carlo request
	// (default GOMAXPROCS). The answer does not depend on it.
	Workers int
	// MaxEpisodes caps a single request's episode budget (default 1e6).
	MaxEpisodes int
	// MCBudget caps the total episodes admitted across in-flight
	// Monte-Carlo requests (default 4·MaxEpisodes). Requests that would
	// exceed it are shed (montecarlo mode) or degraded (auto mode).
	MCBudget int64
	// CacheSize is the response-cache capacity in entries (default 256;
	// negative disables caching).
	CacheSize int
	// RequestTimeout bounds each evaluation (default 30s). A request's
	// timeout_ms may shorten, never extend, it.
	RequestTimeout time.Duration
	// EnumLimit is the fleet size at which auto-mode requests switch
	// from position enumeration (Monte-Carlo) to the stochastic-geometry
	// backend (default 1000). The choice is deterministic per request so
	// it can key the response cache.
	EnumLimit int
	// Tracing, when non-nil, samples episode traces from served
	// Monte-Carlo evaluations into its collector.
	Tracing *trace.Config
}

// Server evaluates QoS queries over HTTP. Create with NewServer and
// mount Handler on an http.Server.
type Server struct {
	cfg   Config
	cache *responseCache

	// inflightEpisodes is the admission ledger: episodes of admitted,
	// not-yet-finished Monte-Carlo requests. Admission is a CAS so a
	// burst can't collectively overshoot the budget.
	inflightEpisodes atomic.Int64

	// scanners holds one long-lived SharedScanner per preset, built
	// lazily on the first /v1/coverage query and shared by every
	// subsequent request — the read-mostly alternative to a per-request
	// scanner. scanMu guards only (de)registration; queries go straight
	// to the scanner's lock-free snapshot.
	scanMu   sync.Mutex
	scanners map[string]*constellation.SharedScanner

	requests  *obs.Counter
	errors    *obs.Counter
	shed      *obs.Counter
	degraded  *obs.Counter
	cacheHit  *obs.Counter
	cacheMiss *obs.Counter
	analytic  *obs.Counter
	mc        *obs.Counter
	stoch     *obs.Counter
	coverage  *obs.Counter
	inflight  *obs.Gauge
	budget    *obs.Gauge
	latency   *obs.Histogram
}

// NewServer validates cfg, applies defaults, and pre-registers the
// server's metric families so scrapes see them at zero before traffic.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("qosd: Config.Registry is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxEpisodes <= 0 {
		cfg.MaxEpisodes = 1_000_000
	}
	if cfg.MCBudget <= 0 {
		cfg.MCBudget = 4 * int64(cfg.MaxEpisodes)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.EnumLimit <= 0 {
		cfg.EnumLimit = 1000
	}
	if cfg.Tracing != nil {
		if err := cfg.Tracing.Validate(); err != nil {
			return nil, fmt.Errorf("qosd: tracing config: %w", err)
		}
	}
	r := cfg.Registry
	s := &Server{
		cfg:       cfg,
		cache:     newResponseCache(cfg.CacheSize),
		scanners:  make(map[string]*constellation.SharedScanner),
		requests:  r.Counter("satqosd_requests_total", "Evaluation requests received."),
		errors:    r.Counter("satqosd_request_errors_total", "Evaluation requests answered with an error status."),
		shed:      r.Counter("satqosd_shed_total", "Monte-Carlo requests shed with 429 under budget pressure."),
		degraded:  r.Counter("satqosd_degraded_total", "Auto requests degraded to analytic-only under budget pressure."),
		cacheHit:  r.Counter("satqosd_cache_hits_total", "Responses served from the canonical-key cache."),
		cacheMiss: r.Counter("satqosd_cache_misses_total", "Evaluations computed on a cache miss."),
		analytic:  r.Counter("satqosd_analytic_total", "Answers produced by the closed-form model."),
		mc:        r.Counter("satqosd_montecarlo_total", "Answers produced by the episode engine."),
		stoch:     r.Counter("satqosd_stochgeom_total", "Answers produced by the stochastic-geometry backend."),
		coverage:  r.Counter("satqosd_coverage_total", "Coverage queries served from the shared scanner."),
		inflight:  r.Gauge("satqosd_inflight_requests", "Evaluation requests currently being served."),
		budget:    r.Gauge("satqosd_inflight_episodes", "Episodes admitted to in-flight Monte-Carlo evaluations."),
		latency:   r.Histogram("satqosd_request_seconds", "Evaluation wall-clock per request.", obs.DurationBuckets),
	}
	return s, nil
}

// Handler is the server's full mux: POST /v1/evaluate, GET /healthz,
// and the obs debug surface (/metrics, /metrics.json, /debug/pprof/).
func (s *Server) Handler() http.Handler {
	mux := obs.DebugMux(s.cfg.Registry)
	mux.HandleFunc("/v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("/v1/coverage", s.handleCoverage)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"inflight_requests\":%d,\"inflight_episodes\":%d}\n",
		s.inflight.Value(), s.inflightEpisodes.Load())
}

// admitMC reserves episodes from the Monte-Carlo budget; the returned
// release must be called exactly once when false is not returned.
func (s *Server) admitMC(episodes int) (release func(), ok bool) {
	n := int64(episodes)
	for {
		cur := s.inflightEpisodes.Load()
		if cur+n > s.cfg.MCBudget {
			return nil, false
		}
		if s.inflightEpisodes.CompareAndSwap(cur, cur+n) {
			s.budget.Set(cur + n)
			return func() {
				v := s.inflightEpisodes.Add(-n)
				s.budget.Set(v)
			}, true
		}
	}
}

// httpError is an evaluation failure with a definite status code.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(w, status, fmt.Errorf("decoding request: %w", err))
		return
	}
	resp, herr := s.evaluate(r.Context(), &req)
	elapsed := time.Since(start)
	s.latency.Observe(elapsed.Seconds())
	if herr != nil {
		s.fail(w, herr.status, herr.err)
		return
	}
	resp.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		// Headers are gone; nothing to do but note it.
		s.errors.Inc()
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	w.Write(append(body, '\n'))
}

// evaluate answers one resolved request. The returned *httpError is nil
// on success.
func (s *Server) evaluate(ctx context.Context, req *Request) (*Response, *httpError) {
	rv, err := req.resolve(s.cfg.MaxEpisodes, s.cfg.EnumLimit)
	if err != nil {
		var bad badRequestError
		if errors.As(err, &bad) {
			return nil, &httpError{http.StatusBadRequest, err}
		}
		return nil, &httpError{http.StatusInternalServerError, err}
	}

	if resp, ok := s.cache.get(rv.key); ok {
		s.cacheHit.Inc()
		return &resp, nil
	}
	s.cacheMiss.Inc()

	wantMC := rv.backend == ModeMonteCarlo
	degraded := false
	var release func()
	if wantMC {
		var ok bool
		if release, ok = s.admitMC(rv.episodes); !ok {
			if rv.mode == ModeMonteCarlo {
				s.shed.Inc()
				return nil, &httpError{http.StatusTooManyRequests,
					fmt.Errorf("monte-carlo budget exhausted (%d episodes in flight, cap %d); retry or use mode=analytic",
						s.inflightEpisodes.Load(), s.cfg.MCBudget)}
			}
			// auto: degrade to the closed-form answer instead of failing.
			s.degraded.Inc()
			wantMC, degraded = false, true
		}
	}

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var resp *Response
	switch {
	case wantMC:
		defer release()
		resp, err = s.evaluateMC(ctx, rv)
	case rv.backend == ModeStochGeom:
		resp, err = s.evaluateStochGeom(rv)
	default:
		resp, err = s.evaluateAnalytic(rv)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return nil, &httpError{http.StatusGatewayTimeout,
				fmt.Errorf("evaluation exceeded its %v deadline", timeout)}
		case errors.Is(err, context.Canceled):
			return nil, &httpError{http.StatusServiceUnavailable, err}
		default:
			return nil, &httpError{http.StatusInternalServerError, err}
		}
	}
	resp.Degraded = degraded
	if !degraded {
		// Degraded answers reflect transient pressure, not the request;
		// caching them would keep serving the fallback after load clears.
		s.cache.put(rv.key, *resp)
	}
	return resp, nil
}

// evaluateAnalytic answers from the closed-form model: the conditional
// PMF at fixed k, or its composition over the deployment policy's
// capacity distribution when one was supplied.
func (s *Server) evaluateAnalytic(rv *resolved) (*Response, error) {
	var pmf qos.PMF
	var err error
	if rv.capures != nil {
		dist, derr := rv.capures.Analytic()
		if derr != nil {
			return nil, derr
		}
		pmf, err = rv.model.Compose(rv.scheme, dist)
	} else {
		pmf, err = rv.model.ConditionalPMF(rv.scheme, rv.k)
	}
	if err != nil {
		return nil, err
	}
	s.analytic.Inc()
	resp := &Response{
		Mode:      ModeAnalytic,
		Preset:    rv.preset,
		K:         rv.k,
		Scheme:    rv.scheme.String(),
		MeanLevel: pmf.Mean(),
	}
	for y := qos.Level(0); y < qos.NumLevels; y++ {
		resp.PYGE[y] = pmf.CCDF(y)
	}
	return resp, nil
}

// evaluateStochGeom answers from the stochastic-geometry backend: the
// BPP visible-count law of the design at the request latitude, plus
// the QoS composition of the analytic model over that law — the
// visible-count PMF enters qos.Model.Compose through the clamped
// capacity adapter, with mass outside [1, maxK] folded onto the
// bounds. Cost is independent of fleet size and of any time
// discretization.
func (s *Server) evaluateStochGeom(rv *resolved) (*Response, error) {
	v, err := rv.design.Evaluate(rv.lat)
	if err != nil {
		return nil, err
	}
	dist, err := v.CapacityDistribution(1, rv.maxK)
	if err != nil {
		return nil, err
	}
	pmf, err := rv.model.Compose(rv.scheme, dist)
	if err != nil {
		return nil, err
	}
	s.stoch.Inc()
	resp := &Response{
		Mode:             ModeStochGeom,
		Preset:           rv.preset,
		K:                rv.k,
		Scheme:           rv.scheme.String(),
		MeanLevel:        pmf.Mean(),
		LatitudeDeg:      rv.lat * 180 / math.Pi,
		VisibleMean:      v.Mean(),
		CoverageFraction: v.CoverageFraction(),
		Localizability:   v.Localizability(rv.minSats),
		PKVisible:        v.P(rv.k),
	}
	for y := qos.Level(0); y < qos.NumLevels; y++ {
		resp.PYGE[y] = pmf.CCDF(y)
	}
	return resp, nil
}

// sharedScanner returns the long-lived shared scanner of the preset,
// building it on first use. Every /v1/coverage query for a preset
// after the first reads the same scanner's lock-free snapshot.
func (s *Server) sharedScanner(preset string) (*constellation.SharedScanner, error) {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	if sc, ok := s.scanners[preset]; ok {
		return sc, nil
	}
	cfg, err := constellation.PresetConfig(preset)
	if err != nil {
		return nil, badRequestError{err}
	}
	c, err := constellation.New(cfg)
	if err != nil {
		return nil, err
	}
	sc := constellation.NewSharedScanner(c)
	s.scanners[preset] = sc
	return sc, nil
}

// handleCoverage serves GET /v1/coverage: the exact simultaneous-
// coverage count of a preset constellation at a ground target and
// time, from the preset's shared read-mostly scanner.
//
// Query parameters: preset (default reference), lat_deg (default 30),
// lon_deg (default 0), t_min (default 0).
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	preset := q.Get("preset")
	if preset == "" {
		preset = constellation.PresetReference
	}
	num := func(name string, def float64) (float64, error) {
		raw := q.Get(name)
		if raw == "" {
			return def, nil
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("bad %s %q", name, raw)
		}
		return v, nil
	}
	latDeg, err := num("lat_deg", 30)
	if err == nil && (latDeg < -90 || latDeg > 90) {
		err = fmt.Errorf("lat_deg %g outside [-90, 90]", latDeg)
	}
	var lonDeg, tMin float64
	if err == nil {
		lonDeg, err = num("lon_deg", 0)
	}
	if err == nil {
		tMin, err = num("t_min", 0)
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	sc, err := s.sharedScanner(preset)
	if err != nil {
		var bad badRequestError
		if errors.As(err, &bad) {
			s.fail(w, http.StatusBadRequest, err)
		} else {
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	target := orbit.LatLon{Lat: latDeg * math.Pi / 180, Lon: lonDeg * math.Pi / 180}
	n := sc.CoverageCount(target, tMin)
	s.coverage.Inc()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"preset\":%q,\"lat_deg\":%g,\"lon_deg\":%g,\"t_min\":%g,\"covering\":%d}\n",
		preset, latDeg, lonDeg, tMin, n)
}

// evaluateMC answers from the episode engine, with the request deadline
// threaded in as cancellation. Alert-latency quantiles come from a
// per-request registry that is merged into the server registry after
// the evaluation, so /metrics accumulates totals across requests.
func (s *Server) evaluateMC(ctx context.Context, rv *resolved) (*Response, error) {
	p := rv.params
	reqReg := obs.NewRegistry()
	p.Metrics = reqReg
	if s.cfg.Tracing != nil {
		p.Tracing = s.cfg.Tracing.WithScope("qosd/" + rv.preset)
	}
	ev, err := oaq.EvaluateParallelCtx(ctx, p, rv.episodes, rv.seed, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	s.mc.Inc()
	resp := &Response{
		Mode:                ModeMonteCarlo,
		Preset:              rv.preset,
		K:                   rv.k,
		Scheme:              rv.scheme.String(),
		Episodes:            ev.Episodes,
		Seed:                rv.seed,
		MeanLevel:           ev.PMF.Mean(),
		DeliveredFraction:   ev.DeliveredFraction,
		DetectedFraction:    ev.DetectedFraction,
		MeanChainLength:     ev.MeanChainLength,
		MeanMessages:        ev.MeanMessages,
		MeanDeliveryLatency: ev.MeanDeliveryLatency,
		Terminations:        make(map[string]int, len(ev.Terminations)),
	}
	for y := qos.Level(0); y < qos.NumLevels; y++ {
		resp.PYGE[y] = ev.PMF.CCDF(y)
	}
	for cause, n := range ev.Terminations {
		if n > 0 {
			resp.Terminations[cause.String()] = n
		}
	}
	if q, ok := latencyQuantiles(reqReg.Snapshot(), "oaq_alert_latency_minutes"); ok {
		resp.AlertLatency = &q
	}
	s.cfg.Registry.Merge(reqReg)
	return resp, nil
}
