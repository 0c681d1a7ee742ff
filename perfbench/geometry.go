package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"satqos/internal/constellation"
	"satqos/internal/obs"
	"satqos/internal/orbit"
	"satqos/internal/qos"
	"satqos/internal/qosd"
	"satqos/internal/stochgeom"
	"satqos/internal/validate"
)

// presetNames are the five constellation presets, in stable order.
var presetNames = constellation.PresetNames()

// zeroBands are the latitude bands (degrees, both hemispheres) where
// stochgeom.Shell.VisibleProb returns exactly 0 on each preset although
// the shell reaches them: the known cap-integral defect, measured by a
// 0.1° sweep. serve-geometry keeps half its preset queries inside these
// bands so the defect and its cost stay visible until it is fixed.
var zeroBands = map[string][][2]float64{
	constellation.PresetReference:   {{18.0, 26.9}, {62.9, 68.0}},
	constellation.PresetIridiumNEXT: {{19.8, 25.2}, {64.6, 66.7}},
	constellation.PresetKepler:      {{15.9, 28.6}, {60.2, 65.6}},
	constellation.PresetOneWeb:      {{20.6, 24.4}, {65.5, 65.9}},
	constellation.PresetStarlink:    {{8.5, 26.0}, {42.9, 44.6}},
}

// inZeroBand reports whether |latDeg| lies in one of the preset's bands.
func inZeroBand(preset string, latDeg float64) bool {
	a := math.Abs(latDeg)
	for _, b := range zeroBands[preset] {
		if a >= b[0] && a <= b[1] {
			return true
		}
	}
	return false
}

// geoPreset is the benchmark's own view of one preset: the BPP design
// and analytic model the service resolves it to, a private exact
// scanner for checking coverage counts, and a shared scanner for
// timing them.
type geoPreset struct {
	design  stochgeom.Design
	model   qos.Model
	k, maxK int
	scanner *constellation.Scanner
	shared  *constellation.SharedScanner
}

// geoAnswer is the part of the /v1/coverage answer the check reads.
type geoAnswer struct {
	Preset   string `json:"preset"`
	Covering int    `json:"covering"`
}

// geoQuery is what the generator drew for one op.
type geoQuery struct {
	preset     string
	latDeg     float64
	lonDeg     float64
	tMin       float64
	scheme     string
	minSats    int
	shells     []qosd.ShellSpec
	zeroBand   bool
	isCoverage bool
}

// serveGeometry is the serve-geometry workload. Every round holds the
// same 34-request mix: for each preset, one stochgeom evaluation inside
// each of its two zero bands, one at a low and one at a high latitude
// outside them, and two coverage queries; plus four explicit shell
// mixtures, two LEO/MEO hybrids and two LEO pairs.
type serveGeometry struct {
	rng     *rand.Rand
	h       http.Handler
	reg     *obs.Registry
	presets map[string]*geoPreset
	ops     []serveOp
	queries []geoQuery

	overhead     []float64
	respBytes    int
	respOps      int
	answers      int
	foldMismatch int
	reachable    int
	zeroAnswers  int
}

// newServeGeometry builds the workload with its own view of every
// preset.
func newServeGeometry(seed uint64) (workload, error) {
	w := &serveGeometry{rng: rand.New(rand.NewPCG(seed, 0x67656f6d)), presets: map[string]*geoPreset{}}
	for _, name := range presetNames {
		g, err := newGeoPreset(name)
		if err != nil {
			return nil, err
		}
		w.presets[name] = g
	}
	return w, nil
}

func (w *serveGeometry) registry() *obs.Registry { return w.reg }

// setup starts the service and warms every path the rounds use: one
// coverage query per preset builds that preset's shared scanner, and
// one evaluation per preset and one shell mixture touch the stochgeom
// and compose paths.
func (w *serveGeometry) setup(cal *calibrator) error {
	srv, reg, err := newServer()
	if err != nil {
		return err
	}
	w.reg, w.h = reg, srv.Handler()
	lat := 30.0
	for _, p := range presetNames {
		cov := coverageOp(geoQuery{preset: p, latDeg: lat})
		if err := mustOK(w.h, &cov, cal); err != nil {
			return err
		}
		ev := postOp("warm", -1, qosd.Request{Mode: qosd.ModeStochGeom, Preset: p, LatitudeDeg: &lat})
		if err := mustOK(w.h, &ev, cal); err != nil {
			return err
		}
	}
	mix := postOp("warm", -1, qosd.Request{Mode: qosd.ModeAuto, LatitudeDeg: &lat, Shells: []qosd.ShellSpec{
		{N: 600, AltitudeKm: 550, InclinationDeg: 53, MinElevationDeg: 25},
		{N: 24, AltitudeKm: 20200, InclinationDeg: 55, MinElevationDeg: 10},
	}})
	return mustOK(w.h, &mix, cal)
}

func (w *serveGeometry) teardown() { w.h, w.reg = nil, nil }

func newGeoPreset(name string) (*geoPreset, error) {
	cfg, err := constellation.PresetConfig(name)
	if err != nil {
		return nil, err
	}
	g := &geoPreset{}
	if g.design, err = stochgeom.FromConfig(cfg); err != nil {
		return nil, err
	}
	geom, err := qos.NewGeometry(cfg.PeriodMin, cfg.CoverageTimeMin)
	if err != nil {
		return nil, err
	}
	if g.model, err = qos.NewModel(geom, 5, 0.5, 30); err != nil {
		return nil, err
	}
	g.maxK = geom.MaxTwoRegimeCapacity()
	g.k = min(cfg.ActivePerPlane, g.maxK)
	if name == constellation.PresetReference {
		g.k = 10 // the service's default capacity on the reference design
	}
	c, err := constellation.New(cfg)
	if err != nil {
		return nil, err
	}
	g.scanner = constellation.NewScanner(c)
	c2, err := constellation.New(cfg)
	if err != nil {
		return nil, err
	}
	g.shared = constellation.NewSharedScanner(c2)
	return g, nil
}

func coverageOp(q geoQuery) serveOp {
	v := url.Values{}
	v.Set("preset", q.preset)
	v.Set("lat_deg", strconv.FormatFloat(q.latDeg, 'g', -1, 64))
	v.Set("lon_deg", strconv.FormatFloat(q.lonDeg, 'g', -1, 64))
	v.Set("t_min", strconv.FormatFloat(q.tMin, 'g', -1, 64))
	return serveOp{class: "coverage", key: -1, method: http.MethodGet, target: "/v1/coverage?" + v.Encode()}
}

func (w *serveGeometry) uniform(lo, hi float64) float64 { return lo + (hi-lo)*w.rng.Float64() }

func (w *serveGeometry) signed(v float64) float64 {
	if w.rng.IntN(2) == 0 {
		return -v
	}
	return v
}

// bandLatitude draws a latitude inside zero band b of the preset.
func (w *serveGeometry) bandLatitude(preset string, b int) float64 {
	band := zeroBands[preset][b]
	return w.signed(w.uniform(band[0], band[1]))
}

// otherLatitudes are the two strata |lat| is drawn from outside the
// zero bands: low and high latitudes.
var otherLatitudes = [2][2]float64{{0, 45}, {45, 89.5}}

// otherLatitude draws a latitude from stratum s at least 0.3° away
// from every zero band of the preset.
func (w *serveGeometry) otherLatitude(preset string, s int) float64 {
	for {
		a := w.uniform(otherLatitudes[s][0], otherLatitudes[s][1])
		clear := true
		for _, b := range zeroBands[preset] {
			if a > b[0]-0.3 && a < b[1]+0.3 {
				clear = false
			}
		}
		if clear {
			return w.signed(a)
		}
	}
}

func (w *serveGeometry) evalQuery(preset string, latDeg float64) geoQuery {
	return geoQuery{preset: preset, latDeg: latDeg, scheme: []string{"oaq", "baq"}[w.rng.IntN(2)],
		minSats: 1 + w.rng.IntN(6), zeroBand: inZeroBand(preset, latDeg)}
}

// shellMix draws a LEO/MEO hybrid (kind 0) or a two-shell LEO design
// (kind 1).
func (w *serveGeometry) shellMix(kind int) []qosd.ShellSpec {
	if kind == 0 {
		return []qosd.ShellSpec{
			{N: 400 + w.rng.IntN(801), AltitudeKm: w.uniform(500, 1200), InclinationDeg: w.uniform(45, 98), MinElevationDeg: w.uniform(15, 35)},
			{N: 20 + w.rng.IntN(21), AltitudeKm: w.uniform(8000, 20200), InclinationDeg: w.uniform(50, 65), MinElevationDeg: w.uniform(10, 20)},
		}
	}
	return []qosd.ShellSpec{
		{N: 300 + w.rng.IntN(401), AltitudeKm: w.uniform(500, 600), InclinationDeg: w.uniform(50, 60), MinElevationDeg: w.uniform(20, 35)},
		{N: 300 + w.rng.IntN(401), AltitudeKm: w.uniform(1000, 1200), InclinationDeg: w.uniform(80, 98), MinElevationDeg: w.uniform(15, 30)},
	}
}

func (w *serveGeometry) round(r int, traced bool, cal *calibrator) []timed {
	w.ops, w.queries = w.ops[:0], w.queries[:0]
	add := func(q geoQuery) {
		var op serveOp
		switch {
		case q.isCoverage:
			op = coverageOp(q)
		default:
			lat := q.latDeg
			req := qosd.Request{Mode: qosd.ModeStochGeom, Preset: q.preset, Scheme: q.scheme,
				LatitudeDeg: &lat, MinSats: q.minSats}
			if q.shells != nil {
				req = qosd.Request{Mode: qosd.ModeAuto, Scheme: q.scheme, LatitudeDeg: &lat,
					MinSats: q.minSats, Shells: q.shells}
			}
			op = postOp("stochgeom", -1, req)
		}
		w.ops = append(w.ops, op)
		w.queries = append(w.queries, q)
	}
	for _, p := range presetNames {
		for i := 0; i < 2; i++ {
			add(w.evalQuery(p, w.bandLatitude(p, i)))
			add(w.evalQuery(p, w.otherLatitude(p, i)))
			add(geoQuery{preset: p, isCoverage: true, latDeg: w.uniform(-80, 80),
				lonDeg: w.uniform(-180, 180), tMin: w.uniform(0, 1440)})
		}
	}
	for i := 0; i < 4; i++ {
		q := w.evalQuery(constellation.PresetReference, w.otherLatitude(constellation.PresetReference, i%2))
		q.shells, q.zeroBand = w.shellMix(i/2), false
		add(q)
	}
	ts := make([]timed, len(w.ops))
	for i := range w.ops {
		cal.tick()
		ts[i] = w.ops[i].do(w.h)
	}
	return ts
}

// check verifies every answer: stochgeom answers against a direct
// design evaluation (validate.CheckVisibility, then every reported
// field bit for bit), coverage counts against the private scanner.
func (w *serveGeometry) check(r int, traced bool, sp *spans) int {
	failed := 0
	names := make([]string, len(w.ops))
	for i := range w.ops {
		op, q := &w.ops[i], &w.queries[i]
		var direct time.Duration
		var err error
		if q.isCoverage {
			names[i] = "qosd.Handler/coverage"
			direct, err = w.checkCoverage(op, q, traced, sp)
		} else {
			names[i] = "qosd.Handler/stochgeom"
			direct, err = w.checkEvaluation(op, q, traced, sp)
		}
		if err != nil {
			fail("serve-geometry round %d op %d (%s %s lat %v): %v", r, i, op.class, q.preset, q.latDeg, err)
			failed++
			continue
		}
		if traced {
			w.respBytes += len(op.resp)
			w.respOps++
			w.overhead = append(w.overhead, float64((op.t.d-direct).Nanoseconds())/1e3)
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

func (w *serveGeometry) checkCoverage(op *serveOp, q *geoQuery, traced bool, sp *spans) (time.Duration, error) {
	if op.status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", op.status, op.resp)
	}
	var a geoAnswer
	if err := json.Unmarshal(op.resp, &a); err != nil {
		return 0, fmt.Errorf("decoding answer: %w", err)
	}
	g := w.presets[q.preset]
	target := orbit.LatLon{Lat: q.latDeg * math.Pi / 180, Lon: q.lonDeg * math.Pi / 180}
	if want := g.scanner.CoverageCount(target, q.tMin); a.Covering != want || a.Preset != q.preset {
		return 0, fmt.Errorf("covering %d (preset %q), private scanner counts %d", a.Covering, a.Preset, want)
	}
	start := cpuNow()
	g.shared.CoverageCount(target, q.tMin)
	d := cpuNow() - start
	if traced {
		sp.add("constellation.SharedScanner.CoverageCount/"+q.preset, 0, start, start+d)
	}
	return d, nil
}

func (w *serveGeometry) checkEvaluation(op *serveOp, q *geoQuery, traced bool, sp *spans) (time.Duration, error) {
	resp, err := decodeResponse(op)
	if err != nil {
		return 0, err
	}
	g := w.presets[q.preset]
	design := g.design
	if q.shells != nil {
		design = stochgeom.Design{}
		for _, s := range q.shells {
			half, err := stochgeom.HalfAngleFromElevationDeg(s.AltitudeKm, s.MinElevationDeg)
			if err != nil {
				return 0, err
			}
			design.Shells = append(design.Shells, stochgeom.Shell{N: s.N, AltitudeKm: s.AltitudeKm,
				InclinationDeg: s.InclinationDeg, HalfAngle: half})
		}
	}
	scheme := qos.SchemeOAQ
	if q.scheme == "baq" {
		scheme = qos.SchemeBAQ
	}
	lat := q.latDeg * math.Pi / 180
	start := cpuNow()
	v, err := design.Evaluate(lat)
	mid := cpuNow()
	if err != nil {
		return 0, err
	}
	dist, err := v.CapacityDistribution(1, g.maxK)
	if err != nil {
		return 0, err
	}
	cstart := cpuNow()
	pmf, err := g.model.Compose(scheme, dist)
	end := cpuNow()
	if err != nil {
		return 0, err
	}
	if traced {
		class := "other"
		if q.zeroBand {
			class = "zero_band"
		}
		sp.add("stochgeom.Design.Evaluate/"+class, 0, start, mid)
		sp.add("qos.Model.Compose", 0, cstart, end)
	}
	if err := validate.CheckVisibility(design, v); err != nil {
		return 0, err
	}
	switch {
	case resp.Mode != qosd.ModeStochGeom:
		return 0, fmt.Errorf("answer mode %q, want stochgeom", resp.Mode)
	case resp.LatitudeDeg != lat*180/math.Pi:
		return 0, fmt.Errorf("latitude %v, want %v", resp.LatitudeDeg, lat*180/math.Pi)
	case resp.VisibleMean != v.Mean() || resp.CoverageFraction != v.CoverageFraction() ||
		resp.Localizability != v.Localizability(q.minSats) || resp.PKVisible != v.P(g.k):
		return 0, fmt.Errorf("visibility fields differ from the direct evaluation")
	}
	if err := checkPYGE(resp, pmf); err != nil {
		// capacity.NewClampedDistribution folds the out-of-support
		// mass in map order, so two identical calls can differ in the
		// last bits. Such answers pass within foldTol and are counted.
		if !closePYGE(resp, pmf) {
			return 0, err
		}
		w.foldMismatch++
	}
	w.answers++
	if reachable(design, lat) {
		w.reachable++
		if v.P(0) == 1 {
			w.zeroAnswers++
		}
	}
	return end - start, nil
}

// foldTol bounds the round-off by which a stochgeom answer may differ
// from an identical direct call: a few ulps of a probability.
const foldTol = 1e-12

// closePYGE reports whether the answer's QoS measure and mean level
// agree with the direct call to within foldTol.
func closePYGE(r *qosd.Response, pmf qos.PMF) bool {
	for y := qos.Level(0); y < qos.NumLevels; y++ {
		if math.Abs(r.PYGE[y]-pmf.CCDF(y)) > foldTol {
			return false
		}
	}
	return math.Abs(r.MeanLevel-pmf.Mean()) <= 3*foldTol
}

// reachable reports whether some shell's footprints can cover the
// latitude: |lat| within the shell's effective inclination plus its
// coverage half-angle.
func reachable(d stochgeom.Design, lat float64) bool {
	for _, s := range d.Shells {
		inc := s.InclinationDeg * math.Pi / 180
		if inc > math.Pi/2 {
			inc = math.Pi - inc
		}
		if math.Abs(lat) <= inc+s.HalfAngle {
			return true
		}
	}
	return false
}

func (w *serveGeometry) verify(bool, *spans) []error {
	var errs []error
	for _, name := range []string{"satqosd_request_errors_total", "satqosd_shed_total", "satqosd_degraded_total"} {
		if n := w.reg.Counter(name, "").Value(); n != 0 {
			errs = append(errs, fmt.Errorf("%s = %d, want 0", name, n))
		}
	}
	return errs
}

func (w *serveGeometry) layers(lm *layerMetrics) {
	lm.set("qosd.overhead_us", medianOrZero(w.overhead), "us")
	lm.set("qosd.response_bytes_per_op", ratio(float64(w.respBytes), float64(w.respOps)), "bytes")
	lm.set("stochgeom.zero_answer_share", ratio(float64(w.zeroAnswers), float64(w.reachable)), "share")
	lm.set("capacity.fold_mismatch_share", ratio(float64(w.foldMismatch), float64(w.answers)), "share")
}
