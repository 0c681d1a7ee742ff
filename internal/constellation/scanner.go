package constellation

import (
	"math"

	"satqos/internal/orbit"
)

// SatRef identifies one active satellite by plane and in-plane index
// (valid until the plane's next phasing adjustment) — the
// structure-of-arrays scan's compact result element.
type SatRef struct {
	Plane, Index int
}

// planeScan is one plane's scan state: everything the recurrence loop
// reads, copied out of the live Plane by newPlaneScan.
type planeScan struct {
	version    uint64
	k          int
	frame      orbit.Frame
	phaseRef   float64
	n          float64 // mean motion, rad/min
	cosD, sinD float64 // angle-addition step Δ = 2π/k
	half       float64 // footprint half-angle ψ
	cosHalf    float64
}

// newPlaneScan builds the scan state of one plane. It is the only
// builder: Scanner refreshes stale planes with it and SharedScanner
// publishes snapshots made of it.
func newPlaneScan(p *Plane) planeScan {
	ps := planeScan{
		version:  p.version,
		k:        p.active,
		frame:    p.frame,
		phaseRef: p.phaseRef,
		n:        2 * math.Pi / p.cfg.PeriodMin,
		half:     p.fp.HalfAngle,
		cosHalf:  math.Cos(p.fp.HalfAngle),
		cosD:     1,
	}
	if p.active > 0 {
		ps.sinD, ps.cosD = math.Sincos(2 * math.Pi / float64(p.active))
	}
	return ps
}

// snapshot builds the scan state of every plane of c.
func snapshot(c *Constellation) []planeScan {
	planes := make([]planeScan, len(c.planes))
	for i, p := range c.planes {
		planes[i] = newPlaneScan(p)
	}
	return planes
}

// latBandPad widens the latitude band in z-space so floating-point
// rounding in the rejection test can never exclude a satellite the exact
// dot-product test would accept (the band is a mathematical superset of
// the footprint; the pad covers the last-ulp cases).
const latBandPad = 1e-12

// latBand returns the z-interval a covering satellite's unit position
// must lie in for a target at latitude lat under half-angle half: a
// satellite whose sub-point latitude differs from the target's by more
// than ψ is at least ψ away in great-circle terms.
func latBand(lat, half float64) (lo, hi float64) {
	lo, hi = -1.0, 1.0
	if l := lat - half; l > -math.Pi/2 {
		lo = math.Sin(l) - latBandPad
	}
	if h := lat + half; h < math.Pi/2 {
		hi = math.Sin(h) + latBandPad
	}
	return lo, hi
}

// scan is the one coverage loop behind both scanners' AppendCovering and
// CoverageCount. Per plane it computes one anchor angle and generates
// every in-plane satellite's unit position by the angle-addition
// recurrence; a satellite covers the target when the dot product of the
// unit vectors reaches cos ψ, tested only for satellites whose
// z-coordinate lies in the target's latitude band. The band is computed
// once per query and again only if a plane's ψ differs from the
// previous one (it never does today: ψ depends only on the shared
// period and coverage time). It returns the count of covering
// satellites and, when collect is set, appends a reference to each to
// dst in plane-major order.
func scan(planes []planeScan, dst []SatRef, collect bool, target orbit.LatLon, t float64) ([]SatRef, int) {
	n := 0
	u := target.UnitECI(t)
	bandHalf := math.NaN()
	var zLo, zHi float64
	for pi := range planes {
		ps := &planes[pi]
		k := ps.k
		if k == 0 {
			continue
		}
		if ps.half != bandHalf {
			bandHalf = ps.half
			zLo, zHi = latBand(target.Lat, bandHalf)
		}
		sin, cos := math.Sincos(ps.phaseRef + ps.n*t)
		px, py := ps.frame.P.X, ps.frame.P.Y
		qx, qy, qz := ps.frame.Q.X, ps.frame.Q.Y, ps.frame.Q.Z
		for i := 0; i < k; i++ {
			if z := qz * sin; z >= zLo && z <= zHi {
				x := px*cos + qx*sin
				y := py*cos + qy*sin
				if x*u.X+y*u.Y+z*u.Z >= ps.cosHalf {
					n++
					if collect {
						dst = append(dst, SatRef{Plane: pi, Index: i})
					}
				}
			}
			cos, sin = cos*ps.cosD-sin*ps.sinD, sin*ps.cosD+cos*ps.sinD
		}
	}
	return dst, n
}

// Scanner is the structure-of-arrays fast coverage scan: the
// mega-constellation counterpart of AppendCoveringSatellites. Per time
// step it spends one Sincos per plane and none per satellite (see scan).
//
// The covering set it produces is identical to filtering
// AppendCoveringSatellites on Covers, in the same plane-major order
// (TestScannerMatchesBruteForce holds the two paths to exact agreement
// across the Walker presets and degradation states). A steady-state
// query performs no heap allocations once dst has grown to the covering
// set's high-water mark.
//
// A Scanner is a per-goroutine handle over private per-plane scan
// state. Each query first refreshes, in place, every plane whose
// version changed, so it tracks capacity drops and restores without
// allocating. It is not safe for concurrent use; create one per
// goroutine (the mission engine keeps one per episode scratch), or use
// SharedScanner.
type Scanner struct {
	c      *Constellation
	planes []planeScan
}

// NewScanner builds a fast scanner over the constellation. The scanner
// reads the constellation's planes on every query; it never mutates
// them.
func NewScanner(c *Constellation) *Scanner {
	return &Scanner{c: c, planes: snapshot(c)}
}

// sync rebuilds the scan state of every plane that has re-phased since
// it was cached and returns the up-to-date state.
func (s *Scanner) sync() []planeScan {
	for i, p := range s.c.planes {
		if s.planes[i].version != p.version {
			s.planes[i] = newPlaneScan(p)
		}
	}
	return s.planes
}

// AppendCovering appends a reference to every active satellite whose
// footprint covers the target at time t (minutes), in the same
// plane-major order as AppendCoveringSatellites, and returns the
// extended slice. Reusing dst[:0] across scan steps makes the query
// allocation-free at steady state.
func (s *Scanner) AppendCovering(dst []SatRef, target orbit.LatLon, t float64) []SatRef {
	dst, _ = scan(s.sync(), dst, true, target, t)
	return dst
}

// CoverageCount returns how many active satellites cover the target at
// time t — the fast counterpart of SimultaneousCoverageCount.
func (s *Scanner) CoverageCount(target orbit.LatLon, t float64) int {
	_, n := scan(s.sync(), nil, false, target, t)
	return n
}

// Separation returns the great-circle angle (radians) between satellite
// ref's sub-point and the target at time t, computed from the scanner's
// unit-vector geometry. It is the validation hook that pins the fast
// scan's positions to the per-orbit path (the one acos here is off the
// scan hot path).
func (s *Scanner) Separation(ref SatRef, target orbit.LatLon, t float64) float64 {
	ps := &s.sync()[ref.Plane]
	u := ps.phaseRef + 2*math.Pi*float64(ref.Index)/float64(ps.k) + ps.n*t
	sin, cos := math.Sincos(u)
	pos := ps.frame.UnitPosition(cos, sin)
	d := pos.Dot(target.UnitECI(t))
	if d > 1 {
		d = 1
	} else if d < -1 {
		d = -1
	}
	return math.Acos(d)
}
