package constellation

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"satqos/internal/orbit"
	"satqos/internal/parallel"
	"satqos/internal/stats"
)

// scannerPresets returns a fresh constellation per named design,
// including the paper's reference layout.
func scannerPresets(t *testing.T) map[string]*Constellation {
	t.Helper()
	out := make(map[string]*Constellation)
	for _, name := range PresetNames() {
		cfg, err := PresetConfig(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		out[name] = c
	}
	return out
}

// bruteCovering filters the per-orbit reference path down to the refs
// the scanner reports.
func bruteCovering(c *Constellation, target orbit.LatLon, t float64) []SatRef {
	var refs []SatRef
	for _, v := range c.CoveringSatellites(target, t) {
		if v.Covers {
			refs = append(refs, SatRef{Plane: v.Plane, Index: v.Index})
		}
	}
	return refs
}

// scanTrial is one coverage query: a target and a time (minutes).
type scanTrial struct {
	target orbit.LatLon
	t      float64
}

// randomTrials draws n targets uniform in latitude and longitude, at
// times spread over 3000 minutes.
func randomTrials(rng *stats.RNG, n int) []scanTrial {
	trials := make([]scanTrial, n)
	for i := range trials {
		trials[i] = scanTrial{
			target: orbit.LatLon{
				Lat: (rng.Float64() - 0.5) * math.Pi,
				Lon: (rng.Float64() - 0.5) * 2 * math.Pi,
			},
			t: rng.Float64() * 3000,
		}
	}
	return trials
}

// checkAgainstBrute holds one scan query's covering set and count to
// the per-orbit reference path: same refs, same order, same count.
func checkAgainstBrute(t *testing.T, label string, c *Constellation, tr scanTrial, got []SatRef, count int) {
	t.Helper()
	want := bruteCovering(c, tr.target, tr.t)
	if len(got) != len(want) {
		t.Errorf("%s: fast scan found %d covering, brute force %d", label, len(got), len(want))
		return
	}
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("%s: ref %d = %+v, want %+v", label, j, got[j], want[j])
		}
	}
	if n := c.SimultaneousCoverageCount(tr.target, tr.t); count != n {
		t.Errorf("%s: CoverageCount %d, want %d", label, count, n)
	}
}

// TestScannerMatchesBruteForce: across every preset, random targets,
// times, and degradation states, the fast scan's covering set equals the
// per-orbit path's Covers bits exactly (same refs, same order), its
// count matches SimultaneousCoverageCount, and its unit-vector
// separations agree with the haversine path to 1e-9 — at 1 worker and at
// 8 workers (private scanners drawn from a pool).
func TestScannerMatchesBruteForce(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for name, c := range scannerPresets(t) {
			rng := stats.NewRNG(0x5ca27e5, uint64(workers))
			// Degrade a few planes past their spares so re-phased rings
			// (shrunk k, shifted Δ) are exercised too, then restore one so
			// version-tracking after a restore is covered.
			for pi := 0; pi < c.Planes(); pi += 3 {
				p, err := c.Plane(pi)
				if err != nil {
					t.Fatal(err)
				}
				fails := p.SpareCount() + 1 + int(rng.Uint64()%2)
				for f := 0; f < fails; f++ {
					if err := p.FailActive(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if p, _ := c.Plane(0); p != nil {
				p.RestoreFull()
			}

			trials := randomTrials(rng, 64)

			// The scanner is single-goroutine state (its plane caches),
			// so workers draw private instances from a pool —
			// the same shape the mission engine uses for its episode
			// scratch.
			pool := sync.Pool{New: func() any { return NewScanner(c) }}
			err := parallel.Map(workers, len(trials), func(i int) error {
				s := pool.Get().(*Scanner)
				defer pool.Put(s)
				tr := trials[i]
				label := fmt.Sprintf("%s workers=%d trial %d", name, workers, i)
				got := s.AppendCovering(nil, tr.target, tr.t)
				checkAgainstBrute(t, label, c, tr, got, s.CoverageCount(tr.target, tr.t))
				for _, ref := range got {
					sep := s.Separation(ref, tr.target, tr.t)
					p, err := c.Plane(ref.Plane)
					if err != nil {
						return err
					}
					want := orbit.GreatCircle(p.ActiveOrbit(ref.Index).SubSatellite(tr.t), tr.target)
					if d := math.Abs(sep - want); d > 1e-9 {
						t.Errorf("%s: separation %g vs per-orbit %g (off by %g)", label, sep, want, d)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScannerTracksDegradation: a scanner built before failures picks up
// re-phased rings (and restores) via the plane version counter, without
// being rebuilt.
func TestScannerTracksDegradation(t *testing.T) {
	cfg := DefaultConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(c)
	target := orbit.LatLon{Lat: 0.6, Lon: -1.2}

	check := func(stage string) {
		t.Helper()
		for _, tm := range []float64{0, 7.3, 41.9, 200.5} {
			checkAgainstBrute(t, fmt.Sprintf("%s t=%g", stage, tm), c, scanTrial{target, tm},
				s.AppendCovering(nil, target, tm), s.CoverageCount(target, tm))
		}
	}

	check("fresh")
	p, err := c.Plane(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.SparesPerPlane+3; i++ {
		if err := p.FailActive(); err != nil {
			t.Fatal(err)
		}
	}
	check("degraded")
	c.DeployScheduled()
	check("restored")
}

// TestScannerSteadyStateAllocs: once the destination slice has reached
// the covering set's high-water mark, AppendCovering and CoverageCount
// allocate nothing.
func TestScannerSteadyStateAllocs(t *testing.T) {
	cfg, err := PresetConfig(PresetStarlink)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(c)
	target := orbit.LatLon{Lat: 0.4, Lon: 0.9}
	dst := s.AppendCovering(nil, target, 0)
	tm := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		tm += 0.05
		dst = s.AppendCovering(dst[:0], target, tm)
		_ = s.CoverageCount(target, tm)
	})
	if allocs != 0 {
		t.Errorf("steady-state scan allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestScannerBandRejectionIsConservative: a target near the pole of an
// inclined delta shell is never covered; the band must reject every
// plane without the dot product ever disagreeing.
func TestScannerBandRejectionIsConservative(t *testing.T) {
	cfg, err := PresetConfig(PresetStarlink)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(c)
	pole := orbit.LatLon{Lat: 88 * math.Pi / 180, Lon: 0.3}
	for _, tm := range []float64{0, 33.3, 777.7} {
		if got := s.AppendCovering(nil, pole, tm); len(got) != 0 {
			t.Fatalf("t=%g: 53-degree shell covers an 88-degree target: %v", tm, got)
		}
		if n := c.SimultaneousCoverageCount(pole, tm); n != 0 {
			t.Fatalf("t=%g: brute force disagrees: %d", tm, n)
		}
	}
}
