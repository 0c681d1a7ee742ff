package constellation

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"satqos/internal/orbit"
	"satqos/internal/stats"
)

const deg = math.Pi / 180

// sharedTrials is TestScannerMatchesBruteForce's seeded random targets
// plus the band edges: both poles and the latitudes ±(90° − ψ), where
// the latitude band's upper or lower bound reaches the pole.
func sharedTrials(c *Constellation) []scanTrial {
	trials := randomTrials(stats.NewRNG(0x5ca27e5, 1), 64)
	p, _ := c.Plane(0)
	edge := math.Pi/2 - p.Footprint().HalfAngle
	for _, lat := range []float64{math.Pi / 2, -math.Pi / 2, edge, -edge} {
		for _, tm := range []float64{0, 13.7, 55.25, 101.9} {
			trials = append(trials, scanTrial{orbit.LatLon{Lat: lat, Lon: 0.4}, tm})
		}
	}
	return trials
}

// TestSharedScannerMatchesBruteForce: SharedScanner agrees exactly with
// the per-orbit reference path on every preset, at full strength and
// after degradation and restore applied through Update.
func TestSharedScannerMatchesBruteForce(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := PresetConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared := NewSharedScanner(c)
		trials := sharedTrials(c)

		check := func(stage string) {
			t.Helper()
			var got []SatRef
			for i, tr := range trials {
				got = shared.AppendCovering(got[:0], tr.target, tr.t)
				checkAgainstBrute(t, fmt.Sprintf("%s %s trial %d", name, stage, i), c, tr,
					got, shared.CoverageCount(tr.target, tr.t))
			}
		}
		check("full")

		// Degrade plane 0 past its spares through Update.
		shared.Update(func(c *Constellation) {
			p, err := c.Plane(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cfg.SparesPerPlane+2; i++ {
				if err := p.FailActive(); err != nil {
					t.Fatal(err)
				}
			}
		})
		check("degraded")

		shared.Update(func(c *Constellation) { c.DeployScheduled() })
		check("restored")
	}
}

// Concurrent readers race a writer that fails and restores planes
// through Update. Run under -race this is the memory-safety gate; the
// invariant checked is that every count a reader observes matches one
// of the constellation states the writer publishes, and that the
// snapshot after the last Update matches the brute-force path.
func TestSharedScannerConcurrent(t *testing.T) {
	cfg, err := PresetConfig("kepler")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharedScanner(c)
	target := orbit.LatLon{Lat: 50 * deg, Lon: 1.1}
	const tm = 42.5

	// The writer alternates between exactly two published states:
	// full strength and plane 0 degraded by spares+1 failures. Compute
	// both expected counts up front from private constellations.
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFull := full.SimultaneousCoverageCount(target, tm)
	degr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := degr.Plane(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= cfg.SparesPerPlane; i++ {
		if err := dp.FailActive(); err != nil {
			t.Fatal(err)
		}
	}
	wantDegraded := degr.SimultaneousCoverageCount(target, tm)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []SatRef
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := s.CoverageCount(target, tm)
				if n != wantFull && n != wantDegraded {
					select {
					case errs <- "count matches neither published state":
					default:
					}
					return
				}
				dst = s.AppendCovering(dst[:0], target, tm)
				if len(dst) != wantFull && len(dst) != wantDegraded {
					select {
					case errs <- "covering set matches neither published state":
					default:
					}
					return
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		s.Update(func(c *Constellation) {
			p, err := c.Plane(0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i <= cfg.SparesPerPlane; i++ {
				if err := p.FailActive(); err != nil {
					t.Error(err)
					return
				}
			}
		})
		s.Update(func(c *Constellation) { c.DeployScheduled() })
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	tr := scanTrial{target, tm}
	checkAgainstBrute(t, "after final Update", c, tr, s.AppendCovering(nil, target, tm), s.CoverageCount(target, tm))
}
