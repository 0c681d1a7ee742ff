package constellation

import (
	"sync"
	"sync/atomic"

	"satqos/internal/orbit"
)

// SharedScanner is the read-mostly variant of Scanner for long-lived
// services: any number of goroutines may query coverage concurrently,
// because queries read only an immutable snapshot of the per-plane
// scan state published through an atomic pointer. Reconfiguration —
// satellite failures, ground-spare restores — goes through Update,
// which mutates the constellation under a lock and publishes a fresh
// snapshot (copy-on-reconfigure); readers switch to it on their next
// query and never observe a half-updated plane.
//
// Queries run the same scan loop as Scanner, so the covering sets are
// identical for the same constellation state, in the same plane-major
// order. They are allocation-free (CoverageCount always; AppendCovering
// once dst has grown to the covering set's high-water mark).
type SharedScanner struct {
	c      *Constellation
	mu     sync.Mutex
	planes atomic.Pointer[[]planeScan]
}

// NewSharedScanner builds a shared scanner over the constellation and
// publishes the initial snapshot. From then on the constellation must
// be mutated only through Update.
func NewSharedScanner(c *Constellation) *SharedScanner {
	s := &SharedScanner{c: c}
	s.Update(func(*Constellation) {})
	return s
}

// Update applies a mutation to the underlying constellation — fail
// planes, restore them, anything reachable from *Constellation — and
// publishes the rebuilt snapshot before returning. Concurrent queries
// keep reading the previous snapshot until the new one lands; they
// never block.
func (s *SharedScanner) Update(mutate func(*Constellation)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mutate(s.c)
	planes := snapshot(s.c)
	s.planes.Store(&planes)
}

// AppendCovering appends a reference to every active satellite whose
// footprint covers the target at time t (minutes), in the same
// plane-major order as Scanner.AppendCovering, and returns the
// extended slice. Safe for concurrent use; reuse a per-goroutine
// dst[:0] for allocation-free steady state.
func (s *SharedScanner) AppendCovering(dst []SatRef, target orbit.LatLon, t float64) []SatRef {
	dst, _ = scan(*s.planes.Load(), dst, true, target, t)
	return dst
}

// CoverageCount returns how many active satellites cover the target at
// time t. Safe for concurrent use; performs no allocations.
func (s *SharedScanner) CoverageCount(target orbit.LatLon, t float64) int {
	_, n := scan(*s.planes.Load(), nil, false, target, t)
	return n
}
