package main

import (
	_ "embed"
	"fmt"
	"math/rand/v2"

	"satqos/internal/fault"
	"satqos/internal/oaq"
	"satqos/internal/obs"
	"satqos/internal/qos"
	"satqos/internal/route"
	"satqos/internal/stats"
	"satqos/internal/validate"
)

// faultsJSON is the constsim smoke scenario (cmd/constsim/testdata):
// two fail-silent windows, a 0.9 loss burst and a delayed spare.
//
//go:embed faults.json
var faultsJSON []byte

// The routed-batch grid follows the routed golden snapshots: a 7×10
// Walker-star fabric throttled to 3 packets/min, k = 10, two request
// retries, and background load from idle through moderate to
// saturated.
var (
	routedPolicies = []string{route.PolicyStatic, route.PolicyProbabilistic, route.PolicyQLearning}
	routedLoads    = []float64{0, 60, 180}
)

const (
	routedK        = 10
	routedRetries  = 2
	routedRate     = 3
	routedEpisodes = 16 // episodes per batch
	routedWarmEps  = 8  // episodes per configuration in the set-up warm-up
	routedWarmSeed = 2003
	routedProbeEps = 16 // probe-runner episodes per configuration for CheckRoute
)

// routedBatch is the routed-batch workload: each round runs one batch
// per (policy, load) pair — nine batches — and three of them, one per
// policy and one per load, carry the fault scenario.
type routedBatch struct {
	seed    uint64
	rng     *rand.Rand
	configs []oaq.Params // index cfgIndex(policy, load, faulted)
	reg     *obs.Registry
	batch   []routedOp // the current round's batches
}

type routedOp struct {
	cfg  int
	seed uint64
	t    timed
	ev   *oaq.Evaluation
	err  error
}

func newRoutedBatch(seed uint64) (workload, error) {
	return &routedBatch{seed: seed, rng: rand.New(rand.NewPCG(seed, 0x726f75746564)), reg: obs.NewRegistry()}, nil
}

func cfgIndex(pi, li int, faulted bool) int {
	i := (pi*len(routedLoads) + li) * 2
	if faulted {
		i++
	}
	return i
}

func (w *routedBatch) registry() *obs.Registry { return w.reg }

// setup builds every batch configuration — route config, topology,
// fault scenario — and runs a short warm-up batch on each, which
// constructs the pooled episode runner and grows its fabric queues,
// packet pool and event storage to the saturated working set.
func (w *routedBatch) setup(cal *calibrator) error {
	scenario, err := fault.Parse(faultsJSON)
	if err != nil {
		return err
	}
	w.configs = make([]oaq.Params, 2*len(routedPolicies)*len(routedLoads))
	for pi, policy := range routedPolicies {
		for li, load := range routedLoads {
			for _, faulted := range []bool{false, true} {
				rc := route.Default(policy, routedK)
				rc.ISLRatePerMin = routedRate
				rc.TrafficLoadPerMin = load
				p := oaq.ReferenceParams(routedK, qos.SchemeOAQ)
				p.Route = &rc
				p.RequestRetries = routedRetries
				if faulted {
					p.Faults = scenario
				}
				if err := p.Validate(); err != nil {
					return err
				}
				w.configs[cfgIndex(pi, li, faulted)] = p
			}
		}
	}
	for _, p := range w.configs {
		cal.tick()
		if _, err := oaq.EvaluateParallel(p, routedWarmEps, routedWarmSeed, 1); err != nil {
			return err
		}
	}
	return nil
}

func (w *routedBatch) teardown() { w.configs = nil }

func (w *routedBatch) round(r int, traced bool, cal *calibrator) []timed {
	w.batch = w.batch[:0]
	for pi := range routedPolicies {
		for li := range routedLoads {
			faulted := li == pi
			w.batch = append(w.batch, routedOp{cfg: cfgIndex(pi, li, faulted), seed: w.rng.Uint64()})
		}
	}
	ts := make([]timed, len(w.batch))
	for i := range w.batch {
		op := &w.batch[i]
		p := w.configs[op.cfg]
		if traced {
			p.Metrics = w.reg
		}
		cal.tick()
		op.t.start = cpuNow()
		op.ev, op.err = oaq.EvaluateParallel(p, routedEpisodes, op.seed, 1)
		op.t.d = cpuNow() - op.t.start
		ts[i] = op.t
	}
	return ts
}

// check validates every batch of the round; on every fourth round one
// batch is re-run directly, untraced, and must be bit-identical.
func (w *routedBatch) check(r int, traced bool, sp *spans) int {
	if traced {
		ts := make([]timed, len(w.batch))
		for i, op := range w.batch {
			ts[i] = op.t
		}
		sp.addRound(ts, func(i int) string {
			return "oaq.EvaluateParallel/" + w.configs[w.batch[i].cfg].Route.Policy
		})
	}
	failed := 0
	for i, op := range w.batch {
		err := op.err
		if err == nil {
			err = validate.CheckEvaluation(op.ev)
		}
		if err == nil && op.ev.Episodes != routedEpisodes {
			err = fmt.Errorf("%d episodes, want %d", op.ev.Episodes, routedEpisodes)
		}
		if err == nil && r%4 == 0 && i == r/4%len(w.batch) {
			var again *oaq.Evaluation
			if again, err = oaq.EvaluateParallel(w.configs[op.cfg], routedEpisodes, op.seed, 1); err == nil {
				err = validate.CheckEvaluationsEqual(op.ev, again)
			}
		}
		if err != nil {
			fail("routed-batch round %d batch %d (%s): %v", r, i, w.describe(op.cfg), err)
			failed++
		}
	}
	return failed
}

func (w *routedBatch) describe(cfg int) string {
	p := w.configs[cfg]
	return fmt.Sprintf("policy=%s load=%g faults=%t", p.Route.Policy, p.Route.TrafficLoadPerMin, p.Faults != nil)
}

// verify runs a probe Runner on every configuration and checks the
// fabric's conservation and no-loop invariants after each episode; a
// traced run also times the episodes, routed and with the ideal
// channel, on the same parameters.
func (w *routedBatch) verify(traced bool, sp *spans) []error {
	var errs []error
	for i, p := range w.configs {
		r, err := oaq.NewRunner(p, stats.NewRNG(w.seed, uint64(i)))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for e := 0; e < routedProbeEps; e++ {
			r.Run()
			if err := validate.CheckRoute(r.RouteStats(), r.RouteDiameter()); err != nil {
				errs = append(errs, fmt.Errorf("%s episode %d: %w", w.describe(i), e, err))
				break
			}
		}
		if !traced {
			continue
		}
		if err := timeEpisodes(sp, p, "routed", 8, w.seed+uint64(i)); err != nil {
			errs = append(errs, err)
		}
		ideal := p
		ideal.Route = nil
		if err := timeEpisodes(sp, ideal, "ideal", 8, w.seed+uint64(i)); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (w *routedBatch) layers(*layerMetrics) {}
