package main

import (
	"fmt"
	"math/rand/v2"

	"satqos/internal/des"
	"satqos/internal/oaq"
	"satqos/internal/stats"
)

// desDepths are the pending-event depths of the kernel ladder: a
// shallow ideal-channel episode, a routed episode's peak (~300), and
// ten times that.
var desDepths = []int{10, 300, 3000}

const (
	desChunk  = 20000 // events per timed chunk
	desChunks = 15
)

// holdModel keeps the kernel's pending-event count constant: every
// fired event schedules one successor at an exponential delay (the
// classic hold model of event-queue benchmarks).
type holdModel struct {
	sim *des.Simulation
	rng *rand.Rand
}

func holdEvent(_ float64, arg any) {
	h := arg.(*holdModel)
	h.sim.ScheduleCall(h.rng.ExpFloat64(), "hold", holdEvent, h)
}

// desLadder drives des.Simulation directly at each fixed depth and
// records one span per chunk of desChunk events.
func desLadder(sp *spans) {
	for _, depth := range desDepths {
		h := &holdModel{sim: &des.Simulation{}, rng: rand.New(rand.NewPCG(uint64(depth), 1))}
		h.sim.EnableEventReuse()
		for i := 0; i < depth; i++ {
			h.sim.ScheduleCall(h.rng.ExpFloat64(), "hold", holdEvent, h)
		}
		for i := 0; i < desChunk; i++ { // warm the freelist
			h.sim.Step()
		}
		name := fmt.Sprintf("des.Simulation.Step/depth%d", depth)
		for c := 0; c < desChunks; c++ {
			sp.cal.tick()
			start := cpuNow()
			for i := 0; i < desChunk; i++ {
				h.sim.Step()
			}
			sp.add(name, 0, start, cpuNow())
		}
	}
}

// desNsPerEvent is the median chunk time per event at the depth.
func desNsPerEvent(sp *spans, depth int) float64 {
	return medianOrZero(sp.durationsUS(fmt.Sprintf("des.Simulation.Step/depth%d", depth))) * 1e3 / desChunk
}

// Episodes per timed Runner.Run chunk: ideal episodes take about a
// microsecond, so they are timed in chunks to keep the clock reads
// off the measurement.
const (
	idealChunk  = 64
	routedChunk = 1
)

// timeEpisodes times Runner.Run on p for the given number of chunks and
// records one span per chunk, named oaq.Runner.Run/<kind>.
func timeEpisodes(sp *spans, p oaq.Params, kind string, chunks int, seed uint64) error {
	size := idealChunk
	if kind == "routed" {
		size = routedChunk
	}
	r, err := oaq.NewRunner(p, stats.NewRNG(seed, 0))
	if err != nil {
		return err
	}
	for i := 0; i < size; i++ {
		r.Run() // warm the runner's queues and freelists
	}
	for c := 0; c < chunks; c++ {
		sp.cal.tick()
		start := cpuNow()
		for i := 0; i < size; i++ {
			r.Run()
		}
		sp.add("oaq.Runner.Run/"+kind, 0, start, cpuNow())
	}
	return nil
}

// episodeUS is the median per-episode time of the recorded chunks.
func episodeUS(sp *spans, kind string) float64 {
	size := idealChunk
	if kind == "routed" {
		size = routedChunk
	}
	return medianOrZero(sp.durationsUS("oaq.Runner.Run/"+kind)) / float64(size)
}
