// Command perfbench is the repository's end-to-end benchmark: three
// closed-loop workloads, each driven by one load goroutine through the
// layers' public functions, with every answer checked outside the
// timed region.
//
//	perfbench --workload routed-batch --seed 7 --seconds 10 --trace 0
//
// Workloads:
//
//   - routed-batch: back-to-back small oaq.EvaluateParallel batches on
//     the routed ISL fabric (des, oaq, crosslink, route, parallel).
//   - serve-montecarlo: an in-process client of qosd's Handler sending
//     Monte-Carlo, repeated and analytic-with-deployment requests (qosd
//     and its response cache, oaq, capacity, qos).
//   - serve-geometry: stochastic-geometry evaluations and coverage
//     queries through the same handler (qosd, stochgeom, numeric, qos,
//     constellation); no DES event runs.
//
// A run sets the system up several times from cold (setup_s is the
// median), then runs a fixed number of rounds: the work is a function
// of --seconds and the workload alone, never of elapsed time. Each
// round holds the same mix of operations; op_cost is the median over
// rounds of the round's mean operation cost, timed on the process CPU
// clock and calibrated to a quiet host (calibrate.go). With --trace 1 the odd
// rounds are traced — spans around each call, the program's obs
// counters — and the run prints the per-layer metrics instead of the
// end-to-end ones. The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"satqos/internal/obs"
)

// workload is one benchmark workload. Its constructor (untimed) draws
// the input generator from the seed and builds the benchmark's own
// checking oracles. The harness calls setup after teardown and two
// garbage collections, so each setup starts from nothing; each round
// runs a fixed mix of operations and check verifies them.
type workload interface {
	// setup builds the system under test and pays its one-time warm-up,
	// calling cal.tick between warm-up steps.
	setup(cal *calibrator) error
	// teardown drops the system and resets the process-wide caches the
	// setup fills, so that the next setup is cold again.
	teardown()
	// round runs round r's operations, timing each one on the process
	// CPU clock, and calling cal.tick between operations; it returns
	// the operations' intervals.
	round(r int, traced bool, cal *calibrator) []timed
	// check verifies round r's answers and returns how many operations
	// failed. In a traced round it also records the direct-call spans.
	check(r int, traced bool, sp *spans) int
	// verify runs the end-of-run checks and returns an error per
	// failure; a traced run also records its direct-call spans.
	verify(traced bool, sp *spans) []error
	// layers adds the workload-specific per-layer metrics.
	layers(lm *layerMetrics)
	// registry is the obs registry the system under test publishes to.
	registry() *obs.Registry
}

// workloadSpec names a workload, its constructor and its sizing: the
// rounds run per requested second (fixed work per run) and the number
// of cold set-ups whose median is setup_s.
type workloadSpec struct {
	name         string
	build        func(seed uint64) (workload, error)
	roundsPerSec float64
	setupRepeats int
}

var workloads = []workloadSpec{
	{name: "routed-batch", build: newRoutedBatch, roundsPerSec: 2.2, setupRepeats: 5},
	{name: "serve-montecarlo", build: newServeMC, roundsPerSec: 35, setupRepeats: 7},
	{name: "serve-geometry", build: newServeGeometry, roundsPerSec: 125, setupRepeats: 9},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line JSON verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: routed-batch | serve-montecarlo | serve-geometry")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "run length in seconds at the calibrated rate (fixes the round count)")
	traced := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 the end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == name {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, " | "))
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	}
	// One load goroutine on one processor: the workloads run
	// workers = 1, and a second P would only let garbage collection
	// and the host's other tenants trade places with the load in ways
	// no run controls. run.sh also makes collections stop the world.
	runtime.GOMAXPROCS(1)
	fmt.Printf("# env go=%s gomaxprocs=%d numcpu=%d workload=%s seed=%d seconds=%d trace=%t\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), name, seed, seconds, traced)

	w, err := spec.build(seed)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	var cal calibrator
	setups := make([]float64, 0, spec.setupRepeats)
	rawSetups := make([]float64, 0, spec.setupRepeats)
	for i := 0; i < spec.setupRepeats; i++ {
		w.teardown()
		runtime.GC()
		runtime.GC() // twice: sync.Pool contents survive one cycle
		cal.measure()
		start := cpuNow()
		if err := w.setup(&cal); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		end := cpuNow()
		cal.measure()
		setups = append(setups, cal.calibratedSpan(start, end)/1e9)
		rawSetups = append(rawSetups, (end - start).Seconds())
	}

	rounds := int(float64(seconds)*spec.roundsPerSec + 0.5)
	if rounds < 2 {
		rounds = 2
	}
	var (
		sp                = spans{cal: &cal}
		plain, withTrace  []float64 // per-round calibrated mean op cost, µs
		raw               []float64 // per-round raw mean op CPU time, µs
		attempted, failed int
		lm                = newLayerMetrics()
		before, after     counterSnap
		msBefore, msAfter runtime.MemStats
	)
	runtime.GC()
	cal.measure()
	for r := 0; r < rounds; r++ {
		tr := traced && r%2 == 1
		var wall time.Time
		if tr {
			before = snapCounters(w.registry())
			runtime.ReadMemStats(&msBefore)
			wall = time.Now()
		}
		ops := w.round(r, tr, &cal)
		if tr {
			lm.wall += time.Since(wall)
			runtime.ReadMemStats(&msAfter)
			after = snapCounters(w.registry())
			lm.addCounters(before, after)
			lm.addMem(&msBefore, &msAfter)
			lm.ops += len(ops)
		}
		cal.tick()
		var sum, sumRaw float64
		for _, op := range ops {
			sum += cal.calibrated(op.start, op.d)
			sumRaw += float64(op.d)
		}
		mean := sum / 1e3 / float64(len(ops))
		if tr {
			withTrace = append(withTrace, mean)
		} else {
			plain = append(plain, mean)
			raw = append(raw, sumRaw/1e3/float64(len(ops)))
		}
		attempted += len(ops)
		failed += w.check(r, tr, &sp)
	}
	cal.measure()
	if traced {
		desLadder(&sp)
	}
	var endErrs []error
	for _, err := range w.verify(traced, &sp) {
		fmt.Fprintln(os.Stderr, "FAIL verify:", err)
		endErrs = append(endErrs, err)
	}
	res := result{
		Correct:   failed == 0 && len(endErrs) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		lm.finish(w.registry(), &sp)
		w.layers(lm)
		lm.set("trace.overhead_share", median(withTrace)/median(plain)-1, "share")
		res.Metrics = lm.out
		if err := sp.write(fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", name, seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["op_cost"] = metric{median(plain), "us"}
		res.Metrics["ok_share"] = metric{float64(attempted-failed) / float64(attempted), "share"}
		res.Metrics["peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
	}
	var refs []float64
	for _, s := range cal.samples {
		refs = append(refs, float64(s.cost)/1e3)
	}
	fmt.Printf("# rounds=%d setups_s=%v op_cost_quartiles_us=%v\n", rounds, setups, quartiles(plain))
	fmt.Printf("# raw setup_s=%v op_cost_us=%v reference_us quartiles=%v samples=%d\n",
		median(rawSetups), median(raw), quartiles(refs), len(refs))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method (Python's statistics.quantiles default).
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		nan := math.NaN()
		return [3]float64{nan, nan, nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	n := float64(len(s))
	for i := 1; i <= 3; i++ {
		pos := float64(i)*(n+1)/4 - 1
		switch {
		case pos < 0:
			q[i-1] = s[0]
		case pos >= n-1:
			q[i-1] = s[len(s)-1]
		default:
			lo := int(pos)
			frac := pos - float64(lo)
			q[i-1] = s[lo] + frac*(s[lo+1]-s[lo])
		}
	}
	return q
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow reads the process CPU clock: user and system time of every
// thread. The benchmark times with it rather than the wall clock so
// that time the host gives the core to other tenants does not count;
// with one processor and one load goroutine the two agree on an idle
// host, and the CPU clock still counts garbage collection and page
// faults.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMiB returns the process's peak resident set in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// errLimit bounds the failures printed per run; the count is exact.
const errLimit = 20

var printed int

// fail prints one failed check with its cause.
func fail(format string, args ...any) {
	if printed < errLimit {
		fmt.Fprintf(os.Stderr, "FAIL "+format+"\n", args...)
	}
	printed++
}
