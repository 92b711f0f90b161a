// Command perfbench is the repository's end-to-end benchmark: it runs one
// workload (fig8-grid, serve-paced or serve-batched) against the program's
// public API, checks every output against an exact reference, and prints
// one JSON result line.
//
//	perfbench --workload fig8-grid --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer ledger instead. See README.md for the
// workloads, the metrics and the package-to-layer table. run.sh builds the
// command and runs it with GODEBUG=madvdontneed=0, so that timed passes do
// not fault back in heap pages the scavenger released (README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many whole set-ups an untraced run times; setup_s is
// their median. Only the last set-up's state is used for the passes.
const setupRepeats = 3

// scenario is one workload after set-up.
type scenario interface {
	// warm runs the discarded warm-up pass (outputs still checked).
	warm() error
	// pass runs one timed pass. With tr non-nil the pass is traced.
	pass(tr *tracer) (*passStats, error)
	// layers adds the workload's per-layer metrics, measured over the
	// traced passes of a traced run.
	layers(m metrics, traced []*passStats) error
	close()
}

// workloads maps a --workload name to its set-up. serve-capacity is not a
// benchmark workload: it is serve-paced's traffic streamed flat out and
// unbatched, the measurement behind serve-paced's rate (see README.md).
var workloads = map[string]func(seed int64, tr *tracer) (scenario, error){
	"fig8-grid":      setupGrid,
	"serve-paced":    func(seed int64, tr *tracer) (scenario, error) { return setupServe(seed, servePaced, tr) },
	"serve-batched":  func(seed int64, tr *tracer) (scenario, error) { return setupServe(seed, serveBatched, tr) },
	"serve-capacity": func(seed int64, tr *tracer) (scenario, error) { return setupServe(seed, serveFlat, tr) },
}

// endToEnd and perLayer are the metrics an untraced and a traced run
// report, by name and unit, on every workload (BENCHMARK.json lists the
// same). A per-layer metric that does not apply to a workload reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"judgments_per_s", "1/s"},
	{"op_latency_p50_ms", "ms"},
	{"cpu_us_per_judgment", "us"},
	{"live_heap_mib", "MiB"},
	{"ok_share", "share"},
}

var perLayer = []metricDef{
	{"cpu.share", "share"},
	{"trace.share", "share"},
	{"mcm.share", "share"},
	{"infer.share", "share"},
	{"io.share", "share"},
	{"runtime.share", "share"},
	{"other.share", "share"},
	{"cpu.minstr_per_s", "Minstr/s"},
	{"mcm.judged", "count"},
	{"mcm.dropped", "count"},
	{"mcm.judged_share", "share"},
	{"infer.windows", "count"},
	{"infer.busy_s", "s"},
	{"infer.us_per_window", "us"},
	{"infer.batches", "count"},
	{"infer.batch_size_mean", "count"},
	{"infer.batch_us_mean", "us"},
	{"infer.flush_starve", "count"},
	{"infer.flush_window", "count"},
	{"infer.flush_full", "count"},
	{"session.feed_ms_mean", "ms"},
	{"io.write_us_mean", "us"},
	{"io.judgments_per_write", "count"},
	{"io.server_chunk_ms_mean", "ms"},
	{"io.client_send_ms_p99", "ms"},
	{"wait.queue_ms_mean", "ms"},
	{"wait.queue_depth_max", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_kib_per_judgment", "KiB"},
	{"gen.lag_p99_ms", "ms"},
	{"tracing_overhead", "ratio"},
	{"e2e.op_latency_p99_ms", "ms"},
}

type metricDef struct{ name, unit string }

// complete checks that m holds exactly the metrics defs names, with
// their units.
func (m metrics) complete(defs []metricDef) error {
	for _, d := range defs {
		if got, ok := m[d.name]; !ok || got.Unit != d.unit {
			return fmt.Errorf("metric %s missing or not in %s", d.name, d.unit)
		}
	}
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics reported, want %d", len(m), len(defs))
	}
	return nil
}

// passStats is what one pass measured.
type passStats struct {
	wall      time.Duration
	cpu       time.Duration // process user+system CPU over the pass
	judgments int64
	attempted int64 // operations: cells (fig8-grid) or chunks (serve)
	failed    int64
	// latMS holds one sample per successful operation that produced a
	// judgment; failed operations are +Inf. Sorted once the pass ends.
	latMS  []float64
	heap   uint64 // live heap after a forced GC at the end of the pass
	gc     uint32 // GC cycles the pass triggered (forced ones excluded)
	allocs uint64 // bytes allocated during the pass

	grid  *gridPass  // fig8-grid only
	serve *servePass // serve workloads only
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON has no Inf: a missing result reads as a huge value, which
		// is worse on every lower-is-better metric.
		v = 1e12
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "fig8-grid | serve-paced | serve-batched")
		seed    = flag.Int64("seed", 1, "workload seed: drives the grid's attack seeds and the serve traces")
		seconds = flag.Int("seconds", 10, "how long the timed passes run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		outDir  = flag.String("out", ".bench_build/perfbench", "where a traced run writes its Perfetto trace and CPU profile")
		writeEx = flag.String("write-expected", "", "regenerate the fig8-grid expected-results table into this file and exit")
	)
	flag.Parse()
	if *writeEx != "" {
		if err := writeExpected(*writeEx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	setup, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var (
		res *result
		err error
	)
	if *trace != 0 {
		res, err = runTraced(setup, *name, *seed, time.Duration(*seconds)*time.Second, *outDir)
	} else {
		res, err = runUntraced(setup, *seed, time.Duration(*seconds)*time.Second)
	}
	if res != nil {
		blob, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(blob))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errCheck marks an output-check mismatch: the run still reports what it
// measured, with correct=false.
var errCheck = errors.New("output check failed")

// runUntraced times setupRepeats whole set-ups, discards one warm-up pass,
// then runs GC-fenced timed passes for at least d and reports the
// end-to-end metrics.
func runUntraced(setup func(int64, *tracer) (scenario, error), seed int64, d time.Duration) (*result, error) {
	var (
		w      scenario
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = setup(seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "set-up %d: %.3fs\n", i+1, setups[i])
	}
	defer w.close()
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	passes, err := timedPasses(w, d)
	res := &result{Metrics: metrics{}}
	tally(res, passes)
	res.Correct = err == nil && res.Failed == 0
	if len(passes) == 0 {
		return nil, err
	}
	m := res.Metrics
	m.set("setup_s", "s", median(setups))
	// Every metric is a median over passes, so a host hiccup that spoils
	// one pass does not move the run's figure.
	var walls, rates, cpu, heaps []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.judgments)/p.wall.Seconds())
		cpu = append(cpu, float64(p.cpu.Nanoseconds())/1e3/float64(p.judgments))
		heaps = append(heaps, float64(p.heap)/(1<<20))
	}
	m.set("pass_s", "s", median(walls))
	m.set("judgments_per_s", "1/s", median(rates))
	m.set("op_latency_p50_ms", "ms", latencyQuantile(passes, 0.50))
	m.set("cpu_us_per_judgment", "us", median(cpu))
	m.set("live_heap_mib", "MiB", median(heaps))
	m.set("ok_share", "share", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	if cerr := m.complete(endToEnd); cerr != nil && err == nil {
		err = cerr
	}
	return res, err
}

// timedPasses runs untraced passes until d has elapsed (at least one).
func timedPasses(w scenario, d time.Duration) ([]*passStats, error) {
	var passes []*passStats
	t0 := time.Now()
	for len(passes) == 0 || time.Since(t0) < d {
		p, err := measuredPass(w, nil)
		if p != nil {
			passes = append(passes, p)
		}
		if err != nil {
			return passes, err
		}
	}
	return passes, nil
}

// measuredPass runs one pass, forcing a GC first so one pass's garbage is
// not collected on the next's clock, and fills in its process-level
// counters (CPU time, GC cycles, allocation).
func measuredPass(w scenario, tr *tracer) (*passStats, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	p, err := w.pass(tr)
	if p == nil {
		return nil, err
	}
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	p.gc = (m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)
	p.allocs = m1.TotalAlloc - m0.TotalAlloc
	sort.Float64s(p.latMS)
	fmt.Fprintf(os.Stderr, "pass: traced=%t wall %.3fs cpu %.3fs judgments %d latency p50 %.3fms p99 %.3fms\n",
		tr != nil, p.wall.Seconds(), p.cpu.Seconds(), p.judgments, quantile(p.latMS, 0.5), quantile(p.latMS, 0.99))
	return p, err
}

// latencyQuantile is the median over passes of each pass's q-quantile of
// operation latency.
func latencyQuantile(passes []*passStats, q float64) float64 {
	var v []float64
	for _, p := range passes {
		v = append(v, quantile(p.latMS, q))
	}
	return median(v)
}

func tally(res *result, passes []*passStats) {
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // a run that attempted nothing failed
		res.Failed = 1
	}
}

// processCPU returns the process's cumulative user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
