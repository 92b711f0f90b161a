package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"rtad/internal/obs"
)

// tracer records the benchmark's own wall-clock spans — one around each
// public call into the program — on the same obs.WallTracer the serve
// workloads hand to the server, so client and server spans share one
// Perfetto timeline. Spans stay in memory until the run writes them out.
type tracer struct {
	wall *obs.WallTracer
	ids  atomic.Int64
}

func newTracer() *tracer { return &tracer{wall: obs.NewWallTracer()} }

// id mints a span id unique within the run.
func (t *tracer) id(prefix string) string {
	return prefix + strconv.FormatInt(t.ids.Add(1), 10)
}

// wallSpans is one span on a track, named by its id and its parent's id;
// a nil *wallSpans records nothing (untraced passes).
type wallSpans struct {
	tk         *obs.WallTrack
	tr         *tracer
	id, parent string
	args       map[string]any
}

// child opens a span caused by s; record it with end.
func (s *wallSpans) child(name string, args map[string]any) *wallSpans {
	if s == nil {
		return nil
	}
	return &wallSpans{tk: s.tk, tr: s.tr, id: s.tr.id(name + "#"), parent: s.id, args: args}
}

// end records s as the span name over [start, now].
func (s *wallSpans) end(name string, start time.Time) {
	if s != nil {
		record(s.tk, name, s.id, s.parent, start, s.args)
	}
}

// span records a leaf child of s over [start, now].
func (s *wallSpans) span(name string, start time.Time, args map[string]any) {
	if s != nil {
		record(s.tk, name, s.tr.id(name+"#"), s.id, start, args)
	}
}

// record writes one span over [start, now], naming its own id and the id
// of the span that caused it, plus extra args.
func record(tk *obs.WallTrack, name, id, parent string, start time.Time, extra map[string]any) {
	args := map[string]any{"id": id, "parent": parent}
	for k, v := range extra {
		args[k] = v
	}
	tk.Since(name, start, args)
}

// runTraced is the per-layer run. After one set-up and the warm-up it
// alternates untraced and traced passes for at least d: the traced ones
// record spans and a CPU profile, the untraced ones give the baseline for
// tracing_overhead and the runtime counters (which tracing would inflate).
func runTraced(setup func(int64, *tracer) (scenario, error), name string, seed int64, d time.Duration, outDir string) (*result, error) {
	tr := newTracer()
	w, err := setup(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var (
		plain, traced []*passStats
		samples       = map[string]int64{}
		profiles      [][]byte
	)
	t0 := time.Now()
	for len(traced) < 2 || time.Since(t0) < d {
		p, err := measuredPass(w, nil)
		if p != nil {
			plain = append(plain, p)
		}
		if err != nil {
			return failedRun(plain, traced), err
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		p, err = measuredPass(w, tr)
		pprof.StopCPUProfile()
		if p != nil {
			traced = append(traced, p)
		}
		if err != nil {
			return failedRun(plain, traced), err
		}
		if err := foldProfile(prof.Bytes(), ledgerTable, samples); err != nil {
			return nil, err
		}
		profiles = append(profiles, prof.Bytes())
	}

	res := &result{Metrics: metrics{}}
	tally(res, append(append([]*passStats(nil), plain...), traced...))
	res.Correct = res.Failed == 0
	m := res.Metrics
	for _, d := range perLayer {
		m.set(d.name, d.unit, 0)
	}
	shares := layerShares(samples)
	for _, l := range ledgerLayers {
		m.set(l+".share", "share", shares[l])
	}
	var gcs []float64
	var allocs uint64
	var judged int64
	for _, p := range plain {
		gcs = append(gcs, float64(p.gc))
		allocs += p.allocs
		judged += p.judgments
	}
	m.set("runtime.gc_cycles", "count", median(gcs))
	m.set("runtime.alloc_kib_per_judgment", "KiB", float64(allocs)/1024/float64(judged))
	m.set("tracing_overhead", "ratio", cpuPerJudgment(traced)/cpuPerJudgment(plain))
	m.set("e2e.op_latency_p99_ms", "ms", latencyQuantile(plain, 0.99))
	if err := w.layers(m, traced); err != nil {
		return res, err
	}
	if err := m.complete(perLayer); err != nil {
		return res, err
	}
	if cov := shares["covered"]; cov < minCoverage {
		res.Correct = false
		return res, fmt.Errorf("ledger layers cover %.1f%% of CPU samples, want ≥ %.0f%%", 100*cov, 100*minCoverage)
	}
	return res, writeTraceFiles(outDir, fmt.Sprintf("%s-seed%d", name, seed), tr, profiles)
}

// failedRun is the result a traced run reports when a pass failed.
func failedRun(plain, traced []*passStats) *result {
	res := &result{Metrics: metrics{}}
	tally(res, append(append([]*passStats(nil), plain...), traced...))
	return res
}

func cpuPerJudgment(ps []*passStats) float64 {
	var cpu time.Duration
	var judged int64
	for _, p := range ps {
		cpu += p.cpu
		judged += p.judgments
	}
	return cpu.Seconds() / float64(judged)
}

// writeTraceFiles writes the Perfetto JSON of the run's spans and the raw
// CPU profile of each traced pass under dir.
func writeTraceFiles(dir, stem string, tr *tracer, profiles [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".trace.json"))
	if err != nil {
		return err
	}
	if err := tr.wall.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for i, prof := range profiles {
		name := filepath.Join(dir, fmt.Sprintf("%s.pass%d.pprof", stem, i))
		if err := os.WriteFile(name, prof, 0o644); err != nil {
			return err
		}
	}
	return nil
}
