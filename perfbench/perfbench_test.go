package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime/pprof"
	"sync"
	"testing"
)

var (
	gridOnce sync.Once
	gridW    *gridWorkload
	gridErr  error
)

// trainedGrid trains the fig8-grid deployments once for every test.
func trainedGrid(t *testing.T) *gridWorkload {
	t.Helper()
	gridOnce.Do(func() {
		var w scenario
		w, gridErr = setupGrid(7, nil)
		if gridErr == nil {
			gridW = w.(*gridWorkload)
		}
	})
	if gridErr != nil {
		t.Fatal(gridErr)
	}
	return gridW
}

// A pass checked against the committed table passes; the same pass
// against a table with one digest corrupted fails the run with errCheck.
func TestCorruptedExpectedDigestFailsRun(t *testing.T) {
	g := trainedGrid(t)
	if _, err := g.pass(nil); err != nil {
		t.Fatalf("pass against the committed table: %v", err)
	}

	corrupt := expectedTable{}
	for k, v := range g.want {
		corrupt[k] = v
	}
	key := cellKey(attackSeed(g.seed, 0), gridCells[0].name)
	r, ok := corrupt[key]
	if !ok {
		t.Fatalf("expected.txt has no row %s", key)
	}
	flip := []byte(r.digest)
	flip[0] ^= 1
	r.digest = string(flip)
	corrupt[key] = r

	bad := *g
	bad.want = corrupt
	st, err := bad.pass(nil)
	if !errors.Is(err, errCheck) {
		t.Fatalf("pass against a corrupted digest: err = %v, want errCheck", err)
	}
	if st.failed == 0 {
		t.Fatal("failed pass counted no failed operations")
	}
}

// The layer shares of a real profile of the grid sum to 1, and the
// ledger layers cover at least minCoverage of the samples.
func TestLayerSharesSumToOne(t *testing.T) {
	g := trainedGrid(t)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	_, err := g.pass(nil)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	if err := foldProfile(prof.Bytes(), ledgerTable, counts); err != nil {
		t.Fatal(err)
	}
	shares := layerShares(counts)
	var sum float64
	for _, l := range ledgerLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("layer shares sum to %v, want 1 (%v)", sum, shares)
	}
	if shares["covered"] < minCoverage {
		t.Fatalf("ledger layers cover %.3f of samples, want ≥ %v (%v)", shares["covered"], minCoverage, shares)
	}
	for _, l := range []string{"cpu", "trace", "mcm", "infer"} {
		if shares[l] == 0 {
			t.Errorf("grid profile has no %s samples (%v)", l, shares)
		}
	}
}

func TestLayerTableMatching(t *testing.T) {
	for fn, want := range map[string]string{
		"rtad/internal/kernels.(*nativeBackend).Infer":       "infer",
		"rtad/internal/core.(*Pipeline).drainVectors":        "mcm",   // package entry, not the drain entry
		"rtad/internal/core.(*Pipeline).drain":               "trace", // exact entry beats the package
		"rtad/internal/core.(*Session).FeedTrace.func1":      "trace", // closures follow their function
		"runtime.gcBgMarkWorker":                             "runtime",
		"runtime.memmove":                                    "",
		"net.(*conn).Write":                                  "io",
		"rtad/internal/obs.(*Tracer).record":                 "other",
		"rtad/internal/cpu.(*CPU).Run":                       "cpu",
		"rtad/internal/serve.(*runner).flushJudgments.func2": "io",
	} {
		if got := ledgerTable.layerOf(fn); got != want {
			t.Errorf("layerOf(%s) = %q, want %q", fn, got, want)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "rtad/internal/ml.(*LSTMParamsQ).StepQ", "rtad/internal/core.(*Session).FeedTrace"}, "infer"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "rtad/internal/ml.X"}, "runtime"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
	} {
		if got := ledgerTable.attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// BENCHMARK.json names exactly the metrics, with the units, the program
// reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestQuantileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(s, 0.5); q != 5 {
		t.Errorf("p50 = %v, want 5", q)
	}
	if q := quantile(s, 0.99); q != 10 {
		t.Errorf("p99 = %v, want 10", q)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
