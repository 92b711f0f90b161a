package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rtad/internal/core"
	"rtad/internal/cpu"
	"rtad/internal/isa"
	"rtad/internal/kernels"
	"rtad/internal/serve"
	"rtad/internal/workload"
)

// fig8-grid: the offline Fig 8 detection grid — the eight cells of
// BenchmarkBackendFig8Grid and BenchmarkBackendFig8GridSaturated on the
// native backend — repeated gridsPerPass times per pass, each repetition
// under its own attack seeds.

// gridsPerPass sizes a pass to over a second.
const gridsPerPass = 1

// attackSeeds is how many attack seeds expected.txt covers; a workload
// seed picks gridsPerPass of them.
const attackSeeds = 32

type gridCell struct {
	name string
	lstm bool // LSTM on 458.sjeng; otherwise ELM on 400.perlbench
	cus  int
	sat  bool // Fig 8's overflow regime: deep FIFO, every vector judged
}

var gridCells = []gridCell{
	{"elm-c1", false, 1, false},
	{"elm-c5", false, 5, false},
	{"lstm-c1", true, 1, false},
	{"lstm-c5", true, 5, false},
	{"elm-sat-c1", false, 1, true},
	{"elm-sat-c5", false, 5, true},
	{"lstm-sat-c1", true, 1, true},
	{"lstm-sat-c5", true, 5, true},
}

// config is the cell's pipeline configuration, instruction budget and
// attack under attack seed a (a=1 reproduces the Go benchmarks' seeds).
func (c gridCell) config(a int64, calib *kernels.Calibration) (core.PipelineConfig, int64, core.AttackSpec) {
	cfg := core.PipelineConfig{CUs: c.cus, Backend: kernels.BackendNative, Calibration: calib}
	instr := int64(4_000_000)
	spec := core.AttackSpec{BurstLen: 4096, Seed: a}
	if c.lstm {
		spec = core.AttackSpec{Seed: a + 2}
	}
	if c.sat {
		cfg.FIFODepth = 1 << 16
		if c.lstm {
			cfg.Stride, instr = 24, 3_000_000
		}
	}
	return cfg, instr, spec.Resolve(instr)
}

// attackSeed is the attack seed of repetition r of a pass under workload
// seed s: a 1-based index into expected.txt.
func attackSeed(s int64, r int) int64 {
	x := (s*gridsPerPass + int64(r)) % attackSeeds
	if x < 0 {
		x += attackSeeds
	}
	return x + 1
}

// cellResult is what a cell's output check compares.
type cellResult struct {
	judged   int
	dropped  int64
	latency  int64 // ps
	detected bool
	digest   string // SHA-256 of the judgment stream in wire encoding
}

func (r cellResult) String() string {
	return fmt.Sprintf("%d %d %d %t %s", r.judged, r.dropped, r.latency, r.detected, r.digest)
}

// expectedTable maps "attackSeed/cell" to the committed result.
type expectedTable map[string]cellResult

func cellKey(a int64, cell string) string { return strconv.FormatInt(a, 10) + "/" + cell }

//go:embed expected.txt
var expectedTxt string

func parseExpected(text string) (expectedTable, error) {
	t := expectedTable{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var a int64
		var cell string
		var r cellResult
		if _, err := fmt.Sscanf(line, "%d %s %d %d %d %t %s", &a, &cell, &r.judged, &r.dropped, &r.latency, &r.detected, &r.digest); err != nil {
			return nil, fmt.Errorf("expected.txt:%d: %w", n, err)
		}
		t[cellKey(a, cell)] = r
	}
	return t, sc.Err()
}

// judgmentDigest hashes a judgment stream in its wire encoding, the form
// the serve workloads hash too.
func judgmentDigest(js []core.Judged) string {
	h := sha256.New()
	var buf []byte
	for _, j := range js {
		buf = serve.AppendJudgment(buf[:0], wireJudgment(j))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func wireJudgment(j core.Judged) serve.Judgment {
	return serve.Judgment{
		Seq:         j.Vector.Seq,
		Done:        int64(j.Rec.Done),
		FinalRetire: int64(j.FinalRetire),
		IRQAt:       int64(j.Rec.IRQAt),
		MarginQ:     j.Rec.Judgment.MarginQ,
		EwmaQ:       j.Rec.Judgment.EwmaQ,
		Anomaly:     j.Rec.Judgment.Anomaly,
	}
}

// trainGrid trains the grid's two deployments exactly as the Go
// benchmarks do.
func trainGrid() (elm, lstm *core.Deployment, err error) {
	pe, _ := workload.ByName("400.perlbench")
	if elm, err = core.Train(core.DefaultTrainConfig(pe, core.ModelELM)); err != nil {
		return nil, nil, err
	}
	sj, _ := workload.ByName("458.sjeng")
	if lstm, err = core.Train(core.DefaultTrainConfig(sj, core.ModelLSTM)); err != nil {
		return nil, nil, err
	}
	return elm, lstm, nil
}

type gridWorkload struct {
	seed      int64
	elm, lstm *core.Deployment
	want      expectedTable
	timer     *inferTimer // traced runs only
	tr        *tracer     // traced runs only
	passN     int
}

// gridPass is the per-pass ledger detail of fig8-grid.
type gridPass struct {
	judged, dropped int64
	inferWindows    int64
	inferBusy       time.Duration
}

func setupGrid(seed int64, tr *tracer) (scenario, error) {
	want, err := parseExpected(expectedTxt)
	if err != nil {
		return nil, err
	}
	elm, lstm, err := trainGrid()
	if err != nil {
		return nil, err
	}
	g := &gridWorkload{seed: seed, elm: elm, lstm: lstm, want: want, tr: tr}
	if tr != nil {
		g.timer = &inferTimer{}
	}
	return g, nil
}

func (g *gridWorkload) close() {}

func (g *gridWorkload) warm() error {
	_, err := g.pass(nil)
	return err
}

// runCell opens and runs one cell, returning its result (all but the
// digest, which the caller takes from the session's Results) and session.
func (g *gridWorkload) runCell(c gridCell, a int64, calib *kernels.Calibration, wrap func(kernels.Backend) kernels.Backend,
	tk *wallSpans) (cellResult, *core.Session, error) {
	dep := g.elm
	if c.lstm {
		dep = g.lstm
	}
	cfg, instr, spec := c.config(a, calib)
	opts := []core.Option{core.WithConfig(cfg), core.WithAttack(spec)}
	if wrap != nil {
		opts = append(opts, core.WithEngineWrap(wrap))
	}
	t0 := time.Now()
	s, err := core.Open(core.Deployments{dep}, opts...)
	tk.span("open", t0, nil)
	if err != nil {
		return cellResult{}, nil, err
	}
	t0 = time.Now()
	res, err := s.Detect(instr)
	tk.span("detect", t0, nil)
	if err != nil {
		return cellResult{}, nil, err
	}
	return cellResult{
		judged: res.Judged, dropped: res.Dropped, latency: int64(res.Latency), detected: res.Detected,
	}, s, nil
}

func (g *gridWorkload) pass(tr *tracer) (*passStats, error) {
	g.passN++
	st := &passStats{grid: &gridPass{}}
	var wrap func(kernels.Backend) kernels.Backend
	var track *wallSpans
	if tr != nil {
		g.timer.reset()
		wrap = g.timer.wrap
		track = &wallSpans{tk: tr.wall.Track("perfbench", "fig8-grid"), tr: tr}
	}
	passSpan := track.child(fmt.Sprintf("pass%d", g.passN), nil)
	calib := kernels.NewCalibration()
	var last *core.Session
	start := time.Now()
	st.attempted = int64(gridsPerPass * len(gridCells))
	for r := 0; r < gridsPerPass; r++ {
		a := attackSeed(g.seed, r)
		for i, c := range gridCells {
			cellSpan := passSpan.child(c.name, map[string]any{"attack_seed": a})
			t0 := time.Now()
			got, s, err := g.runCell(c, a, calib, wrap, cellSpan)
			cellSpan.end("cell", t0)
			if err == nil {
				st.latMS = append(st.latMS, float64(time.Since(t0).Nanoseconds())/1e6)
				got.digest = judgmentDigest(s.Results())
				if want, ok := g.want[cellKey(a, c.name)]; !ok || got != want {
					err = fmt.Errorf("%w: got %v, want %v", errCheck, got, want)
				}
			}
			if err != nil {
				st.failed = st.attempted - int64(r*len(gridCells)+i)
				return st, fmt.Errorf("cell %s (attack seed %d): %w", c.name, a, err)
			}
			st.judgments += int64(got.judged)
			st.grid.judged += int64(got.judged)
			st.grid.dropped += got.dropped
			last = s
		}
	}
	st.wall = time.Since(start)
	passSpan.end("pass", start)
	st.heap = liveHeap()
	runtime.KeepAlive(last)
	if tr != nil {
		st.grid.inferWindows, st.grid.inferBusy = g.timer.windows, g.timer.busy
	}
	return st, nil
}

func (g *gridWorkload) layers(m metrics, traced []*passStats) error {
	first := traced[0].grid
	for _, p := range traced {
		if p.grid.judged != first.judged || p.grid.dropped != first.dropped {
			return fmt.Errorf("%w: mcm counts differ between passes", errCheck)
		}
	}
	m.set("mcm.judged", "count", float64(first.judged))
	m.set("mcm.dropped", "count", float64(first.dropped))
	m.set("mcm.judged_share", "share", float64(first.judged)/float64(first.judged+first.dropped))
	var windows, busy []float64
	var sumW int64
	var sumB time.Duration
	for _, p := range traced {
		windows = append(windows, float64(p.grid.inferWindows))
		busy = append(busy, p.grid.inferBusy.Seconds())
		sumW += p.grid.inferWindows
		sumB += p.grid.inferBusy
	}
	m.set("infer.windows", "count", median(windows))
	m.set("infer.busy_s", "s", median(busy))
	m.set("infer.us_per_window", "us", float64(sumB.Nanoseconds())/1e3/float64(sumW))
	rate, err := g.victimRate()
	if err != nil {
		return err
	}
	m.set("cpu.minstr_per_s", "Minstr/s", rate)
	return nil
}

// victimRate times cpu.New(...).Run of every cell's victim alone, with a
// counting sink, after one untimed round that fills the translation cache.
func (g *gridWorkload) victimRate() (float64, error) {
	progs := map[bool]*cpuProgram{}
	for _, lstm := range []bool{false, true} {
		dep := g.elm
		if lstm {
			dep = g.lstm
		}
		p, err := newCPUProgram(dep.Profile)
		if err != nil {
			return 0, err
		}
		progs[lstm] = p
	}
	track := &wallSpans{tk: g.tr.wall.Track("perfbench", "victim"), tr: g.tr}
	var total int64
	var busy time.Duration
	for round := 0; round < 2; round++ {
		for _, c := range gridCells {
			_, instr, _ := c.config(1, nil)
			t0 := time.Now()
			n, err := progs[c.lstm].run(instr)
			track.span("cpu.run", t0, map[string]any{"cell": c.name, "round": round})
			if err != nil {
				return 0, err
			}
			if round == 1 {
				busy += time.Since(t0)
				total += n
			}
		}
	}
	return float64(total) / 1e6 / busy.Seconds(), nil
}

// cpuProgram is a victim program with its shared translation cache.
type cpuProgram struct {
	prog  *isa.Program
	cache *cpu.Cache
}

func newCPUProgram(p workload.Profile) (*cpuProgram, error) {
	prog, err := p.Generate()
	if err != nil {
		return nil, err
	}
	return &cpuProgram{prog: prog, cache: cpu.NewCache(prog)}, nil
}

// run executes instr instructions of a fresh core, counting branches.
func (p *cpuProgram) run(instr int64) (int64, error) {
	var branches int64
	c := cpu.New(p.prog, cpu.Config{Mode: cpu.ModeRTAD, Cache: p.cache,
		Sink: cpu.SinkFunc(func(cpu.BranchEvent) int64 { branches++; return 0 })})
	n, err := c.Run(instr)
	if branches == 0 && err == nil {
		err = fmt.Errorf("victim retired no branches")
	}
	return n, err
}

// inferTimer is the core.WithEngineWrap interceptor of traced grid passes:
// it counts windows and wall time inside the inference backend, forwarding
// Infer, InferBatch and (when the wrapped engine has it) FixedCost, so the
// MCM's behaviour is unchanged.
type inferTimer struct {
	windows int64
	busy    time.Duration
}

func (t *inferTimer) reset() { t.windows, t.busy = 0, 0 }

func (t *inferTimer) wrap(b kernels.Backend) kernels.Backend {
	e := timedEngine{Backend: b, t: t}
	if fc, ok := b.(kernels.FixedCoster); ok {
		return timedFixedEngine{timedEngine: e, fc: fc}
	}
	return e
}

type timedEngine struct {
	kernels.Backend
	t *inferTimer
}

func (e timedEngine) Infer(w []int32) (kernels.Judgment, int64, error) {
	t0 := time.Now()
	j, c, err := e.Backend.Infer(w)
	e.t.busy += time.Since(t0)
	e.t.windows++
	return j, c, err
}

func (e timedEngine) InferBatch(ws [][]int32) ([]kernels.Judgment, []int64, error) {
	t0 := time.Now()
	js, cs, err := e.Backend.InferBatch(ws)
	e.t.busy += time.Since(t0)
	e.t.windows += int64(len(ws))
	return js, cs, err
}

type timedFixedEngine struct {
	timedEngine
	fc kernels.FixedCoster
}

func (e timedFixedEngine) FixedCost() (int64, bool) { return e.fc.FixedCost() }

// writeExpected regenerates expected.txt: every cell under every attack
// seed, one line each.
func writeExpected(path string) error {
	elm, lstm, err := trainGrid()
	if err != nil {
		return err
	}
	g := &gridWorkload{elm: elm, lstm: lstm}
	var b strings.Builder
	b.WriteString("# fig8-grid expected results: attack-seed cell judged dropped latency_ps detected sha256(judgments)\n")
	b.WriteString("# Regenerate with: go run . --write-expected expected.txt\n")
	for a := int64(1); a <= attackSeeds; a++ {
		calib := kernels.NewCalibration()
		for _, c := range gridCells {
			got, s, err := g.runCell(c, a, calib, nil, nil)
			if err != nil {
				return fmt.Errorf("cell %s (attack seed %d): %w", c.name, a, err)
			}
			got.digest = judgmentDigest(s.Results())
			fmt.Fprintf(&b, "%d %s %v\n", a, c.name, got)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
