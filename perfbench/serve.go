package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rtad/internal/core"
	"rtad/internal/cpu"
	"rtad/internal/isa"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/ptm"
	"rtad/internal/serve"
	"rtad/internal/workload"
)

// serve-paced and serve-batched: serveSessions long-lived rtad-wire
// sessions stream 458.sjeng PTM captures, in chunkBytes chunks, to an
// in-process server on a loopback listener.

type serveMode int

const (
	// servePaced is rtadd as deployed: unbatched, each session sending
	// open loop on a fixed schedule of pacedRate chunks/s.
	servePaced serveMode = iota
	// serveBatched streams flat out, throttled only by backpressure, into
	// a server with serve.WithBatching(1ms, 32).
	serveBatched
	// serveFlat streams flat out into an unbatched server: the measurement
	// of the 2-session capacity behind pacedRate.
	serveFlat
)

const (
	serveSessions = 2
	serveBench    = "458.sjeng"
	chunkBytes    = 4096
	// sessionChunks is one session's trace, and so one pass, in chunks.
	sessionChunks = 320
	// warmChunks is the warm-up pass's prefix of each trace.
	warmChunks = 80
	// serveStride and serveGap are every hello's IGM stride and replay
	// pacing: dense judgment, with a gap large enough that the MCM FIFO
	// never drops a strided vector.
	serveStride = 8
	serveGap    = 100_000
	// pacedRate is serve-paced's per-session send rate in chunks/s: a
	// little under half of the 2-session unbatched capacity, where the
	// latency median stays steady run to run (README.md).
	pacedRate = 100.0
	// releaseTimeout bounds the wait for a pass's last judgment.
	releaseTimeout = time.Minute
)

// epoch anchors the due times a sender publishes to its session's reader.
var epoch = time.Now()

// release is a chunk after whose feed the session has delivered cum
// judgments in all, more than after the chunk before it.
type release struct {
	chunk int
	cum   int64
}

// plan is what one session streams in a pass and what it must get back,
// learned by replaying the same bytes chunk by chunk in process.
type plan struct {
	data   []byte
	chunks int
	rels   []release
	total  int64 // judgments, drain tail included
	digest []byte
}

func (p *plan) chunk(i int) []byte {
	end := (i + 1) * chunkBytes
	if end > len(p.data) {
		end = len(p.data)
	}
	return p.data[i*chunkBytes : end]
}

type serveWorkload struct {
	mode        serveMode
	full, warmp []*plan // one per session
	plain       *server
	traced      *server        // traced runs: telemetry and wall spans on
	tel         *obs.Telemetry // the traced server's registry
	passN       int
}

// servePass is the per-pass ledger detail of the serve workloads.
type servePass struct {
	sendMS, lagMS []float64
	dropped       int64
	reg           regDelta // traced server only
}

func setupServe(seed int64, mode serveMode, tr *tracer) (scenario, error) {
	p, _ := workload.ByName(serveBench)
	dep, err := core.Train(core.DefaultTrainConfig(p, core.ModelLSTM))
	if err != nil {
		return nil, err
	}
	prog, err := p.Generate()
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{mode: mode, full: make([]*plan, serveSessions), warmp: make([]*plan, serveSessions)}
	errs := make([]error, serveSessions)
	var wg sync.WaitGroup
	for k := 0; k < serveSessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			data, err := captureTrace(prog, traceSkip(seed, k), sessionChunks*chunkBytes)
			if err == nil {
				w.full[k], err = replayPlan(dep, data, sessionChunks)
			}
			if err == nil {
				w.warmp[k], err = replayPlan(dep, data[:warmChunks*chunkBytes], warmChunks)
			}
			errs[k] = err
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if w.plain, err = startServer(dep, mode, nil, nil); err != nil {
		return nil, err
	}
	if tr != nil {
		w.tel = obs.NewMetricsOnly()
		t0 := time.Now()
		w.traced, err = startServer(dep, mode, w.tel, tr.wall)
		(&wallSpans{tk: tr.wall.Track("perfbench", "setup"), tr: tr}).span("serve", t0, nil)
		if err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// traceSkip is how many victim instructions session k's capture skips
// under workload seed s, so each seed streams different windows of the
// victim's execution.
func traceSkip(s int64, k int) int64 {
	x := (s*serveSessions + int64(k)) % 64
	if x < 0 {
		x += 64
	}
	return x * 1_000_000
}

// captureTrace runs the victim, skips skip instructions, and records the
// next n bytes of the branch-broadcast PTM stream a CoreSight probe would
// emit.
func captureTrace(prog *isa.Program, skip int64, n int) ([]byte, error) {
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	var stream []byte
	record := false
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
		if record {
			stream = enc.EncodeInto(stream, ev)
		}
		return 0
	})})
	if _, err := c.Run(skip); err != nil {
		return nil, err
	}
	record = true
	for len(stream) < n {
		if c.Halted() {
			return nil, fmt.Errorf("victim halted after %d of %d trace bytes", len(stream), n)
		}
		if _, err := c.Run(1_000_000); err != nil {
			return nil, err
		}
	}
	return stream[:n], nil
}

// replayPlan replays the first chunks chunks of data through an in-process
// trace-input session, exactly as the server opens one, recording each
// chunk's cumulative judgment count and a running digest.
func replayPlan(dep *core.Deployment, data []byte, chunks int) (*plan, error) {
	p := &plan{data: data, chunks: chunks}
	s, err := core.Open(core.Deployments{dep},
		core.WithConfig(core.PipelineConfig{Backend: kernels.BackendNative, Stride: serveStride}),
		core.WithTraceInput(serveGap))
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	var buf []byte
	add := func(js []core.Judged) {
		for _, j := range js {
			buf = serve.AppendJudgment(buf[:0], wireJudgment(j))
			h.Write(buf)
		}
		p.total += int64(len(js))
	}
	for i := 0; i < chunks; i++ {
		if err := s.FeedTrace(p.chunk(i)); err != nil {
			return nil, err
		}
		before := p.total
		add(s.Results())
		if p.total > before {
			p.rels = append(p.rels, release{chunk: i, cum: p.total})
		}
	}
	if err := s.Drain(); err != nil {
		return nil, err
	}
	add(s.Results())
	if len(p.rels) == 0 {
		return nil, fmt.Errorf("reference replay judged nothing")
	}
	p.digest = h.Sum(nil)
	return p, nil
}

// server is an in-process rtad-wire server on a loopback listener.
type server struct {
	srv  *serve.Server
	addr string
	done chan error
}

func startServer(dep *core.Deployment, mode serveMode, tel *obs.Telemetry, wall *obs.WallTracer) (*server, error) {
	opts := []serve.Option{serve.WithTelemetry(tel), serve.WithWallTracer(wall)}
	if mode == serveBatched {
		opts = append(opts, serve.WithBatching(time.Millisecond, 32))
	}
	srv := serve.New(nil, opts...)
	srv.Deploy(dep)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

func (s *server) stop() error {
	s.srv.Shutdown(time.Minute)
	return <-s.done
}

func (w *serveWorkload) close() {
	for _, s := range []*server{w.plain, w.traced} {
		if s != nil {
			s.stop()
		}
	}
}

func (w *serveWorkload) warm() error {
	for _, s := range []*server{w.plain, w.traced} {
		if s == nil {
			continue
		}
		if _, err := w.run(s, nil, w.warmp); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) pass(tr *tracer) (*passStats, error) {
	if tr == nil {
		return w.run(w.plain, nil, w.full)
	}
	before := w.tel.Reg.Snapshot()
	st, err := w.run(w.traced, tr, w.full)
	if st != nil {
		st.serve.reg = deltaOf(before, w.tel.Reg.Snapshot())
	}
	return st, err
}

// session is one client's state within a pass. The sender goroutine owns
// due, sendMS and lagMS until it returns; the client's reader goroutine
// owns the rest until done closes or Finish returns.
type session struct {
	plan *plan
	c    *serve.Client
	due  []atomic.Int64 // per chunk, nanoseconds since epoch

	h     hash.Hash
	buf   []byte
	count int64
	next  int // index into plan.rels of the next release to see
	latMS []float64
	end   time.Time
	done  chan struct{}

	sendMS, lagMS []float64
	err           error
}

func (s *session) onJudgment(j serve.Judgment) {
	s.count++
	s.buf = serve.AppendJudgment(s.buf[:0], j)
	s.h.Write(s.buf)
	rels := s.plan.rels
	if s.next == len(rels) || rels[s.next].cum > s.count {
		return
	}
	now := time.Since(epoch)
	for s.next < len(rels) && rels[s.next].cum <= s.count {
		due := time.Duration(s.due[rels[s.next].chunk].Load())
		s.latMS = append(s.latMS, float64((now-due).Nanoseconds())/1e6)
		s.next++
	}
	if s.next == len(rels) {
		s.end = epoch.Add(now)
		close(s.done)
	}
}

// run is one pass: fresh sessions on srv stream plans, then each
// session's judgment stream is checked against its plan.
func (w *serveWorkload) run(srv *server, tr *tracer, plans []*plan) (*passStats, error) {
	w.passN++
	st := &passStats{serve: &servePass{}}
	var passSpan *wallSpans
	tracks := make([]*wallSpans, len(plans))
	if tr != nil {
		passSpan = (&wallSpans{tk: tr.wall.Track("perfbench", "serve-pass"), tr: tr}).child(fmt.Sprintf("pass%d", w.passN), nil)
		for k := range tracks {
			tracks[k] = &wallSpans{tk: tr.wall.Track("perfbench", fmt.Sprintf("client%d", k)), tr: tr, id: passSpan.id}
		}
	}
	sess := make([]*session, len(plans))
	for k, p := range plans {
		st.attempted += int64(p.chunks)
		s := &session{plan: p, due: make([]atomic.Int64, p.chunks), h: sha256.New(), done: make(chan struct{})}
		t0 := time.Now()
		c, err := serve.Dial(srv.addr, serve.Hello{
			Benchmark: serveBench, Model: "lstm", Backend: kernels.BackendNative,
			Stride: serveStride, GapCycles: serveGap,
		}, s.onJudgment)
		if err != nil {
			for _, o := range sess[:k] {
				o.c.Close()
			}
			st.failed = st.attempted
			return st, fmt.Errorf("session %d: dial: %w", k, err)
		}
		tracks[k] = tracks[k].child("session", map[string]any{obs.SessionKey: c.SessionID()})
		tracks[k].span("dial", t0, nil)
		s.c = c
		sess[k] = s
	}

	start := time.Now()
	period := time.Duration(float64(time.Second) / pacedRate)
	var wg sync.WaitGroup
	for k, s := range sess {
		wg.Add(1)
		go func(k int, s *session) {
			defer wg.Done()
			offset := start.Add(time.Duration(k) * period / time.Duration(len(sess)))
			for i := 0; i < s.plan.chunks; i++ {
				now := time.Now()
				due := now
				if w.mode == servePaced {
					due = offset.Add(time.Duration(i) * period)
					if d := due.Sub(now); d > 0 {
						time.Sleep(d)
					}
					now = time.Now()
					s.lagMS = append(s.lagMS, float64(now.Sub(due).Nanoseconds())/1e6)
				}
				s.due[i].Store(int64(due.Sub(epoch)))
				if err := s.c.Send(s.plan.chunk(i)); err != nil {
					s.err = fmt.Errorf("chunk %d: %w", i, err)
					return
				}
				s.sendMS = append(s.sendMS, float64(time.Since(now).Nanoseconds())/1e6)
				tracks[k].span("send", now, map[string]any{"chunk": i})
			}
			select {
			case <-s.done:
			case <-time.After(releaseTimeout):
				s.err = fmt.Errorf("last judgment not released within %v", releaseTimeout)
			}
		}(k, s)
	}
	wg.Wait()
	var end time.Time
	for _, s := range sess {
		if s.err == nil && s.end.After(end) {
			end = s.end
		}
	}
	st.wall = end.Sub(start)
	st.heap = liveHeap()
	passSpan.end("pass", start)

	var errs []error
	for k, s := range sess {
		t0 := time.Now()
		sum, err := s.c.Finish()
		tracks[k].span("finish", t0, nil)
		tracks[k].end("session", start)
		if err != nil {
			s.c.Close() // waits for the reader, which owns the session's counters
			if s.err == nil {
				s.err = fmt.Errorf("finish: %w", err)
			}
		}
		if s.err == nil {
			s.err = s.check(sum)
		}
		if s.err != nil {
			// A failed session's judgments are not trusted: all its
			// chunks fail and every latency sample is missing.
			errs = append(errs, fmt.Errorf("session %d: %w", k, s.err))
			st.failed += int64(s.plan.chunks)
			for range s.plan.rels {
				st.latMS = append(st.latMS, math.Inf(1))
			}
		} else {
			st.latMS = append(st.latMS, s.latMS...)
			st.judgments += s.count
			st.serve.dropped += sum.Dropped
		}
		st.serve.sendMS = append(st.serve.sendMS, s.sendMS...)
		st.serve.lagMS = append(st.serve.lagMS, s.lagMS...)
	}
	return st, errors.Join(errs...)
}

// check compares a finished session's stream with its plan.
func (s *session) check(sum *serve.Summary) error {
	switch {
	case s.count != s.plan.total:
		return fmt.Errorf("%w: %d judgments, reference %d", errCheck, s.count, s.plan.total)
	case !bytes.Equal(s.h.Sum(nil), s.plan.digest):
		return fmt.Errorf("%w: judgment-stream digest differs from the in-process reference", errCheck)
	case sum.ShedChunks != 0:
		return fmt.Errorf("%w: server shed %d chunks", errCheck, sum.ShedChunks)
	case int64(sum.Judged) != s.plan.total:
		return fmt.Errorf("%w: summary judged %d, reference %d", errCheck, sum.Judged, s.plan.total)
	}
	return nil
}

func (w *serveWorkload) layers(m metrics, traced []*passStats) error {
	var reg regDelta
	var send, lag []float64
	var judged, dropped []float64
	for _, p := range traced {
		reg.add(p.serve.reg)
		send = append(send, p.serve.sendMS...)
		lag = append(lag, p.serve.lagMS...)
		judged = append(judged, float64(p.judgments))
		dropped = append(dropped, float64(p.serve.dropped))
	}
	n := float64(len(traced))
	jd, dr := median(judged), median(dropped)
	m.set("mcm.judged", "count", jd)
	m.set("mcm.dropped", "count", dr)
	m.set("mcm.judged_share", "share", jd/(jd+dr))

	feed := reg.hist["rtad_serve_feed_seconds"]
	write := reg.hist["rtad_serve_judgment_write_seconds"]
	e2e := reg.hist["rtad_serve_chunk_judgment_seconds"]
	m.set("session.feed_ms_mean", "ms", 1e3*feed.sum/float64(feed.count))
	m.set("io.write_us_mean", "us", 1e6*write.sum/float64(write.count))
	m.set("io.judgments_per_write", "count", float64(reg.ctr["rtad_serve_judgments_total"])/float64(write.count))
	m.set("io.server_chunk_ms_mean", "ms", 1e3*e2e.sum/float64(e2e.count))
	sort.Float64s(send)
	m.set("io.client_send_ms_p99", "ms", quantile(send, 0.99))
	m.set("wait.queue_ms_mean", "ms", 1e3*(e2e.sum-feed.sum-write.sum)/float64(e2e.count))
	m.set("wait.queue_depth_max", "count", float64(reg.gauge["rtad_serve_queue_depth_max"]))
	if w.mode == servePaced {
		sort.Float64s(lag)
		m.set("gen.lag_p99_ms", "ms", quantile(lag, 0.99))
	}
	if w.mode == serveBatched {
		batch := reg.hist["rtad_serve_infer_batch_seconds"]
		size := reg.hist["rtad_serve_batch_size"]
		rows := reg.ctr["rtad_serve_batch_rows_total"]
		m.set("infer.batches", "count", float64(batch.count)/n)
		m.set("infer.batch_size_mean", "count", size.sum/float64(size.count))
		m.set("infer.batch_us_mean", "us", 1e6*batch.sum/float64(batch.count))
		m.set("infer.windows", "count", float64(rows)/n)
		m.set("infer.busy_s", "s", batch.sum/n)
		m.set("infer.us_per_window", "us", 1e6*batch.sum/float64(rows))
		for _, r := range []string{"starve", "window", "full"} {
			m.set("infer.flush_"+r, "count", float64(reg.ctr["rtad_serve_batch_flush_"+r+"_total"])/n)
		}
	}
	return nil
}

// regDelta is the change in a registry's counters and histogram
// count/sum over a pass; gauges keep their end value.
type regDelta struct {
	ctr   map[string]int64
	gauge map[string]int64
	hist  map[string]histDelta
}

type histDelta struct {
	count int64
	sum   float64
}

func deltaOf(before, after *obs.Snapshot) regDelta {
	d := regDelta{ctr: map[string]int64{}, gauge: map[string]int64{}, hist: map[string]histDelta{}}
	for name, v := range after.Counters {
		d.ctr[name] = v - before.Counters[name]
	}
	for name, v := range after.Gauges {
		d.gauge[name] = v
	}
	for name, h := range after.Histograms {
		b := before.Histograms[name]
		d.hist[name] = histDelta{count: h.Count - b.Count, sum: h.Sum - b.Sum}
	}
	return d
}

func (d *regDelta) add(o regDelta) {
	if d.ctr == nil {
		*d = regDelta{ctr: map[string]int64{}, gauge: map[string]int64{}, hist: map[string]histDelta{}}
	}
	for k, v := range o.ctr {
		d.ctr[k] += v
	}
	for k, v := range o.gauge {
		d.gauge[k] = max(d.gauge[k], v)
	}
	for k, v := range o.hist {
		h := d.hist[k]
		d.hist[k] = histDelta{count: h.count + v.count, sum: h.sum + v.sum}
	}
}
