package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// LSTMConfig sizes the branch-sequence model (after [8]): a single LSTM
// layer over embedded branch windows with a softmax next-class readout.
type LSTMConfig struct {
	Window int // IGM vector length; inputs = first Window-1, target = last
	Vocab  int // branch-class alphabet
	Embed  int // embedding width
	Hidden int
	Seed   int64
	// Training hyperparameters.
	Epochs   int
	LR       float64
	Truncate int // BPTT truncation length (in timesteps = vectors)
	Clip     float64
}

// DefaultLSTMConfig matches the RTAD deployment: 16-class branch windows
// over a 64-entry branch vocabulary, 16-wide embeddings, 32 hidden units
// (one gate per ML-MIAOW wavefront).
func DefaultLSTMConfig() LSTMConfig {
	return LSTMConfig{
		Window: 16, Vocab: 64, Embed: 16, Hidden: 32, Seed: 2,
		Epochs: 4, LR: 0.15, Truncate: 24, Clip: 4,
	}
}

// Gate indices (the order is frozen by the GPU memory layout).
const (
	GateI = iota
	GateF
	GateG
	GateO
	NumGates
)

// LSTM is a trained branch-behaviour model.
type LSTM struct {
	Cfg  LSTMConfig
	Emb  *Mat           // Vocab × Embed
	Wg   [NumGates]*Mat // Hidden × (Embed+Hidden)
	Bg   [NumGates][]float64
	OutW *Mat      // Vocab × Hidden
	OutB []float64 // Vocab
	// Threshold is the calibrated anomaly decision level.
	Threshold float64

	posW []float64 // cached PosWeights(Window)
}

func (c LSTMConfig) check() error {
	if c.Window < 2 || c.Vocab < 2 || c.Embed < 1 || c.Hidden < 1 {
		return fmt.Errorf("ml: bad LSTM config %+v", c)
	}
	return nil
}

// Validate checks every parameter against the shape m.Cfg declares, so a
// decoded model is rejected before any kernel indexes past a short slice.
func (m *LSTM) Validate() error {
	c := m.Cfg
	if err := c.check(); err != nil {
		return err
	}
	errs := []error{checkMat("LSTM Emb", m.Emb, c.Vocab, c.Embed)}
	for g := range m.Wg {
		errs = append(errs,
			checkMat(fmt.Sprintf("LSTM Wg[%d]", g), m.Wg[g], c.Hidden, c.Embed+c.Hidden),
			checkVec(fmt.Sprintf("LSTM Bg[%d]", g), m.Bg[g], c.Hidden))
	}
	errs = append(errs,
		checkMat("LSTM OutW", m.OutW, c.Vocab, c.Hidden),
		checkVec("LSTM OutB", m.OutB, c.Vocab))
	return errors.Join(errs...)
}

// State is the recurrent state carried between inference steps; the RTAD
// deployment keeps it resident in ML-MIAOW memory between input vectors.
type State struct {
	H, C []float64
}

// NewState returns a zero state for the model.
func (m *LSTM) NewState() *State {
	return &State{H: make([]float64, m.Cfg.Hidden), C: make([]float64, m.Cfg.Hidden)}
}

// PosWeights returns the fixed recency weights applied to window positions:
// a normalised geometric decay so the most recent branch dominates the
// input encoding while older context still contributes. The weights are
// part of the model image consumed by the GPU kernel.
func PosWeights(window int) []float64 {
	n := window - 1
	w := make([]float64, n)
	var sum float64
	for j := 0; j < n; j++ {
		w[j] = math.Pow(0.6, float64(n-1-j))
		sum += w[j]
	}
	for j := range w {
		w[j] /= sum
	}
	return w
}

// embedWindow computes the recency-weighted sum of the window's input-class
// embeddings — the encoding the GPU kernel reproduces with a
// gather-multiply-accumulate loop over the position-weight table.
func (m *LSTM) embedWindow(w []int32) []float64 {
	if m.posW == nil {
		m.posW = PosWeights(m.Cfg.Window)
	}
	x := make([]float64, m.Cfg.Embed)
	pw := m.posW
	for j := 0; j < m.Cfg.Window-1; j++ {
		row := m.Emb.Row(int(w[j]))
		for e := range x {
			x[e] += row[e] * pw[j]
		}
	}
	return x
}

// step runs one LSTM cell update, returning the gate activations (for
// training) and updating st in place.
func (m *LSTM) step(st *State, x []float64) (gates [NumGates][]float64) {
	hid := m.Cfg.Hidden
	xh := make([]float64, m.Cfg.Embed+hid)
	copy(xh, x)
	copy(xh[m.Cfg.Embed:], st.H)
	for g := 0; g < NumGates; g++ {
		pre := m.Wg[g].MulVec(xh)
		act := make([]float64, hid)
		for r := 0; r < hid; r++ {
			v := pre[r] + m.Bg[g][r]
			if g == GateG {
				act[r] = math.Tanh(v)
			} else {
				act[r] = Sigmoid(v)
			}
		}
		gates[g] = act
	}
	for r := 0; r < hid; r++ {
		st.C[r] = gates[GateF][r]*st.C[r] + gates[GateI][r]*gates[GateG][r]
		st.H[r] = gates[GateO][r] * math.Tanh(st.C[r])
	}
	return gates
}

// Step consumes one IGM vector: it advances the recurrent state on the
// window's input part and returns the class logits predicting the target.
func (m *LSTM) Step(st *State, w []int32) ([]float64, error) {
	if len(w) != m.Cfg.Window {
		return nil, fmt.Errorf("ml: LSTM window length %d, want %d", len(w), m.Cfg.Window)
	}
	x := m.embedWindow(w)
	m.step(st, x)
	logits := m.OutW.MulVec(st.H)
	for v := range logits {
		logits[v] += m.OutB[v]
	}
	return logits, nil
}

// Score returns the anomaly margin (best logit minus target logit) for one
// vector, advancing the state.
func (m *LSTM) Score(st *State, w []int32) (float64, error) {
	logits, err := m.Step(st, w)
	if err != nil {
		return 0, err
	}
	target := w[m.Cfg.Window-1]
	if target < 0 || int(target) >= m.Cfg.Vocab {
		return 0, fmt.Errorf("ml: target class %d outside vocab", target)
	}
	best := logits[0]
	for _, v := range logits[1:] {
		if v > best {
			best = v
		}
	}
	return best - logits[target], nil
}

// TrainLSTM fits the model on a normal vector stream with truncated BPTT
// and Adagrad. vectors[t] is the IGM window at step t; the model learns to
// predict each window's target class from the recurrent context.
func TrainLSTM(cfg LSTMConfig, vectors [][]int32) (*LSTM, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if len(vectors) < cfg.Truncate*2 {
		return nil, fmt.Errorf("ml: %d vectors is too little training data", len(vectors))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &LSTM{Cfg: cfg, posW: PosWeights(cfg.Window)}
	scale := 1.0 / math.Sqrt(float64(cfg.Embed+cfg.Hidden))
	m.Emb = NewMat(cfg.Vocab, cfg.Embed)
	m.Emb.Randomize(rng, 0.8)
	for g := 0; g < NumGates; g++ {
		m.Wg[g] = NewMat(cfg.Hidden, cfg.Embed+cfg.Hidden)
		m.Wg[g].Randomize(rng, scale)
		m.Bg[g] = make([]float64, cfg.Hidden)
	}
	// Forget-gate bias starts positive, the standard trick for stable
	// long-range training.
	for r := range m.Bg[GateF] {
		m.Bg[GateF][r] = 1
	}
	m.OutW = NewMat(cfg.Vocab, cfg.Hidden)
	m.OutW.Randomize(rng, scale)
	m.OutB = make([]float64, cfg.Vocab)

	tr := newLSTMTrainer(m)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		st := m.NewState()
		for start := 0; start+cfg.Truncate <= len(vectors); start += cfg.Truncate {
			tr.chunk(st, vectors[start:start+cfg.Truncate])
		}
	}
	return m, nil
}

// lstmTrainer holds Adagrad accumulators and scratch for BPTT.
type lstmTrainer struct {
	m *LSTM
	// Adagrad squared-gradient accumulators, same shapes as parameters.
	gEmb  *Mat
	gWg   [NumGates]*Mat
	gBg   [NumGates][]float64
	gOutW *Mat
	gOutB []float64
}

func newLSTMTrainer(m *LSTM) *lstmTrainer {
	tr := &lstmTrainer{m: m}
	tr.gEmb = NewMat(m.Emb.Rows, m.Emb.Cols)
	for g := 0; g < NumGates; g++ {
		tr.gWg[g] = NewMat(m.Wg[g].Rows, m.Wg[g].Cols)
		tr.gBg[g] = make([]float64, m.Cfg.Hidden)
	}
	tr.gOutW = NewMat(m.OutW.Rows, m.OutW.Cols)
	tr.gOutB = make([]float64, m.Cfg.Vocab)
	return tr
}

// adagrad applies one accumulated-gradient update to a parameter slice.
func (tr *lstmTrainer) adagrad(param, grad, accum []float64) {
	lr, clip := tr.m.Cfg.LR, tr.m.Cfg.Clip
	for i, g := range grad {
		if g > clip {
			g = clip
		} else if g < -clip {
			g = -clip
		}
		accum[i] += g * g
		param[i] -= lr * g / (math.Sqrt(accum[i]) + 1e-8)
	}
}

// chunk runs forward + backward over one truncation window, updating the
// parameters and carrying st forward.
func (tr *lstmTrainer) chunk(st *State, vectors [][]int32) {
	m := tr.m
	cfg := m.Cfg
	T := len(vectors)
	hid, emb := cfg.Hidden, cfg.Embed

	// Forward pass, recording everything backprop needs.
	xs := make([][]float64, T)
	hs := make([][]float64, T+1)
	cs := make([][]float64, T+1)
	var gates [NumGates][][]float64
	for g := range gates {
		gates[g] = make([][]float64, T)
	}
	probs := make([][]float64, T)
	hs[0] = append([]float64(nil), st.H...)
	cs[0] = append([]float64(nil), st.C...)
	run := *st
	for t, w := range vectors {
		xs[t] = m.embedWindow(w)
		gt := m.step(&run, xs[t])
		for g := 0; g < NumGates; g++ {
			gates[g][t] = gt[g]
		}
		hs[t+1] = append([]float64(nil), run.H...)
		cs[t+1] = append([]float64(nil), run.C...)
		logits := m.OutW.MulVec(run.H)
		maxl := math.Inf(-1)
		for v := range logits {
			logits[v] += m.OutB[v]
			if logits[v] > maxl {
				maxl = logits[v]
			}
		}
		var z float64
		p := make([]float64, cfg.Vocab)
		for v := range p {
			p[v] = math.Exp(logits[v] - maxl)
			z += p[v]
		}
		for v := range p {
			p[v] /= z
		}
		probs[t] = p
	}
	st.H, st.C = run.H, run.C

	// Gradient buffers.
	dEmb := NewMat(cfg.Vocab, emb)
	var dWg [NumGates]*Mat
	var dBg [NumGates][]float64
	for g := 0; g < NumGates; g++ {
		dWg[g] = NewMat(hid, emb+hid)
		dBg[g] = make([]float64, hid)
	}
	dOutW := NewMat(cfg.Vocab, hid)
	dOutB := make([]float64, cfg.Vocab)

	dhNext := make([]float64, hid)
	dcNext := make([]float64, hid)
	for t := T - 1; t >= 0; t-- {
		target := int(vectors[t][cfg.Window-1])
		// Softmax cross-entropy gradient on the logits.
		dlogit := append([]float64(nil), probs[t]...)
		dlogit[target] -= 1
		dh := append([]float64(nil), dhNext...)
		for v := 0; v < cfg.Vocab; v++ {
			dOutB[v] += dlogit[v]
			row := m.OutW.Row(v)
			drow := dOutW.Row(v)
			for r := 0; r < hid; r++ {
				drow[r] += dlogit[v] * hs[t+1][r]
				dh[r] += dlogit[v] * row[r]
			}
		}
		// Through h = o * tanh(c).
		dc := append([]float64(nil), dcNext...)
		dgate := [NumGates][]float64{}
		for g := range dgate {
			dgate[g] = make([]float64, hid)
		}
		for r := 0; r < hid; r++ {
			tc := math.Tanh(cs[t+1][r])
			o := gates[GateO][t][r]
			dgate[GateO][r] = dh[r] * tc * o * (1 - o)
			dc[r] += dh[r] * o * (1 - tc*tc)
			i := gates[GateI][t][r]
			f := gates[GateF][t][r]
			g := gates[GateG][t][r]
			dgate[GateI][r] = dc[r] * g * i * (1 - i)
			dgate[GateF][r] = dc[r] * cs[t][r] * f * (1 - f)
			dgate[GateG][r] = dc[r] * i * (1 - g*g)
			dcNext[r] = dc[r] * f
		}
		// Through the gate matmuls into weights, x and h(t-1).
		xh := make([]float64, emb+hid)
		copy(xh, xs[t])
		copy(xh[emb:], hs[t])
		dxh := make([]float64, emb+hid)
		for g := 0; g < NumGates; g++ {
			for r := 0; r < hid; r++ {
				dg := dgate[g][r]
				if dg == 0 {
					continue
				}
				dBg[g][r] += dg
				wrow := m.Wg[g].Row(r)
				drow := dWg[g].Row(r)
				for k := range xh {
					drow[k] += dg * xh[k]
					dxh[k] += dg * wrow[k]
				}
			}
		}
		copy(dhNext, dxh[emb:])
		// Into the embedding rows (scaled by the position weights).
		for j := 0; j < cfg.Window-1; j++ {
			row := dEmb.Row(int(vectors[t][j]))
			pw := m.posW[j]
			for e := 0; e < emb; e++ {
				row[e] += dxh[e] * pw
			}
		}
	}

	// Apply updates.
	tr.adagrad(m.Emb.Data, dEmb.Data, tr.gEmb.Data)
	for g := 0; g < NumGates; g++ {
		tr.adagrad(m.Wg[g].Data, dWg[g].Data, tr.gWg[g].Data)
		tr.adagrad(m.Bg[g], dBg[g], tr.gBg[g])
	}
	tr.adagrad(m.OutW.Data, dOutW.Data, tr.gOutW.Data)
	tr.adagrad(m.OutB, dOutB, tr.gOutB)
}
