package ml

import "rtad/internal/gpu"

// The Q16.16 row kernels. Each model has exactly one: MarginQ for the ELM,
// StepQ for the LSTM. The batched entry points (MarginBatchQ, StepBatchQ)
// run each window through it, so there is one fast path per model and
// batch size 1 — the common case in serving, where a fused pass averages
// under two rows — is as fast as any other.
//
// The kernels block over output rows, not over batch rows. Every matrix
// stage is a mat-vec against one shared activation vector:
//
//   - LSTM gates: Wg is contiguous across the NumGates banks, so the gates
//     are one (NumGates*Hidden) × (Embed+Hidden) mat-vec over xh. Each pass
//     over xh computes four output rows with their accumulators held in
//     registers, so each activation word loaded feeds four multiply-adds.
//     The LUT activations run after all pre-activations are done.
//   - Readouts (LSTM OutW, ELM Beta): the weights are stored row-major
//     [Hidden][Vocab], so the kernels walk them that way — two hidden rows
//     per pass, accumulating into the logits vector — instead of gathering
//     a column per logit with stride Vocab.
//   - ELM hidden layer: the positional one-hot input selects Window-1 W1
//     columns, each Hidden contiguous words, accumulated column by column.
//
// Every weight row is resliced to the length of the vector it is walked
// against, which lets the compiler drop the bounds checks in the inner
// loops. The weights stay views over the model image; nothing is copied
// or repacked (uint32→int32 is free).
//
// The kernels deliberately do not block over batch rows (several windows
// sharing each streamed weight word). That pays only for full batches:
// serving fuses 1.35 rows per pass on average, so such a kernel runs
// nearly every window through its single-row tail, and at 32 rows the row
// kernel already matches a four-row blocked pass per row
// (BenchmarkStepBatchQ32). A batch is the row kernel in a loop.
//
// Bit-identity contract: every product keeps MulQ's exact rounding,
// int32(int64(a)*int64(b)>>16). Only the order of the int32 wrapping adds
// differs from the straightforward loops, and those adds are associative
// and commutative mod 2^32, so every margin and every h/c word equals the
// naive scalar walk bit-for-bit — and so equals the GPU kernels'.

// MarginQ runs one ELM forward pass over the quantised input words (Window
// class IDs, the last being the branch actually observed) and returns the
// margin score: max logit minus the observed class's logit.
func (p *ELMParamsQ) MarginQ(win []uint32) int32 {
	H, V := p.Hidden, p.Vocab
	if len(p.hid) != H || len(p.logits) != V {
		p.hid = make([]int32, H)
		p.logits = make([]int32, V)
	}
	hid, logits := p.hid, p.logits
	for row, b := range p.B1[:len(hid)] {
		hid[row] = int32(b)
	}
	for j := 0; j < p.Window-1; j++ {
		col := j*V + int(win[j])
		wcol := p.W1[col*H : (col+1)*H][:len(hid)]
		for row := range hid {
			hid[row] += int32(wcol[row])
		}
	}
	lut := p.SigLUT[:LUTSize]
	for row, a := range hid {
		hid[row] = SigmoidQ(lut, a)
	}
	for v := range logits {
		logits[v] = 0
	}
	readout(logits, hid, p.Beta)
	return MarginOfQ(logits, int(win[p.Window-1]))
}

// StepQ advances the recurrent state by one timestep: h and c (Hidden
// values each, Q16.16) are read and updated in place, and the returned
// value is the margin score for the window's final class.
func (p *LSTMParamsQ) StepQ(h, c []int32, in []uint32) int32 {
	E, H, V := p.Embed, p.Hidden, p.Vocab
	xw := E + H
	GH := NumGates * H
	if len(p.xh) != xw || len(p.gates) != GH || len(p.logits) != V {
		p.xh = make([]int32, xw)
		p.gates = make([]int32, GH)
		p.logits = make([]int32, V)
	}
	xh, gates, logits := p.xh, p.gates, p.logits

	// Window embedding, concatenated with the previous hidden state.
	x := xh[:E]
	for i := range x {
		x[i] = 0
	}
	for j := 0; j < p.Window-1; j++ {
		cls := int(in[j])
		pw := int32(p.PosW[j])
		emb := p.Emb[cls*E : (cls+1)*E][:len(x)]
		for e := range x {
			x[e] += gpu.MulQ(int32(emb[e]), pw)
		}
	}
	h, c = h[:H], c[:H]
	copy(xh[E:], h)

	// Gate pre-activations: one mat-vec over all banks, four rows a pass.
	// GH is NumGates*Hidden with NumGates == 4, so the blocks cover it.
	wg := p.Wg[:GH*xw]
	bg := p.Bg[:GH]
	for r := 0; r < GH; r += 4 {
		w0 := wg[r*xw : (r+1)*xw]
		w1 := wg[(r+1)*xw : (r+2)*xw]
		w2 := wg[(r+2)*xw : (r+3)*xw]
		w3 := wg[(r+3)*xw : (r+4)*xw]
		gates[r], gates[r+1], gates[r+2], gates[r+3] = dot4(
			int32(bg[r]), int32(bg[r+1]), int32(bg[r+2]), int32(bg[r+3]), w0, w1, w2, w3, xh)
	}

	// Activations: sigmoid on the I, F and O banks, tanh on G.
	sig, tanh := p.SigLUT[:LUTSize], p.TanhLUT[:LUTSize]
	for i, a := range gates[:GH] {
		if i >= GateG*H && i < GateO*H {
			gates[i] = TanhQ(tanh, a)
		} else {
			gates[i] = SigmoidQ(sig, a)
		}
	}

	// State update.
	gi := gates[GateI*H : (GateI+1)*H][:len(h)]
	gf := gates[GateF*H : (GateF+1)*H][:len(h)]
	gg := gates[GateG*H : (GateG+1)*H][:len(h)]
	gO := gates[GateO*H : (GateO+1)*H][:len(h)]
	for k := range h {
		cv := gpu.MulQ(gf[k], c[k]) + gpu.MulQ(gi[k], gg[k])
		c[k] = cv
		h[k] = gpu.MulQ(gO[k], TanhQ(tanh, cv))
	}

	for v, b := range p.OutB[:len(logits)] {
		logits[v] = int32(b)
	}
	readout(logits, h, p.OutW)
	return MarginOfQ(logits, int(in[p.Window-1]))
}

// dot4 adds the dot products of four weight rows with x to the four
// accumulators. It is its own function so the register allocator sees only
// the loop's own values: inlined into StepQ, the accumulators and row
// pointers spill to the stack on every iteration.
func dot4(a0, a1, a2, a3 int32, w0, w1, w2, w3 []uint32, x []int32) (int32, int32, int32, int32) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for k, xv := range x {
		a0 += gpu.MulQ(int32(w0[k]), xv)
		a1 += gpu.MulQ(int32(w1[k]), xv)
		a2 += gpu.MulQ(int32(w2[k]), xv)
		a3 += gpu.MulQ(int32(w3[k]), xv)
	}
	return a0, a1, a2, a3
}

// readout adds the readout layer to logits: logits[v] += act[k]*w[k][v]
// over k, for weights w stored row-major [len(act)][len(logits)], two
// rows a pass.
func readout(logits, act []int32, w []uint32) {
	V := len(logits)
	w = w[:len(act)*V]
	k := 0
	for ; k+2 <= len(act); k += 2 {
		a0, a1 := act[k], act[k+1]
		w0 := w[k*V : (k+1)*V][:len(logits)]
		w1 := w[(k+1)*V : (k+2)*V][:len(logits)]
		for v := range logits {
			logits[v] += gpu.MulQ(a0, int32(w0[v])) + gpu.MulQ(a1, int32(w1[v]))
		}
	}
	if k < len(act) {
		a0 := act[k]
		w0 := w[k*V : (k+1)*V][:len(logits)]
		for v := range logits {
			logits[v] += gpu.MulQ(a0, int32(w0[v]))
		}
	}
}

// MarginBatchQ runs the ELM forward pass over n windows packed row-major
// in `in` (n*Window words) and writes the n margin scores to margins.
// Row b equals MarginQ(in[b*Window:(b+1)*Window]) bit-for-bit.
func (p *ELMParamsQ) MarginBatchQ(in []uint32, n int, margins []int32) {
	w := p.Window
	for b := 0; b < n; b++ {
		margins[b] = p.MarginQ(in[b*w : (b+1)*w])
	}
}

// StepBatchQ advances n independent recurrent streams by one timestep. h
// and c carry each row's persistent state packed row-major (n*Hidden
// values each), updated in place; `in` packs the n windows (n*Window
// words); margins receives the n margin scores. Row b equals
// StepQ(h[b], c[b], in[b]) bit-for-bit. Rows must belong to distinct
// streams — consecutive timesteps of one stream are sequentially dependent
// through h/c and cannot share a batch.
func (p *LSTMParamsQ) StepBatchQ(h, c []int32, in []uint32, n int, margins []int32) {
	H, w := p.Hidden, p.Window
	for b := 0; b < n; b++ {
		margins[b] = p.StepQ(h[b*H:(b+1)*H], c[b*H:(b+1)*H], in[b*w:(b+1)*w])
	}
}
