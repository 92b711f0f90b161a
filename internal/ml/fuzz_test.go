package ml

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"rtad/internal/gpu"
)

// Differential fuzzing of the row kernels against the naive scalar
// forward passes below: random shapes, random weights with the extreme
// words 0, 0x7fffffff and 0x80000000 mixed in so the int32 wrap-around is
// exercised, and every entry point (single-row and batched at several
// widths) checked bit-for-bit. At the deployed shapes the GPU simulator is
// the exact reference (TestLSTMKernelMatchesReferenceBitExact and
// TestNativeBackendsBitIdentical* in internal/kernels).

// refMarginQ is the straightforward ELM forward pass: a row-major W1
// gather per hidden unit, then the readout.
func refMarginQ(p *ELMParamsQ, in []uint32) int32 {
	logits := make([]int32, p.Vocab)
	for row := 0; row < p.Hidden; row++ {
		acc := int32(p.B1[row])
		for j := 0; j < p.Window-1; j++ {
			col := j*p.Vocab + int(in[j])
			acc += int32(p.W1[col*p.Hidden+row])
		}
		sig := SigmoidQ(p.SigLUT, acc)
		beta := p.Beta[row*p.Vocab : (row+1)*p.Vocab]
		for v, b := range beta {
			logits[v] += gpu.MulQ(sig, int32(b))
		}
	}
	return MarginOfQ(logits, int(in[p.Window-1]))
}

// refStepQ is the straightforward LSTM timestep: one gate row at a time,
// then the state update and the readout.
func refStepQ(p *LSTMParamsQ, h, c []int32, in []uint32) int32 {
	xw := p.Embed + p.Hidden
	xh := make([]int32, xw)
	gates := make([]int32, NumGates*p.Hidden)
	logits := make([]int32, p.Vocab)
	// Window embedding.
	for j := 0; j < p.Window-1; j++ {
		cls := int(in[j])
		pw := int32(p.PosW[j])
		emb := p.Emb[cls*p.Embed : (cls+1)*p.Embed]
		for e, w := range emb {
			xh[e] += gpu.MulQ(int32(w), pw)
		}
	}
	copy(xh[p.Embed:], h)
	// Gates.
	for g := 0; g < NumGates; g++ {
		for r := 0; r < p.Hidden; r++ {
			acc := int32(p.Bg[g*p.Hidden+r])
			w := p.Wg[(g*p.Hidden+r)*xw : (g*p.Hidden+r+1)*xw]
			for k, wk := range w {
				acc += gpu.MulQ(int32(wk), xh[k])
			}
			if g == GateG {
				gates[g*p.Hidden+r] = TanhQ(p.TanhLUT, acc)
			} else {
				gates[g*p.Hidden+r] = SigmoidQ(p.SigLUT, acc)
			}
		}
	}
	// State update.
	for r := 0; r < p.Hidden; r++ {
		cv := gpu.MulQ(gates[GateF*p.Hidden+r], c[r]) + gpu.MulQ(gates[GateI*p.Hidden+r], gates[GateG*p.Hidden+r])
		c[r] = cv
		h[r] = gpu.MulQ(gates[GateO*p.Hidden+r], TanhQ(p.TanhLUT, cv))
	}
	// Readout.
	for v := 0; v < p.Vocab; v++ {
		logits[v] = int32(p.OutB[v])
	}
	for k := 0; k < p.Hidden; k++ {
		w := h[k]
		row := p.OutW[k*p.Vocab : (k+1)*p.Vocab]
		for v, o := range row {
			logits[v] += gpu.MulQ(int32(o), w)
		}
	}
	return MarginOfQ(logits, int(in[p.Window-1]))
}

// wordSource feeds a fuzz case: shapes and class IDs come from a PRNG
// seeded by the case, weight and state words from the case's bytes (four
// per word) and, once those run out, from the PRNG with the extreme words
// drawn often.
type wordSource struct {
	rng   *rand.Rand
	bytes []byte
}

func newWordSource(seed int64, data []byte) *wordSource {
	return &wordSource{rng: rand.New(rand.NewSource(seed)), bytes: data}
}

func (s *wordSource) word() uint32 {
	if len(s.bytes) >= 4 {
		w := binary.LittleEndian.Uint32(s.bytes)
		s.bytes = s.bytes[4:]
		return w
	}
	switch s.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return 0x80000000
	case 2:
		return 0x7fffffff
	case 3:
		return s.rng.Uint32()
	default:
		return randQ(s.rng)
	}
}

func (s *wordSource) words(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = s.word()
	}
	return out
}

func (s *wordSource) state(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(s.word())
	}
	return out
}

// fuzzBatchSizes covers the single row, the small batches serving fuses,
// and a batch wider than 32.
var fuzzBatchSizes = []int{1, 2, 3, 4, 5, 33}

func FuzzELMMarginQ(f *testing.F) {
	f.Add(int64(1), []byte(nil))
	f.Add(int64(2), []byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		src := newWordSource(seed, data)
		p := &ELMParamsQ{Window: 2 + src.rng.Intn(8), Vocab: 1 + src.rng.Intn(9), Hidden: 1 + src.rng.Intn(11),
			SigLUT: SigmoidLUT()}
		p.B1 = src.words(p.Hidden)
		p.W1 = src.words((p.Window - 1) * p.Vocab * p.Hidden)
		p.Beta = src.words(p.Hidden * p.Vocab)
		for _, n := range fuzzBatchSizes {
			in := randWindows(src.rng, p.Window, p.Vocab, n)
			got := make([]int32, n)
			p.MarginBatchQ(in, n, got)
			for b := 0; b < n; b++ {
				win := in[b*p.Window : (b+1)*p.Window]
				want := refMarginQ(p, win)
				if got[b] != want {
					t.Fatalf("n=%d row %d: MarginBatchQ %d, reference %d", n, b, got[b], want)
				}
				if one := p.MarginQ(win); one != want {
					t.Fatalf("n=%d row %d: MarginQ %d, reference %d", n, b, one, want)
				}
			}
		}
	})
}

func FuzzLSTMStepQ(f *testing.F) {
	f.Add(int64(1), []byte(nil))
	f.Add(int64(2), []byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		src := newWordSource(seed, data)
		p := &LSTMParamsQ{Window: 2 + src.rng.Intn(8), Vocab: 1 + src.rng.Intn(9), Embed: 1 + src.rng.Intn(7),
			Hidden: 1 + src.rng.Intn(9), SigLUT: SigmoidLUT(), TanhLUT: TanhLUT()}
		H := p.Hidden
		p.PosW = src.words(p.Window - 1)
		p.Emb = src.words(p.Vocab * p.Embed)
		p.Wg = src.words(NumGates * H * (p.Embed + H))
		p.Bg = src.words(NumGates * H)
		p.OutW = src.words(H * p.Vocab)
		p.OutB = src.words(p.Vocab)
		for _, n := range fuzzBatchSizes {
			// Three copies of the same starting state: the reference, the
			// batched kernel and the single-row kernel each advance one.
			refH, refC := src.state(n*H), src.state(n*H)
			batH, batC := append([]int32(nil), refH...), append([]int32(nil), refC...)
			oneH, oneC := append([]int32(nil), refH...), append([]int32(nil), refC...)
			for step := 0; step < 2; step++ {
				in := randWindows(src.rng, p.Window, p.Vocab, n)
				got := make([]int32, n)
				p.StepBatchQ(batH, batC, in, n, got)
				for b := 0; b < n; b++ {
					win := in[b*p.Window : (b+1)*p.Window]
					want := refStepQ(p, refH[b*H:(b+1)*H], refC[b*H:(b+1)*H], win)
					one := p.StepQ(oneH[b*H:(b+1)*H], oneC[b*H:(b+1)*H], win)
					if got[b] != want || one != want {
						t.Fatalf("n=%d step %d row %d: StepBatchQ %d, StepQ %d, reference %d",
							n, step, b, got[b], one, want)
					}
				}
				for i := range refH {
					if batH[i] != refH[i] || batC[i] != refC[i] || oneH[i] != refH[i] || oneC[i] != refC[i] {
						t.Fatalf("n=%d step %d: state word %d: h %d/%d/%d c %d/%d/%d (batched/single/reference)",
							n, step, i, batH[i], oneH[i], refH[i], batC[i], oneC[i], refC[i])
					}
				}
			}
		}
	})
}
