package ml

import (
	"math/rand"
	"testing"
)

// randQ returns a Q16.16 value in roughly [-4, 4) — the magnitude range
// trained weights land in after quantisation.
func randQ(rng *rand.Rand) uint32 {
	return uint32(int32(rng.Intn(1<<19) - 1<<18))
}

func randQVec(rng *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = randQ(rng)
	}
	return out
}

// The params structs are shape-generic, so the batch equivalence is pinned
// on shapes deliberately different from the deployed kernels'.

func randELMParams(rng *rand.Rand) *ELMParamsQ {
	p := &ELMParamsQ{Window: 5, Vocab: 7, Hidden: 6, SigLUT: SigmoidLUT()}
	p.B1 = randQVec(rng, p.Hidden)
	p.W1 = randQVec(rng, (p.Window-1)*p.Vocab*p.Hidden)
	p.Beta = randQVec(rng, p.Hidden*p.Vocab)
	return p
}

func randLSTMParams(rng *rand.Rand) *LSTMParamsQ {
	p := &LSTMParamsQ{Window: 6, Vocab: 9, Embed: 4, Hidden: 5,
		SigLUT: SigmoidLUT(), TanhLUT: TanhLUT()}
	p.PosW = randQVec(rng, p.Window-1)
	p.Emb = randQVec(rng, p.Vocab*p.Embed)
	p.Wg = randQVec(rng, NumGates*p.Hidden*(p.Embed+p.Hidden))
	p.Bg = randQVec(rng, NumGates*p.Hidden)
	p.OutW = randQVec(rng, p.Hidden*p.Vocab)
	p.OutB = randQVec(rng, p.Vocab)
	return p
}

func randWindows(rng *rand.Rand, window, vocab, n int) []uint32 {
	out := make([]uint32, n*window)
	for i := range out {
		out[i] = uint32(rng.Intn(vocab))
	}
	return out
}

func TestMarginBatchQMatchesMarginQ(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randELMParams(rng)
	for _, n := range []int{1, 2, 3, 17, 64} {
		in := randWindows(rng, p.Window, p.Vocab, n)
		got := make([]int32, n)
		p.MarginBatchQ(in, n, got)
		for b := 0; b < n; b++ {
			want := p.MarginQ(in[b*p.Window : (b+1)*p.Window])
			if got[b] != want {
				t.Fatalf("n=%d row %d: batched margin %d != single %d", n, b, got[b], want)
			}
		}
	}
}

func TestStepBatchQMatchesStepQ(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randLSTMParams(rng)
	for _, n := range []int{1, 2, 5, 33} {
		// Give every row a distinct pre-existing state, then advance each
		// stream several timesteps so state divergence compounds.
		h := make([]int32, n*p.Hidden)
		c := make([]int32, n*p.Hidden)
		for i := range h {
			h[i] = int32(randQ(rng))
			c[i] = int32(randQ(rng))
		}
		refH := append([]int32(nil), h...)
		refC := append([]int32(nil), c...)
		for step := 0; step < 4; step++ {
			in := randWindows(rng, p.Window, p.Vocab, n)
			got := make([]int32, n)
			p.StepBatchQ(h, c, in, n, got)
			for b := 0; b < n; b++ {
				want := p.StepQ(refH[b*p.Hidden:(b+1)*p.Hidden], refC[b*p.Hidden:(b+1)*p.Hidden],
					in[b*p.Window:(b+1)*p.Window])
				if got[b] != want {
					t.Fatalf("n=%d step %d row %d: batched margin %d != single %d", n, step, b, got[b], want)
				}
			}
			for i := range h {
				if h[i] != refH[i] || c[i] != refC[i] {
					t.Fatalf("n=%d step %d: state word %d diverged (h %d/%d c %d/%d)",
						n, step, i, h[i], refH[i], c[i], refC[i])
				}
			}
		}
	}
}

// Benchmark the batched kernels against n repetitions of the single-row
// kernels at the deployment dimensions, which is exactly the trade the
// serving scheduler makes per micro-batch.
func benchParamsELM() *ELMParamsQ {
	rng := rand.New(rand.NewSource(1))
	p := &ELMParamsQ{Window: 9, Vocab: 32, Hidden: 80, SigLUT: SigmoidLUT()}
	p.B1 = randQVec(rng, p.Hidden)
	p.W1 = randQVec(rng, (p.Window-1)*p.Vocab*p.Hidden)
	p.Beta = randQVec(rng, p.Hidden*p.Vocab)
	return p
}

func benchParamsLSTM() *LSTMParamsQ {
	rng := rand.New(rand.NewSource(2))
	p := &LSTMParamsQ{Window: 16, Vocab: 64, Embed: 16, Hidden: 32,
		SigLUT: SigmoidLUT(), TanhLUT: TanhLUT()}
	p.PosW = randQVec(rng, p.Window-1)
	p.Emb = randQVec(rng, p.Vocab*p.Embed)
	p.Wg = randQVec(rng, NumGates*p.Hidden*(p.Embed+p.Hidden))
	p.Bg = randQVec(rng, NumGates*p.Hidden)
	p.OutW = randQVec(rng, p.Hidden*p.Vocab)
	p.OutB = randQVec(rng, p.Vocab)
	return p
}

const benchBatch = 32

func BenchmarkMarginQx32(b *testing.B) {
	p := benchParamsELM()
	rng := rand.New(rand.NewSource(3))
	in := randWindows(rng, p.Window, p.Vocab, benchBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchBatch; r++ {
			p.MarginQ(in[r*p.Window : (r+1)*p.Window])
		}
	}
}

func BenchmarkMarginBatchQ32(b *testing.B) {
	p := benchParamsELM()
	rng := rand.New(rand.NewSource(3))
	in := randWindows(rng, p.Window, p.Vocab, benchBatch)
	margins := make([]int32, benchBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MarginBatchQ(in, benchBatch, margins)
	}
}

func BenchmarkStepQx32(b *testing.B) {
	p := benchParamsLSTM()
	rng := rand.New(rand.NewSource(4))
	in := randWindows(rng, p.Window, p.Vocab, benchBatch)
	h := make([]int32, benchBatch*p.Hidden)
	c := make([]int32, benchBatch*p.Hidden)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchBatch; r++ {
			p.StepQ(h[r*p.Hidden:(r+1)*p.Hidden], c[r*p.Hidden:(r+1)*p.Hidden],
				in[r*p.Window:(r+1)*p.Window])
		}
	}
}

func BenchmarkStepBatchQ32(b *testing.B) {
	p := benchParamsLSTM()
	rng := rand.New(rand.NewSource(4))
	in := randWindows(rng, p.Window, p.Vocab, benchBatch)
	h := make([]int32, benchBatch*p.Hidden)
	c := make([]int32, benchBatch*p.Hidden)
	margins := make([]int32, benchBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.StepBatchQ(h, c, in, benchBatch, margins)
	}
}

// The serving case: a fused pass averages 1.35 rows, so the kernels are
// benched at one and two rows too. Each bench first asserts the kernel
// allocates nothing once its scratch is sized.

func requireNoAllocs(b *testing.B, f func()) {
	b.Helper()
	if a := testing.AllocsPerRun(10, f); a != 0 {
		b.Fatalf("%v allocs per call, want 0", a)
	}
}

func BenchmarkMarginQ1(b *testing.B) {
	p := benchParamsELM()
	in := randWindows(rand.New(rand.NewSource(3)), p.Window, p.Vocab, 1)
	f := func() { p.MarginQ(in) }
	requireNoAllocs(b, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

func BenchmarkStepQ1(b *testing.B) {
	p := benchParamsLSTM()
	in := randWindows(rand.New(rand.NewSource(4)), p.Window, p.Vocab, 1)
	h := make([]int32, p.Hidden)
	c := make([]int32, p.Hidden)
	f := func() { p.StepQ(h, c, in) }
	requireNoAllocs(b, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

func BenchmarkStepBatchQ2(b *testing.B) {
	const n = 2
	p := benchParamsLSTM()
	in := randWindows(rand.New(rand.NewSource(4)), p.Window, p.Vocab, n)
	h := make([]int32, n*p.Hidden)
	c := make([]int32, n*p.Hidden)
	margins := make([]int32, n)
	f := func() { p.StepBatchQ(h, c, in, n, margins) }
	requireNoAllocs(b, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}
