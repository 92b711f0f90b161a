package ml

import "rtad/internal/gpu"

// Shared fixed-point inference. These helpers are the single source of
// truth for the deployed models' Q16.16 forward passes: the kernels
// package's bit-exact Go references (trimming-flow step 4) and the native
// inference backend both run through them, so every path that claims
// bit-identity with the GPU kernels shares one implementation.
//
// The parameter structs hold slice views over a quantised model image —
// typically device memory — and never copy or own the weights. Their
// methods reuse internal scratch buffers, so a params value serves one
// inference at a time (one pipeline, one goroutine), matching how engines
// are used everywhere in this repo.

// ELMParamsQ views a quantised ELM image: Window-1 input positions over a
// Vocab-class alphabet into Hidden units and a Vocab-class readout.
type ELMParamsQ struct {
	Window int
	Vocab  int
	Hidden int
	SigLUT []uint32 // [LUTSize] sigmoid table
	B1     []uint32 // [Hidden] hidden biases
	W1     []uint32 // [(Window-1)*Vocab][Hidden] input weights, row-major by column
	Beta   []uint32 // [Hidden][Vocab] readout weights

	// Row-kernel scratch: hidden activations [Hidden], logits [Vocab].
	hid    []int32
	logits []int32
}

// LSTMParamsQ views a quantised LSTM image: recency-weighted window
// embedding, NumGates gate banks over the Embed+Hidden concatenated input,
// and a Vocab-class readout.
type LSTMParamsQ struct {
	Window  int
	Vocab   int
	Embed   int
	Hidden  int
	SigLUT  []uint32 // [LUTSize]
	TanhLUT []uint32 // [LUTSize]
	PosW    []uint32 // [Window-1] recency weights
	Emb     []uint32 // [Vocab][Embed]
	Wg      []uint32 // [NumGates][Hidden][Embed+Hidden]
	Bg      []uint32 // [NumGates][Hidden]
	OutW    []uint32 // [Hidden][Vocab]
	OutB    []uint32 // [Vocab]

	// Row-kernel scratch: xh [Embed+Hidden], gates [NumGates*Hidden],
	// logits [Vocab].
	xh     []int32
	gates  []int32
	logits []int32
}

// MarginOfQ reduces logits to the margin score: max logit minus the target
// class's logit, the kernels' max-tree followed by a subtract.
func MarginOfQ(logits []int32, target int) int32 {
	best := logits[0]
	for _, v := range logits[1:] {
		if v > best {
			best = v
		}
	}
	return best - logits[target]
}

// EwmaStepQ folds a margin into the engine's persistent smoothed score:
// ewma' = ewma + alpha*(margin - ewma), all Q16.16.
func EwmaStepQ(ewma, margin, alpha int32) int32 {
	return ewma + gpu.MulQ(margin-ewma, alpha)
}
