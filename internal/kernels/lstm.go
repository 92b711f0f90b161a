package kernels

import (
	"fmt"

	"rtad/internal/gpu"
	"rtad/internal/ml"
)

// LSTM deployment shape, frozen by the kernel code: 15 input positions over
// a 64-class branch vocabulary, 16-wide embeddings, 32 hidden units. The
// four gates are computed by four independent wavefronts — one per CU on
// ML-MIAOW — followed by a state-update/readout wavefront.
const (
	LSTMWindow = 16
	LSTMVocab  = 64
	LSTMEmbed  = 16
	LSTMHidden = 32
	lstmXH     = LSTMEmbed + LSTMHidden // gate input width
)

// LSTM device-memory layout (word addresses).
const (
	LSTMSigLUT  = 16
	LSTMTanhLUT = LSTMSigLUT + ml.LUTSize
	LSTMPosW    = LSTMTanhLUT + ml.LUTSize
	LSTMEmb     = LSTMPosW + LSTMWindow - 1
	LSTMWg      = LSTMEmb + LSTMVocab*LSTMEmbed
	LSTMBg      = LSTMWg + ml.NumGates*LSTMHidden*lstmXH
	LSTMOutW    = LSTMBg + ml.NumGates*LSTMHidden
	LSTMOutB    = LSTMOutW + LSTMHidden*LSTMVocab
	LSTMImgEnd  = LSTMOutB + LSTMVocab
	LSTMIn      = 12288
	LSTMGates   = 12416 // activated gates [4][Hidden]
	LSTMC       = 12608 // cell state
	LSTMH       = 12672 // hidden state
	LSTMOut     = 12800 // flag, margin, ewma
	LSTMEwma    = 12816
	LSTMMemEnd  = 12900
)

// lstmGateSrc computes one gate: wavefront g (= s15) builds the
// recency-weighted window embedding, concatenates the previous hidden
// state, runs its 32 gate rows over the 48-wide input, and applies the
// sigmoid (gates i,f,o) or tanh (gate g) LUT.
//
// SArgs: s0=Emb s1=PosW s2=In s3=Wg s4=Bg s5=SigLUT s6=TanhLUT s7=HState s8=Gates
const lstmGateSrc = `
	; ---- window embedding on 16 lanes (x[e]) ----
	s_setexec_cnt #16
	v_mov v1, #0
	s_mov s9, #0
xloop:
	s_add s10, s2, s9
	s_load s11, [s10+#0]     ; c_j
	s_lsl s12, s11, #4       ; c*Embed
	v_mov v2, s12
	v_add v2, v2, v0
	v_add v2, v2, s0
	flat_load v3, [v2+#0]    ; Emb[c][e]
	s_add s13, s1, s9
	s_load s14, [s13+#0]     ; posw[j]
	v_mac_q16 v1, v3, s14
	s_add s9, s9, #1
	s_cmp_lt s9, #15
	s_cbranch_scc1 xloop
	ds_write v1, [v0+#0]     ; xh[0..15] = x
	; ---- stage h_prev into xh[16..47] on 32 lanes ----
	s_setexec_cnt #32
	v_mov v4, s7
	v_add v4, v4, v0
	flat_load v5, [v4+#0]
	v_add v6, v0, #16
	ds_write v5, [v6+#0]
	; ---- gate rows: pre[r] = bg[r] + sum_k wg[r][k]*xh[k] ----
	s_lsl s9, s15, #5        ; g*Hidden
	v_mov v7, s9
	v_add v7, v7, v0         ; g*32 + r
	v_mov v8, #48
	v_mul v7, v7, v8
	v_add v7, v7, s3         ; &wg[g][r][0]
	v_mov v9, s9
	v_add v9, v9, v0
	v_add v9, v9, s4
	flat_load v10, [v9+#0]   ; acc = bg[g][r]
	s_mov s11, #0
bloop:
	ds_read v11, [s11+#0]    ; xh[k] broadcast
	flat_load v12, [v7+#0]   ; wg[g][r][k]
	v_mac_q16 v10, v12, v11
	v_add v7, v7, #1
	s_add s11, s11, #1
	s_cmp_lt s11, #48
	s_cbranch_scc1 bloop
	; ---- activation: tanh for gate 2, sigmoid otherwise ----
	s_cmp_eq s15, #2
	s_cbranch_scc1 use_tanh
	s_mov s12, s5
	s_branch act
use_tanh:
	s_mov s12, s6
act:
	v_add v13, v10, #2048
	v_asr v13, v13, #12
	v_add v13, v13, #128
	v_max v13, v13, #0
	v_min v13, v13, #255
	v_add v13, v13, s12
	flat_load v14, [v13+#0]
	v_mov v15, s9
	v_add v15, v15, v0
	v_add v15, v15, s8
	flat_store v14, [v15+#0]
	s_endpgm
`

// lstmUpdateSrc consumes the four activated gates: it updates the cell and
// hidden state (c' = f·c + i·g, h = o·tanh c'), computes the 64 class
// logits from the new hidden state, reduces to the margin score, folds the
// EWMA and writes the judgment.
//
// SArgs: s0=Gates s1=CState s2=HState s3=TanhLUT s4=OutW s5=OutB s6=In
//
//	s7=Out s8=ThresholdQ s9=AlphaQ s10=EwmaAddr
const lstmUpdateSrc = `
	; ---- state update on 32 lanes ----
	s_setexec_cnt #32
	v_mov v1, s0
	v_add v1, v1, v0
	flat_load v2, [v1+#0]     ; i
	flat_load v3, [v1+#32]    ; f
	flat_load v4, [v1+#64]    ; g
	flat_load v5, [v1+#96]    ; o
	v_mov v6, s1
	v_add v6, v6, v0
	flat_load v7, [v6+#0]     ; c_prev
	v_mul_q16 v8, v3, v7
	v_mul_q16 v9, v2, v4
	v_add v8, v8, v9          ; c'
	flat_store v8, [v6+#0]
	v_add v10, v8, #2048
	v_asr v10, v10, #12
	v_add v10, v10, #128
	v_max v10, v10, #0
	v_min v10, v10, #255
	v_add v10, v10, s3
	flat_load v11, [v10+#0]   ; tanh(c')
	v_mul_q16 v12, v5, v11    ; h
	v_mov v13, s2
	v_add v13, v13, v0
	flat_store v12, [v13+#0]
	ds_write v12, [v0+#0]     ; LDS h[0..31]
	; ---- readout on 64 lanes ----
	s_setexec_all
	v_mov v14, s5
	v_add v14, v14, v0
	flat_load v15, [v14+#0]   ; acc = outb[v]
	s_mov s11, #0
oloop:
	ds_read v16, [s11+#0]     ; h[k]
	s_lsl s12, s11, #6        ; k*Vocab
	v_mov v17, s12
	v_add v17, v17, v0
	v_add v17, v17, s4
	flat_load v18, [v17+#0]   ; outw[k][v]
	v_mac_q16 v15, v18, v16
	s_add s11, s11, #1
	s_cmp_lt s11, #32
	s_cbranch_scc1 oloop
	; ---- margin: max logit minus target logit ----
	ds_write v15, [v0+#64]    ; logits copy for target lookup
	ds_write v15, [v0+#128]   ; tree workspace
	s_setexec_cnt #32
	ds_read v19, [v0+#128]
	ds_read v20, [v0+#160]
	v_max v19, v19, v20
	ds_write v19, [v0+#128]
	s_setexec_cnt #16
	ds_read v19, [v0+#128]
	ds_read v20, [v0+#144]
	v_max v19, v19, v20
	ds_write v19, [v0+#128]
	s_setexec_cnt #8
	ds_read v19, [v0+#128]
	ds_read v20, [v0+#136]
	v_max v19, v19, v20
	ds_write v19, [v0+#128]
	s_setexec_cnt #4
	ds_read v19, [v0+#128]
	ds_read v20, [v0+#132]
	v_max v19, v19, v20
	ds_write v19, [v0+#128]
	s_setexec_cnt #2
	ds_read v19, [v0+#128]
	ds_read v20, [v0+#130]
	v_max v19, v19, v20
	ds_write v19, [v0+#128]
	s_setexec_cnt #1
	ds_read v19, [v0+#128]
	ds_read v20, [v0+#129]
	v_max v19, v19, v20       ; max logit
	s_load s13, [s6+#15]      ; target class
	ds_read v21, [s13+#64]    ; logits[target]
	v_sub v22, v19, v21       ; margin
	s_load s14, [s10+#0]
	v_mov v23, s14
	v_sub v24, v22, v23
	v_mul_q16 v24, v24, s9
	v_add v23, v23, v24       ; ewma'
	v_mov v25, s10
	flat_store v23, [v25+#0]
	v_mov v26, s8
	v_cmp_gt v23, v26
	v_mov v27, #1
	v_mov v28, #0
	v_cndmask v29, v27, v28
	v_mov v25, s7
	flat_store v29, [v25+#0]
	flat_store v22, [v25+#1]
	flat_store v23, [v25+#2]
	s_endpgm
`

// LSTMEngine runs LSTM inference on a device. The recurrent state lives in
// device memory between input vectors, exactly as the paper describes the
// model resident in ML-MIAOW's local memory.
type LSTMEngine struct {
	Dev     *gpu.Device
	Model   *ml.LSTM
	kGate   *gpu.Kernel
	kUpdate *gpu.Kernel
	alphaQ  int32
	thrQ    int32

	// Reference-implementation mirror state.
	refH      [LSTMHidden]int32
	refC      [LSTMHidden]int32
	refEwma   int32
	refParams *ml.LSTMParamsQ
}

// BuildLSTMImage quantises the model into the device image.
func BuildLSTMImage(m *ml.LSTM) ([]uint32, error) {
	cfg := m.Cfg
	if cfg.Window != LSTMWindow || cfg.Vocab != LSTMVocab || cfg.Embed != LSTMEmbed || cfg.Hidden != LSTMHidden {
		return nil, fmt.Errorf("kernels: LSTM shape %+v does not match the deployed kernel", cfg)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	img := make([]uint32, LSTMImgEnd)
	copy(img[LSTMSigLUT:], ml.SigmoidLUT())
	copy(img[LSTMTanhLUT:], ml.TanhLUT())
	copy(img[LSTMPosW:], ml.QuantizeVec(ml.PosWeights(LSTMWindow)))
	for c := 0; c < LSTMVocab; c++ {
		for e := 0; e < LSTMEmbed; e++ {
			img[LSTMEmb+c*LSTMEmbed+e] = uint32(ml.ToQ(m.Emb.At(c, e)))
		}
	}
	for g := 0; g < ml.NumGates; g++ {
		for r := 0; r < LSTMHidden; r++ {
			base := LSTMWg + (g*LSTMHidden+r)*lstmXH
			for k := 0; k < lstmXH; k++ {
				img[base+k] = uint32(ml.ToQ(m.Wg[g].At(r, k)))
			}
			img[LSTMBg+g*LSTMHidden+r] = uint32(ml.ToQ(m.Bg[g][r]))
		}
	}
	for k := 0; k < LSTMHidden; k++ {
		for v := 0; v < LSTMVocab; v++ {
			img[LSTMOutW+k*LSTMVocab+v] = uint32(ml.ToQ(m.OutW.At(v, k)))
		}
	}
	for v := 0; v < LSTMVocab; v++ {
		img[LSTMOutB+v] = uint32(ml.ToQ(m.OutB[v]))
	}
	return img, nil
}

// NewLSTMEngine loads the model onto dev and zeroes the recurrent state.
func NewLSTMEngine(dev *gpu.Device, m *ml.LSTM) (*LSTMEngine, error) {
	if len(dev.Mem) < LSTMMemEnd {
		return nil, fmt.Errorf("kernels: device memory %d words, need %d", len(dev.Mem), LSTMMemEnd)
	}
	img, err := BuildLSTMImage(m)
	if err != nil {
		return nil, err
	}
	if err := dev.WriteWords(0, img); err != nil {
		return nil, err
	}
	for i := 0; i < LSTMHidden; i++ {
		dev.Mem[LSTMC+i] = 0
		dev.Mem[LSTMH+i] = 0
	}
	dev.Mem[LSTMEwma] = 0
	return &LSTMEngine{
		Dev:     dev,
		Model:   m,
		kGate:   gpu.MustAssemble("lstm_gate", lstmGateSrc),
		kUpdate: gpu.MustAssemble("lstm_update", lstmUpdateSrc),
		alphaQ:  ml.ToQ(DefaultEwmaAlpha),
		thrQ:    ml.ToQ(m.Threshold),
	}, nil
}

// InputWords quantises a window for the MCM TX engine.
func (e *LSTMEngine) InputWords(window []int32) ([]uint32, error) {
	if len(window) != LSTMWindow {
		return nil, fmt.Errorf("kernels: LSTM window length %d, want %d", len(window), LSTMWindow)
	}
	out := make([]uint32, LSTMWindow)
	for i, c := range window {
		if c < 0 || c >= LSTMVocab {
			return nil, fmt.Errorf("kernels: class %d outside LSTM vocab", c)
		}
		out[i] = uint32(c)
	}
	return out, nil
}

// Infer runs one timestep on the device: the four gate wavefronts, then the
// update/readout wavefront. It returns the judgment and total cycles.
func (e *LSTMEngine) Infer(window []int32) (Judgment, int64, error) {
	in, err := e.InputWords(window)
	if err != nil {
		return Judgment{}, 0, err
	}
	if err := e.Dev.WriteWords(LSTMIn, in); err != nil {
		return Judgment{}, 0, err
	}
	r1, err := e.Dev.Run(gpu.Dispatch{
		Kernel:     e.kGate,
		Wavefronts: ml.NumGates,
		SArgs:      []uint32{LSTMEmb, LSTMPosW, LSTMIn, LSTMWg, LSTMBg, LSTMSigLUT, LSTMTanhLUT, LSTMH, LSTMGates},
	})
	if err != nil {
		return Judgment{}, 0, err
	}
	r2, err := e.Dev.Run(gpu.Dispatch{
		Kernel:     e.kUpdate,
		Wavefronts: 1,
		SArgs: []uint32{LSTMGates, LSTMC, LSTMH, LSTMTanhLUT, LSTMOutW, LSTMOutB,
			LSTMIn, LSTMOut, uint32(e.thrQ), uint32(e.alphaQ), LSTMEwma},
	})
	if err != nil {
		return Judgment{}, 0, err
	}
	j := Judgment{
		Anomaly: e.Dev.Mem[LSTMOut] != 0,
		MarginQ: int32(e.Dev.Mem[LSTMOut+1]),
		EwmaQ:   int32(e.Dev.Mem[LSTMOut+2]),
	}
	return j, r1.Cycles + r2.Cycles, nil
}

// LSTMParamsView maps the deployed LSTM memory layout onto mem as a shared
// fixed-point parameter view (internal/ml), the single forward-pass
// implementation behind InferRef and the native backend.
func LSTMParamsView(mem []uint32) *ml.LSTMParamsQ {
	return &ml.LSTMParamsQ{
		Window:  LSTMWindow,
		Vocab:   LSTMVocab,
		Embed:   LSTMEmbed,
		Hidden:  LSTMHidden,
		SigLUT:  mem[LSTMSigLUT : LSTMSigLUT+ml.LUTSize],
		TanhLUT: mem[LSTMTanhLUT : LSTMTanhLUT+ml.LUTSize],
		PosW:    mem[LSTMPosW : LSTMPosW+LSTMWindow-1],
		Emb:     mem[LSTMEmb : LSTMEmb+LSTMVocab*LSTMEmbed],
		Wg:      mem[LSTMWg : LSTMWg+ml.NumGates*LSTMHidden*lstmXH],
		Bg:      mem[LSTMBg : LSTMBg+ml.NumGates*LSTMHidden],
		OutW:    mem[LSTMOutW : LSTMOutW+LSTMHidden*LSTMVocab],
		OutB:    mem[LSTMOutB : LSTMOutB+LSTMVocab],
	}
}

// InferRef mirrors the kernels bit-for-bit in Go, advancing a shadow state.
func (e *LSTMEngine) InferRef(window []int32) (Judgment, error) {
	in, err := e.InputWords(window)
	if err != nil {
		return Judgment{}, err
	}
	if e.refParams == nil {
		e.refParams = LSTMParamsView(e.Dev.Mem)
	}
	margin := e.refParams.StepQ(e.refH[:], e.refC[:], in)
	e.refEwma = ml.EwmaStepQ(e.refEwma, margin, e.alphaQ)
	return Judgment{Anomaly: e.refEwma > e.thrQ, MarginQ: margin, EwmaQ: e.refEwma}, nil
}

// InferBatch loops Infer: the cycle-accurate sim schedules each dispatch
// through its pipeline model, so there is nothing to fuse.
func (e *LSTMEngine) InferBatch(windows [][]int32) ([]Judgment, []int64, error) {
	return InferLoop(e, windows)
}

// Name implements the backend contract: the GPU engines are the
// cycle-accurate BackendGPU implementation.
func (e *LSTMEngine) Name() string { return BackendGPU }

// Window implements the MCM engine contract: the input-vector length.
func (e *LSTMEngine) Window() int { return LSTMWindow }
