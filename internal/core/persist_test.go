package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"rtad/internal/igm"
	"rtad/internal/ml"
	"rtad/internal/workload"
)

func TestDeploymentSaveLoadRoundTrip(t *testing.T) {
	dep := trainLSTMDeployment(t, "401.bzip2")
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile.Name != dep.Profile.Name || got.Kind != dep.Kind {
		t.Fatal("identity fields lost")
	}
	if got.Mapper.Size() != dep.Mapper.Size() {
		t.Fatalf("mapper size %d, want %d", got.Mapper.Size(), dep.Mapper.Size())
	}
	if got.LSTM.Threshold != dep.LSTM.Threshold {
		t.Error("threshold lost")
	}
	if len(got.Pool) != len(dep.Pool) {
		t.Error("pool lost")
	}

	// The reloaded deployment must behave identically: same detection
	// latency and judgment sequence on the same run.
	a, err := RunDetection(dep, PipelineConfig{CUs: 5}, AttackSpec{Seed: 4}, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDetection(got, PipelineConfig{CUs: 5}, AttackSpec{Seed: 4}, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency || a.Detected != b.Detected || a.Judged != b.Judged {
		t.Errorf("reloaded deployment diverges: %v/%v/%d vs %v/%v/%d",
			a.Latency, a.Detected, a.Judged, b.Latency, b.Detected, b.Judged)
	}
}

func TestDeploymentSaveLoadFileELM(t *testing.T) {
	dep := trainELMDeployment(t, "403.gcc")
	path := filepath.Join(t.TempDir(), "gcc-elm.rtad")
	if err := dep.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDeploymentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ELM == nil || got.Translate == nil {
		t.Fatal("ELM deployment not fully rebuilt")
	}
	if got.Translate(1024+7) != 7 {
		t.Error("protocol converter not rebuilt")
	}
	if !got.Mapper.HasSyscalls() {
		t.Error("syscall admission flag lost")
	}
}

func TestLoadDeploymentRejectsGarbage(t *testing.T) {
	if _, err := LoadDeployment(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("garbage accepted")
	}
}

// shapedDeployment is an untrained deployment whose model has every
// parameter at the shape its config declares.
func shapedDeployment(t *testing.T, kind ModelKind) *Deployment {
	t.Helper()
	p, ok := workload.ByName("401.bzip2")
	if !ok {
		t.Fatal("unknown benchmark 401.bzip2")
	}
	dep := &Deployment{Profile: p, Kind: kind, Mapper: igm.NewAddressMapFromEntries(nil, false)}
	switch kind {
	case ModelLSTM:
		c := ml.DefaultLSTMConfig()
		m := &ml.LSTM{Cfg: c, Emb: ml.NewMat(c.Vocab, c.Embed),
			OutW: ml.NewMat(c.Vocab, c.Hidden), OutB: make([]float64, c.Vocab)}
		for g := range m.Wg {
			m.Wg[g] = ml.NewMat(c.Hidden, c.Embed+c.Hidden)
			m.Bg[g] = make([]float64, c.Hidden)
		}
		dep.LSTM = m
	case ModelELM:
		c := ml.DefaultELMConfig()
		dep.ELM = &ml.ELM{Cfg: c, W1: ml.NewMat(c.Hidden, (c.Window-1)*c.Vocab),
			B1: make([]float64, c.Hidden), BetaT: ml.NewMat(c.Vocab, c.Hidden)}
	}
	return dep
}

// A decoded model whose parameters disagree with its config must fail the
// load, not panic later inside Open.
func TestLoadDeploymentRejectsMisshapenModel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    ModelKind
		corrupt func(*Deployment)
	}{
		{"intact LSTM", ModelLSTM, nil},
		{"intact ELM", ModelELM, nil},
		{"LSTM truncated OutB", ModelLSTM, func(d *Deployment) { d.LSTM.OutB = d.LSTM.OutB[:len(d.LSTM.OutB)-1] }},
		{"LSTM short Bg[2]", ModelLSTM, func(d *Deployment) { d.LSTM.Bg[2] = d.LSTM.Bg[2][:3] }},
		{"LSTM empty Wg[1]", ModelLSTM, func(d *Deployment) { d.LSTM.Wg[1] = &ml.Mat{} }},
		{"LSTM short Emb data", ModelLSTM, func(d *Deployment) { d.LSTM.Emb.Data = d.LSTM.Emb.Data[:10] }},
		{"ELM nil BetaT", ModelELM, func(d *Deployment) { d.ELM.BetaT = nil }},
		{"ELM W1 wrong cols", ModelELM, func(d *Deployment) { d.ELM.W1 = ml.NewMat(d.ELM.Cfg.Hidden, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dep := shapedDeployment(t, tc.kind)
			if tc.corrupt != nil {
				tc.corrupt(dep)
			}
			var buf bytes.Buffer
			if err := dep.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := LoadDeployment(&buf)
			if tc.corrupt == nil {
				if err != nil {
					t.Fatalf("well-formed deployment rejected: %v", err)
				}
				if _, err := Open(Deployments{got}); err != nil {
					t.Fatalf("well-formed deployment does not open: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("misshapen model accepted")
			}
			t.Log(err)
		})
	}
}
