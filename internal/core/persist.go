package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"rtad/internal/cpu"
	"rtad/internal/igm"
	"rtad/internal/ml"
	"rtad/internal/workload"
)

// Training a deployment is the expensive part of the flow (§III-C runs the
// target application "in advance"), so deployments are serialisable: train
// once with cmd/rtadsim or your own harness, save, and reload into any
// number of pipelines. The on-disk format is a versioned gob of the model
// parameters, the IGM table contents and the legitimate-event pool.

// persistVersion guards the format; bump on incompatible changes.
const persistVersion = 1

// deploymentDTO is the serialised form of a Deployment. The protocol
// converter (a func) and the mapper (unexported internals) are rebuilt on
// load from Kind and the table entries.
type deploymentDTO struct {
	Version      int
	ProfileName  string
	Kind         ModelKind
	MapEntries   []igm.Entry
	MapSyscalls  bool
	ELM          *ml.ELM
	LSTM         *ml.LSTM
	Pool         []cpu.BranchEvent
	TrainWindows int
}

// Save writes the deployment to w.
func (d *Deployment) Save(w io.Writer) error {
	dto := deploymentDTO{
		Version:      persistVersion,
		ProfileName:  d.Profile.Name,
		Kind:         d.Kind,
		MapEntries:   d.Mapper.Entries(),
		MapSyscalls:  d.Mapper.HasSyscalls(),
		ELM:          d.ELM,
		LSTM:         d.LSTM,
		Pool:         d.Pool,
		TrainWindows: d.TrainWindows,
	}
	return gob.NewEncoder(w).Encode(&dto)
}

// SaveFile writes the deployment to path.
func (d *Deployment) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadDeployment reads a deployment written by Save. The benchmark profile
// is resolved by name, so the generated victim binary is identical to the
// one the deployment was trained against.
func LoadDeployment(r io.Reader) (*Deployment, error) {
	var dto deploymentDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: decoding deployment: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("core: deployment format v%d, want v%d", dto.Version, persistVersion)
	}
	dep, err := rebuildDeployment(&dto)
	if err != nil {
		return nil, err
	}
	return dep, nil
}

// LoadDeploymentFile reads a deployment from path.
func LoadDeploymentFile(path string) (*Deployment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDeployment(f)
}

func rebuildDeployment(dto *deploymentDTO) (*Deployment, error) {
	profile, ok := workload.ByName(dto.ProfileName)
	if !ok {
		return nil, fmt.Errorf("core: deployment references unknown benchmark %q", dto.ProfileName)
	}
	dep := &Deployment{
		Profile:      profile,
		Kind:         dto.Kind,
		Mapper:       igm.NewAddressMapFromEntries(dto.MapEntries, dto.MapSyscalls),
		ELM:          dto.ELM,
		LSTM:         dto.LSTM,
		Pool:         dto.Pool,
		TrainWindows: dto.TrainWindows,
	}
	switch dep.Kind {
	case ModelELM:
		if dep.ELM == nil {
			return nil, fmt.Errorf("core: ELM deployment without a model")
		}
		dep.Translate = elmTranslate
	case ModelLSTM:
		if dep.LSTM == nil {
			return nil, fmt.Errorf("core: LSTM deployment without a model")
		}
	default:
		return nil, fmt.Errorf("core: unknown model kind %d", dep.Kind)
	}
	// Shape-check the decoded models here: a short slice would otherwise
	// surface as an index panic inside Open.
	if dep.ELM != nil {
		if err := dep.ELM.Validate(); err != nil {
			return nil, fmt.Errorf("core: deployment model: %w", err)
		}
	}
	if dep.LSTM != nil {
		if err := dep.LSTM.Validate(); err != nil {
			return nil, fmt.Errorf("core: deployment model: %w", err)
		}
	}
	return dep, nil
}
