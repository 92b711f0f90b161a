// Package ml implements the two anomaly-detection models the paper deploys
// on RTAD — an Extreme Learning Machine trained on system-call windows
// (after [2]) and an LSTM trained on general branch sequences (after [8]) —
// together with the numeric substrate they need: dense matrices, a Cholesky
// ridge solver, LUT-based fixed-point activations matching the GPU kernels
// bit-for-bit, and threshold calibration on normal traces.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major float64 matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zero r×c matrix.
func NewMat(r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("ml: invalid matrix shape %dx%d", r, c))
	}
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// checkMat reports an error unless m is a well-formed rows×cols matrix.
func checkMat(name string, m *Mat, rows, cols int) error {
	if m == nil {
		return fmt.Errorf("ml: %s missing", name)
	}
	if m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols {
		return fmt.Errorf("ml: %s is %dx%d with %d values, want %dx%d", name, m.Rows, m.Cols, len(m.Data), rows, cols)
	}
	return nil
}

// checkVec reports an error unless v has n values.
func checkVec(name string, v []float64, n int) error {
	if len(v) != n {
		return fmt.Errorf("ml: %s has %d values, want %d", name, len(v), n)
	}
	return nil
}

// At returns m[i,j].
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Randomize fills m with uniform values in [-scale, scale] from rng.
func (m *Mat) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// MulVec returns m·x.
func (m *Mat) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("ml: MulVec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range x {
			s += row[j] * v
		}
		out[i] = s
	}
	return out
}

// TransposeMul returns AᵀB, the Gram-style product used by the ELM ridge
// solve (A is N×k, B is N×m, result k×m).
func TransposeMul(a, b *Mat) *Mat {
	if a.Rows != b.Rows {
		panic("ml: TransposeMul row mismatch")
	}
	out := NewMat(a.Cols, b.Cols)
	for n := 0; n < a.Rows; n++ {
		ar := a.Row(n)
		br := b.Row(n)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range br {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// CholeskySolve solves (A + ridge·I)·X = B for X, where A is symmetric
// positive semi-definite (k×k) and B is k×m. It factors A = L·Lᵀ and
// back-substitutes. The ridge term both regularises the ELM output layer
// and guarantees positive definiteness.
func CholeskySolve(a *Mat, b *Mat, ridge float64) (*Mat, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("ml: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if b.Rows != a.Rows {
		return nil, fmt.Errorf("ml: solve shape mismatch A %dx%d, B %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	n := a.Rows
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			if i == j {
				sum += ridge
			}
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("ml: matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l.Set(i, j, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	// Solve L·Y = B, then Lᵀ·X = Y, column by column.
	x := NewMat(b.Rows, b.Cols)
	y := make([]float64, n)
	for c := 0; c < b.Cols; c++ {
		for i := 0; i < n; i++ {
			sum := b.At(i, c)
			for k := 0; k < i; k++ {
				sum -= l.At(i, k) * y[k]
			}
			y[i] = sum / l.At(i, i)
		}
		for i := n - 1; i >= 0; i-- {
			sum := y[i]
			for k := i + 1; k < n; k++ {
				sum -= l.At(k, i) * x.At(k, c)
			}
			x.Set(i, c, sum/l.At(i, i))
		}
	}
	return x, nil
}
