package svm

import (
	"encoding/json"
	"fmt"
	"io"
)

// modelJSON is the serialized form of a Model.
type modelJSON struct {
	Kernel struct {
		Type  string  `json:"type"`
		Gamma float64 `json:"gamma,omitempty"`
	} `json:"kernel"`
	SupportVectors [][]float64 `json:"support_vectors"`
	Coefs          []float64   `json:"coefs"`
	B              float64     `json:"b"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	var mj modelJSON
	switch k := m.kernel.(type) {
	case Linear:
		mj.Kernel.Type = "linear"
	case RBF:
		mj.Kernel.Type = "rbf"
		mj.Kernel.Gamma = k.Gamma
	default:
		return fmt.Errorf("svm: cannot serialize kernel %T", m.kernel)
	}
	mj.SupportVectors = m.SupportVectors
	mj.Coefs = m.Coefs
	mj.B = m.B
	enc := json.NewEncoder(w)
	return enc.Encode(&mj)
}

// Load reads a model saved by Save. The serialized form carries the
// support vectors as plain rows; finalize rebuilds the flattened
// support-vector matrix and the kernel-specific prediction fast paths, so
// a loaded model predicts exactly like the one that was saved.
func Load(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("svm: decode model: %w", err)
	}
	if len(mj.SupportVectors) != len(mj.Coefs) {
		return nil, fmt.Errorf("svm: %d support vectors but %d coefficients",
			len(mj.SupportVectors), len(mj.Coefs))
	}
	// Ragged rows would be silently truncated / zero-padded by the
	// flattening in finalize; reject them here instead.
	if len(mj.SupportVectors) > 0 {
		dim := len(mj.SupportVectors[0])
		for i, sv := range mj.SupportVectors {
			if len(sv) != dim {
				return nil, fmt.Errorf("svm: support vector %d has dim %d, want %d",
					i, len(sv), dim)
			}
		}
	}
	m := &Model{SupportVectors: mj.SupportVectors, Coefs: mj.Coefs, B: mj.B, Converged: true}
	switch mj.Kernel.Type {
	case "linear":
		m.kernel = Linear{}
	case "rbf":
		m.kernel = RBF{Gamma: mj.Kernel.Gamma}
	default:
		return nil, fmt.Errorf("svm: unknown kernel type %q", mj.Kernel.Type)
	}
	m.finalize()
	return m, nil
}
