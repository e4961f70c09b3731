// Package gnn implements the GNN models the paper evaluates — GCN (Kipf &
// Welling) and GraphSAGE (Hamilton et al.) — in the aggregate-update
// paradigm (paper §II-A, Eqs. 1–4), with full forward and backward passes
// over sampled mini-batch blocks.
//
// Aggregation is linear in the input features with per-edge coefficients, so
// the backward pass is the transposed scatter with the same coefficients;
// gradient correctness is verified by finite differences in the tests.
package gnn

import (
	"fmt"

	"repro/internal/tensor"
)

// Kind selects the model architecture.
type Kind int

const (
	// GCN: a_v = Σ_u norm(v,u)·h_u (self loop included), h_v = ReLU(a_v·W + b).
	GCN Kind = iota
	// SAGE: a_v = h_v ‖ mean(h_u), h_v = ReLU(a_v·W + b).
	SAGE
	// GIN (Xu et al., ICLR'19): a_v = (1+ε)·h_v + Σ_u h_u, h_v = ReLU(a_v·W + b).
	// Not evaluated in the paper, but it follows the same aggregate-update
	// paradigm (§II-A) the system claims to support generically — included
	// as the generality check.
	GIN
)

// String returns the paper's name for the model.
func (k Kind) String() string {
	switch k {
	case GCN:
		return "GCN"
	case SAGE:
		return "GraphSAGE"
	case GIN:
		return "GIN"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes a model: architecture and layer dimensions
// {f0, f1, ..., fL}. The paper uses two layers with hidden size 256.
type Config struct {
	Kind Kind
	Dims []int
	// Degrees optionally supplies global vertex degrees for GCN's symmetric
	// normalization 1/√(D(v)·D(u)) (paper Eq. 3, with +1 self-loop smoothing).
	// When nil, GCN falls back to mean normalization over {v}∪N(v), which is
	// also linear and converges equivalently on our synthetic tasks.
	Degrees []int32
	// GINEps is GIN's ε (self-feature emphasis); zero is the common default.
	GINEps float64
}

// Layers returns L.
func (c Config) Layers() int { return len(c.Dims) - 1 }

// inDim returns the input width of layer l's dense update (doubled for SAGE's
// concatenation).
func (c Config) inDim(l int) int {
	if c.Kind == SAGE {
		return 2 * c.Dims[l]
	}
	return c.Dims[l]
}

// Parameters holds the model weights: one dense update per layer.
type Parameters struct {
	Weights []*tensor.Matrix // layer l: inDim(l) × Dims[l+1]
	Biases  []*tensor.Matrix // layer l: 1 × Dims[l+1]
}

// NewParameters allocates Xavier-initialised parameters for cfg.
func NewParameters(cfg Config, rng *tensor.RNG) *Parameters {
	L := cfg.Layers()
	p := &Parameters{Weights: make([]*tensor.Matrix, L), Biases: make([]*tensor.Matrix, L)}
	for l := 0; l < L; l++ {
		p.Weights[l] = tensor.New(cfg.inDim(l), cfg.Dims[l+1])
		tensor.XavierInit(p.Weights[l], rng)
		p.Biases[l] = tensor.New(1, cfg.Dims[l+1])
	}
	return p
}

// Gradients mirrors Parameters.
type Gradients struct {
	Weights []*tensor.Matrix
	Biases  []*tensor.Matrix
}

// NewGradients allocates zeroed gradients shaped like p.
func NewGradients(p *Parameters) *Gradients {
	g := &Gradients{
		Weights: make([]*tensor.Matrix, len(p.Weights)),
		Biases:  make([]*tensor.Matrix, len(p.Biases)),
	}
	for i := range p.Weights {
		g.Weights[i] = tensor.New(p.Weights[i].Rows, p.Weights[i].Cols)
		g.Biases[i] = tensor.New(p.Biases[i].Rows, p.Biases[i].Cols)
	}
	return g
}

// Axpy accumulates g += alpha·src.
func (g *Gradients) Axpy(alpha float32, src *Gradients) {
	for i := range g.Weights {
		tensor.Axpy(g.Weights[i], alpha, src.Weights[i])
		tensor.Axpy(g.Biases[i], alpha, src.Biases[i])
	}
}

// Scale multiplies all gradients by s.
func (g *Gradients) Scale(s float32) {
	for i := range g.Weights {
		tensor.Scale(g.Weights[i], s)
		tensor.Scale(g.Biases[i], s)
	}
}

// Clone deep-copies the gradients.
func (g *Gradients) Clone() *Gradients {
	out := &Gradients{
		Weights: make([]*tensor.Matrix, len(g.Weights)),
		Biases:  make([]*tensor.Matrix, len(g.Biases)),
	}
	for i := range g.Weights {
		out.Weights[i] = g.Weights[i].Clone()
		out.Biases[i] = g.Biases[i].Clone()
	}
	return out
}

// MaxAbsDiff returns the largest element-wise difference across all tensors.
func (g *Gradients) MaxAbsDiff(other *Gradients) float64 {
	var max float64
	for i := range g.Weights {
		if d := g.Weights[i].MaxAbsDiff(other.Weights[i]); d > max {
			max = d
		}
		if d := g.Biases[i].MaxAbsDiff(other.Biases[i]); d > max {
			max = d
		}
	}
	return max
}

// Model couples a config with parameters.
type Model struct {
	Cfg    Config
	Params *Parameters
}

// NewModel builds a model with fresh parameters.
func NewModel(cfg Config, rng *tensor.RNG) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Model{Cfg: cfg, Params: NewParameters(cfg, rng)}, nil
}

// validate checks what every model needs: a known kind and at least one
// layer of positive widths.
func (c Config) validate() error {
	if len(c.Dims) < 2 {
		return fmt.Errorf("gnn: need at least 2 dims, got %v", c.Dims)
	}
	for _, d := range c.Dims {
		if d <= 0 {
			return fmt.Errorf("gnn: non-positive dim in %v", c.Dims)
		}
	}
	if c.Kind != GCN && c.Kind != SAGE && c.Kind != GIN {
		return fmt.Errorf("gnn: unknown kind %d", c.Kind)
	}
	return nil
}
