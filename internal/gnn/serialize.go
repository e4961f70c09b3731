package gnn

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/tensor"
)

// Checkpoint format: a small custom binary layout (magic, version, config,
// then each tensor as dims + raw little-endian float32s). Deliberately not
// gob: the format is stable across Go versions, inspectable, and mirrors
// what a C++/HLS consumer of the weights (the paper's FPGA toolchain) could
// read directly.
//
// Load refuses every other version, version 1 included: it carried a float64
// after the dim count that this layout does not have.
const (
	checkpointMagic   = 0x48594742 // "HYGB"
	checkpointVersion = 2
)

// Save serialises the model configuration and parameters. A model whose
// header Load would refuse is an error before the first byte is written.
func (m *Model) Save(w io.Writer) error {
	if err := checkDims(len(m.Cfg.Dims), m.Cfg.Dims); err != nil {
		return err
	}
	hdr := []uint32{checkpointMagic, checkpointVersion, uint32(m.Cfg.Kind), uint32(len(m.Cfg.Dims))}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, d := range m.Cfg.Dims {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	for l := range m.Params.Weights {
		if err := writeMatrix(w, m.Params.Weights[l]); err != nil {
			return err
		}
		if err := writeMatrix(w, m.Params.Biases[l]); err != nil {
			return err
		}
	}
	return nil
}

// A checkpoint declares 2 to maxCheckpointDims layer widths, each at most
// maxCheckpointDim, so a header's shapes cannot overflow before they are
// checked against the stream.
const (
	maxCheckpointDims = 64
	maxCheckpointDim  = 1 << 20
)

// checkDims holds the header bounds: n widths, and each of dims in range.
// Save runs it before it writes, so every checkpoint it writes loads; Load
// runs it on the declared count before it reads a width, then on the widths.
func checkDims(n int, dims []int) error {
	if n < 2 || n > maxCheckpointDims {
		return fmt.Errorf("gnn: implausible dim count %d", n)
	}
	for i, d := range dims {
		if d > maxCheckpointDim {
			return fmt.Errorf("gnn: checkpoint dim %d is %d, above %d", i, d, maxCheckpointDim)
		}
	}
	return nil
}

// Load reads a checkpoint written by Save and reconstructs the model. Every
// header field is validated before anything is allocated, each tensor's
// stream shape before the tensor is read, and tensors grow only as the
// stream delivers their data, so malformed input is an error naming the
// field — never a panic, and never an allocation sized by an unverified
// claim.
func Load(r io.Reader) (*Model, error) {
	var magic, version, kind, nDims uint32
	for _, p := range []*uint32{&magic, &version, &kind, &nDims} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("gnn: not a HyScale checkpoint (magic %#x)", magic)
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("gnn: checkpoint version %d, want %d", version, checkpointVersion)
	}
	if err := checkDims(int(nDims), nil); err != nil {
		return nil, err
	}
	dims := make([]int, nDims)
	for i := range dims {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return nil, err
		}
		dims[i] = int(d)
	}
	if err := checkDims(len(dims), dims); err != nil {
		return nil, err
	}
	cfg := Config{Kind: Kind(kind), Dims: dims}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	L := cfg.Layers()
	p := &Parameters{Weights: make([]*tensor.Matrix, L), Biases: make([]*tensor.Matrix, L)}
	for l := 0; l < L; l++ {
		var err error
		if p.Weights[l], err = readMatrix(r, cfg.inDim(l), cfg.Dims[l+1]); err != nil {
			return nil, fmt.Errorf("gnn: layer %d weights: %w", l, err)
		}
		if p.Biases[l], err = readMatrix(r, 1, cfg.Dims[l+1]); err != nil {
			return nil, fmt.Errorf("gnn: layer %d biases: %w", l, err)
		}
	}
	return &Model{Cfg: cfg, Params: p}, nil
}

func writeMatrix(w io.Writer, m *tensor.Matrix) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(m.Rows)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(m.Cols)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, m.Data)
}

// readMatrix reads one tensor the model expects to be rows×cols: the stream's
// shape is checked first, then the data is read in chunks, the buffer growing
// only as the stream delivers them.
func readMatrix(r io.Reader, rows, cols int) (*tensor.Matrix, error) {
	var shape [2]uint32
	if err := binary.Read(r, binary.LittleEndian, &shape); err != nil {
		return nil, err
	}
	if int(shape[0]) != rows || int(shape[1]) != cols {
		return nil, fmt.Errorf("checkpoint tensor %dx%d, model expects %dx%d", shape[0], shape[1], rows, cols)
	}
	const chunk = 1 << 16
	n := rows * cols
	data := make([]float32, 0, min(n, chunk))
	for len(data) < n {
		k := min(n-len(data), chunk)
		data = slices.Grow(data, k)[:len(data)+k]
		if err := binary.Read(r, binary.LittleEndian, data[len(data)-k:]); err != nil {
			return nil, err
		}
	}
	return tensor.FromSlice(rows, cols, data), nil
}
