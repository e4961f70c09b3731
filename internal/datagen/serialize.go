package datagen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Dataset serialization: a stable little-endian binary layout so generated
// datasets can be produced once and shared across runs/machines (RMAT
// generation of multi-million-edge graphs is the slowest part of a cold
// start). Layout: magic, version, spec, CSR arrays, features, labels, split.
const (
	datasetMagic   = 0x48594453 // "HYDS"
	datasetVersion = 1
)

// Save writes the dataset.
func (d *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	hdr := []uint64{datasetMagic, datasetVersion,
		uint64(d.Spec.NumVertices), uint64(d.Spec.NumEdges),
		uint64(d.Spec.TrainNodes), uint64(len(d.Spec.FeatDims)),
		uint64(len(d.Spec.Name))}
	for _, v := range hdr {
		if err := binary.Write(bw, le, v); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(d.Spec.Name); err != nil {
		return err
	}
	for _, f := range d.Spec.FeatDims {
		if err := binary.Write(bw, le, uint32(f)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, le, uint64(d.Graph.NumVertices)); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.Graph.RowPtr); err != nil {
		return err
	}
	if err := binary.Write(bw, le, uint64(len(d.Graph.ColIdx))); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.Graph.ColIdx); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.Features.Data); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.Labels); err != nil {
		return err
	}
	if err := binary.Write(bw, le, uint64(len(d.TrainIdx))); err != nil {
		return err
	}
	if err := binary.Write(bw, le, d.TrainIdx); err != nil {
		return err
	}
	return bw.Flush()
}

// maxFeatDim bounds every feature width a dataset file may declare, so the
// feature matrix's element count cannot overflow.
const maxFeatDim = 1 << 20

// LoadDataset reads a dataset written by Save. Every header field is
// validated before anything is allocated, every array grows only as the
// stream delivers it, and the graph, the labels (against the class count)
// and the train split (against |V|) are range-checked, so malformed input is
// an error naming the field — never a panic, and never an allocation sized by
// an unverified claim.
func LoadDataset(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var magic, version, nv, ne, train, nDims, nameLen uint64
	for _, p := range []*uint64{&magic, &version, &nv, &ne, &train, &nDims, &nameLen} {
		if err := binary.Read(br, le, p); err != nil {
			return nil, err
		}
	}
	switch {
	case magic != datasetMagic:
		return nil, fmt.Errorf("datagen: not a dataset file (magic %#x)", magic)
	case version != datasetVersion:
		return nil, fmt.Errorf("datagen: dataset version %d, want %d", version, datasetVersion)
	case nv > 1<<34:
		return nil, fmt.Errorf("datagen: implausible vertex count %d", nv)
	case ne > 1<<40:
		return nil, fmt.Errorf("datagen: implausible edge count %d", ne)
	case train > nv:
		return nil, fmt.Errorf("datagen: %d train nodes for %d vertices", train, nv)
	case nDims < 2 || nDims > 64:
		return nil, fmt.Errorf("datagen: implausible feature-dim count %d", nDims)
	case nameLen > 4096:
		return nil, fmt.Errorf("datagen: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	dims := make([]int, nDims)
	for i := range dims {
		var f uint32
		if err := binary.Read(br, le, &f); err != nil {
			return nil, err
		}
		if f == 0 || f > maxFeatDim {
			return nil, fmt.Errorf("datagen: feature dim %d is %d, want 1..%d", i, f, maxFeatDim)
		}
		dims[i] = int(f)
	}
	spec := Spec{Name: string(name), NumVertices: int64(nv), NumEdges: int64(ne),
		TrainNodes: int64(train), FeatDims: dims}

	var gv uint64
	if err := binary.Read(br, le, &gv); err != nil {
		return nil, err
	}
	if gv > math.MaxInt32 {
		return nil, fmt.Errorf("datagen: graph vertex count %d exceeds the int32 vertex ids", gv)
	}
	n := int(gv)
	rowPtr, err := readArray[int64](br, n+1)
	if err != nil {
		return nil, err
	}
	var nCol uint64
	if err := binary.Read(br, le, &nCol); err != nil {
		return nil, err
	}
	if nCol > 1<<40 || int64(nCol) != rowPtr[n] {
		return nil, fmt.Errorf("datagen: %d column indices for a RowPtr ending at %d", nCol, rowPtr[n])
	}
	colIdx, err := readArray[int32](br, int(nCol))
	if err != nil {
		return nil, err
	}
	g := &graph.Graph{NumVertices: n, RowPtr: rowPtr, ColIdx: colIdx}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("datagen: corrupt graph in dataset: %w", err)
	}
	feats, err := readArray[float32](br, n*dims[0])
	if err != nil {
		return nil, err
	}
	labels, err := readArray[int32](br, n)
	if err != nil {
		return nil, err
	}
	classes := spec.NumClasses()
	for v, c := range labels {
		if c < 0 || int(c) >= classes {
			return nil, fmt.Errorf("datagen: vertex %d labelled %d, outside [0,%d)", v, c, classes)
		}
	}
	var nTrain uint64
	if err := binary.Read(br, le, &nTrain); err != nil {
		return nil, err
	}
	if nTrain > gv {
		return nil, fmt.Errorf("datagen: %d train indices for %d vertices", nTrain, gv)
	}
	trainIdx, err := readArray[int32](br, int(nTrain))
	if err != nil {
		return nil, err
	}
	for i, v := range trainIdx {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("datagen: train index %d is vertex %d, outside [0,%d)", i, v, n)
		}
	}
	return &Dataset{Spec: spec, Graph: g, Features: tensor.FromSlice(n, dims[0], feats),
		Labels: labels, TrainIdx: trainIdx}, nil
}

// readArray reads n little-endian values in chunks, the buffer growing only
// as the stream delivers them: a count that claims more than the stream holds
// ends in an error at EOF, not in an allocation of the claim.
func readArray[T int32 | int64 | float32](r io.Reader, n int) ([]T, error) {
	const chunk = 1 << 16
	out := make([]T, 0, min(n, chunk))
	for len(out) < n {
		k := min(n-len(out), chunk)
		out = slices.Grow(out, k)[:len(out)+k]
		if err := binary.Read(r, binary.LittleEndian, out[len(out)-k:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
