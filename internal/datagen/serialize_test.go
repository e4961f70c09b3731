package datagen

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	spec := Spec{Name: "roundtrip", NumVertices: 300, NumEdges: 1800,
		FeatDims: []int{12, 8, 4}, TrainNodes: 120}
	ds, err := Materialize(spec, 0.4, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Name != "roundtrip" || got.Spec.NumVertices != 300 {
		t.Fatalf("spec lost: %+v", got.Spec)
	}
	if len(got.Spec.FeatDims) != 3 || got.Spec.FeatDims[2] != 4 {
		t.Fatalf("dims lost: %v", got.Spec.FeatDims)
	}
	if got.Graph.NumVertices != ds.Graph.NumVertices || got.Graph.NumEdges() != ds.Graph.NumEdges() {
		t.Fatal("graph size changed")
	}
	for v := 0; v < got.Graph.NumVertices; v++ {
		a, b := ds.Graph.Neighbors(int32(v)), got.Graph.Neighbors(int32(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbors changed", v)
			}
		}
	}
	if !got.Features.Equal(ds.Features) {
		t.Fatal("features changed")
	}
	for i := range ds.Labels {
		if got.Labels[i] != ds.Labels[i] {
			t.Fatal("labels changed")
		}
	}
	if len(got.TrainIdx) != len(ds.TrainIdx) {
		t.Fatal("train split changed")
	}
	for i := range ds.TrainIdx {
		if got.TrainIdx[i] != ds.TrainIdx[i] {
			t.Fatal("train indices changed")
		}
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	if _, err := LoadDataset(bytes.NewReader(bytes.Repeat([]byte{7}, 128))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := LoadDataset(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
}

func TestLoadDatasetRejectsTruncated(t *testing.T) {
	spec := Spec{Name: "t", NumVertices: 100, NumEdges: 400, FeatDims: []int{4, 3}, TrainNodes: 10}
	ds, err := Materialize(spec, 0.2, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := LoadDataset(bytes.NewReader(full[:len(full)*2/3])); err == nil {
		t.Fatal("expected truncation error")
	}
}

// savedSmall is a small valid dataset file.
func savedSmall(t testing.TB) []byte {
	spec := Spec{Name: "fz", NumVertices: 12, NumEdges: 30, FeatDims: []int{3, 2}, TrainNodes: 4}
	ds, err := Materialize(spec, 0.3, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A file that lies about a field gets an error naming it: an empty dims list
// (the feature width is dims[0]), a zero width, a vertex count past the int32
// ids (RowPtr is sized by it), a label outside the class count, a train index
// outside |V|.
func TestLoadDatasetRejectsBadFields(t *testing.T) {
	good := savedSmall(t)
	le := binary.LittleEndian
	hdr := 7 * 8              // magic … nameLen
	dimsAt := hdr + len("fz") // two uint32 dims
	gvAt := dimsAt + 2*4      // materialised |V|
	rowPtrAt := gvAt + 8      // 13 int64
	nColAt := rowPtrAt + 13*8 // uint64, then nCol int32
	nCol := int(le.Uint64(good[nColAt:]))
	labelsAt := nColAt + 8 + 4*nCol + 12*3*4
	trainAt := labelsAt + 12*4 + 8 // first train index
	for _, c := range []struct {
		name, want string
		edit       func(b []byte) []byte
	}{
		{"no dims", "feature-dim count 0", func(b []byte) []byte { le.PutUint64(b[5*8:], 0); return b }},
		{"zero dim", "feature dim 0 is 0", func(b []byte) []byte { le.PutUint32(b[dimsAt:], 0); return b }},
		{"vertex count", "graph vertex count", func(b []byte) []byte { le.PutUint64(b[gvAt:], 1<<40); return b }},
		{"label", "labelled 2", func(b []byte) []byte { le.PutUint32(b[labelsAt:], 2); return b }},
		{"train index", "train index 0 is vertex 12", func(b []byte) []byte { le.PutUint32(b[trainAt:], 12); return b }},
	} {
		_, err := LoadDataset(bytes.NewReader(c.edit(bytes.Clone(good))))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// LoadDataset never panics, and any file it accepts re-saves to the bytes it
// was read from (the reader is buffered, so trailing bytes are allowed).
func FuzzLoadDataset(f *testing.F) {
	good := savedSmall(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	noDims := bytes.Clone(good[:7*8])
	binary.LittleEndian.PutUint64(noDims[5*8:], 0)
	f.Add(noDims)
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := LoadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ds.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("accepted dataset re-saves to %d bytes that are not a prefix of its %d", buf.Len(), len(data))
		}
	})
}
