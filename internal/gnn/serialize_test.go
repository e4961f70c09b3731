package gnn

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, kind := range []Kind{GCN, SAGE, GIN} {
		m, err := NewModel(Config{Kind: kind, Dims: []int{12, 8, 5}, GINEps: 0.25}, tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		m2, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m2.Cfg.Kind != kind || m2.Cfg.GINEps != 0.25 {
			t.Fatalf("config lost: %+v", m2.Cfg)
		}
		if len(m2.Cfg.Dims) != 3 || m2.Cfg.Dims[1] != 8 {
			t.Fatalf("dims lost: %v", m2.Cfg.Dims)
		}
		for l := range m.Params.Weights {
			if !m.Params.Weights[l].Equal(m2.Params.Weights[l]) {
				t.Fatalf("%v: weights layer %d differ", kind, l)
			}
			if !m.Params.Biases[l].Equal(m2.Params.Biases[l]) {
				t.Fatalf("%v: biases layer %d differ", kind, l)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint at all......"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	m, _ := NewModel(Config{Kind: GCN, Dims: []int{6, 4}}, tensor.NewRNG(2))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Load(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Fatal("expected truncation error")
	}
}

// A loaded model must produce identical inference results.
func TestLoadedModelInfersIdentically(t *testing.T) {
	rng := tensor.NewRNG(3)
	m, _ := NewModel(Config{Kind: SAGE, Dims: []int{6, 5, 3}}, rng)
	fx := makeFixture(t, []int{6, 5, 3}, 4, 4)
	ref, err := forward(m, fx.mb, fx.x)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := forward(m2, fx.mb, fx.x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Logits.Equal(ref.Logits) {
		t.Fatal("loaded model produces different logits")
	}
}

// hostileHeader is a checkpoint header (magic, version, GCN, two dims, ε)
// declaring both widths as dims, followed by pad.
func hostileHeader(dims [2]uint32, pad int) []byte {
	var buf bytes.Buffer
	for _, v := range []any{uint32(checkpointMagic), uint32(checkpointVersion), uint32(GCN), uint32(2), float64(0), dims} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	buf.Write(make([]byte, pad))
	return buf.Bytes()
}

// Headers that claim what the stream cannot hold are errors, not panics or
// header-sized allocations: widths beyond the bound (2³¹−1 once overflowed
// the weight shape), and in-bound widths whose tensors the stream lacks.
func TestLoadRejectsHostileHeader(t *testing.T) {
	if _, err := Load(bytes.NewReader(hostileHeader([2]uint32{1<<31 - 1, 1<<31 - 1}, 4))); err == nil {
		t.Fatal("accepted 2³¹−1-wide layers")
	}
	huge := hostileHeader([2]uint32{1 << 20, 1 << 20}, 0)
	huge = binary.LittleEndian.AppendUint32(huge, 1<<20) // the shape agrees,
	huge = binary.LittleEndian.AppendUint32(huge, 1<<20) // the data is absent
	if _, err := Load(bytes.NewReader(huge)); err == nil {
		t.Fatal("accepted a 2⁴⁰-element weight tensor from a 40-byte stream")
	}
	bad := hostileHeader([2]uint32{4, 3}, 0)
	bad = binary.LittleEndian.AppendUint32(bad, 3) // 3x3, model expects 4x3
	bad = binary.LittleEndian.AppendUint32(bad, 3)
	if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "layer 0 weights") {
		t.Fatalf("wrong tensor shape gave %v, want an error naming layer 0 weights", err)
	}
}

// Load never panics, and any checkpoint it accepts re-saves to exactly the
// bytes it consumed.
func FuzzLoad(f *testing.F) {
	for _, kind := range []Kind{GCN, SAGE, GIN} {
		m, err := NewModel(Config{Kind: kind, Dims: []int{3, 2}, GINEps: 0.5}, tensor.NewRNG(5))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-3])
	}
	f.Add(hostileHeader([2]uint32{1<<31 - 1, 1<<31 - 1}, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := Load(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("accepted checkpoint re-saves to %d bytes, %d consumed", buf.Len(), len(consumed))
		}
	})
}
