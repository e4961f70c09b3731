package tensor

import "testing"

// TestAddBiasReLUMatchesUnfused pins the fused pass to the three-pass
// sequence it replaces (bit-identical: same adds, same clamps).
func TestAddBiasReLUMatchesUnfused(t *testing.T) {
	rng := NewRNG(21)
	for trial := 0; trial < 50; trial++ {
		r := 1 + rng.Intn(20)
		c := 1 + rng.Intn(20)
		m := New(r, c)
		NormalInit(m, 1, rng)
		bias := New(1, c)
		NormalInit(bias, 1, rng)

		want := m.Clone()
		AddBias(want, bias)
		reluMaskOracle(want)

		AddBiasReLU(m, bias)
		if !m.Equal(want) {
			t.Fatalf("trial %d: fused activations differ", trial)
		}
	}
}

func TestGatherRowsAt(t *testing.T) {
	src := FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	dst := New(2, 5)
	dst.Fill(9)
	GatherRowsAt(dst, 2, src, []int32{2, 0})
	want := []float32{9, 9, 5, 6, 9, 9, 9, 1, 2, 9}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("GatherRowsAt: got %v want %v", dst.Data, want)
		}
	}
}

func TestGatherRowsAtPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-band column offset")
		}
	}()
	GatherRowsAt(New(1, 3), 2, New(1, 2), []int32{0})
}
