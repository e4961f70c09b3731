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
