package tensor

import "testing"

// The parallel GatherRows must be bitwise the serial oracle
// at every worker count and SIMD level: destination rows are disjoint, so
// neither the ParallelRows split nor the copyRow kernel may change a bit.
// Widths include non-multiples of the 8-lane SIMD stride so remainder
// handling is covered, and the index list repeats rows (a gather is not a
// permutation). A gather only fans out once it moves ≥ 4 MB, so the three
// widest cases are sized two grains up (asserted; an odd row count, so the
// two chunks differ — and two grains split in two at any parallelism ≥ 2, so
// one parallel leg covers them) and the narrow ones stay small, on the caller.
func TestGatherRowsMatchesSerialOracle(t *testing.T) {
	rng := NewRNG(23)
	for _, cols := range []int{1, 5, 8, 13, 37, 128} {
		src := FromSlice(50, cols, randSlice(rng, 50*cols))
		fansOut := cols >= 13
		idx, pars := make([]int32, 201), []int{1, 2, 3, 8}
		if fansOut {
			idx, pars = make([]int32, (2*fanoutGrain/(gatherWork*cols)+2)|1), []int{2}
		}
		for i := range idx {
			idx[i] = int32(rng.Intn(50))
		}
		want := New(len(idx), cols)
		GatherRowsSerial(want, src, idx)

		dst := New(len(idx), cols)
		for _, par := range pars {
			prev := SetParallelism(par)
			if fansOut {
				requireFanOut(t, "GatherRows", len(idx), gatherWork*cols)
			}
			for _, l := range availableLevels() {
				withSIMD(t, l, func() {
					dst.Zero()
					GatherRows(dst, src, idx)
					if !dst.Equal(want) {
						t.Fatalf("gather cols=%d par=%d level=%v diverges from serial oracle", cols, par, l)
					}
				})
			}
			SetParallelism(prev)
		}
	}
}
