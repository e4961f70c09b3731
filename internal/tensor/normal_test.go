package tensor

import (
	"math"
	"testing"
)

// kernelAvailable reports whether this build and CPU run the Box–Muller row
// kernel at the avx512 level.
func kernelAvailable() bool {
	return haveAVX2Asm && cpuDQ && DetectedSIMDLevel() >= SIMDAVX512
}

// fillNormalLoop is the loop RNG.FillNormal must reproduce.
func fillNormalLoop(dst, mean []float32, std float64, r *RNG) {
	for j := range dst {
		dst[j] = mean[j] + float32(r.NormFloat64()*std)
	}
}

// mix is SplitMix64's output at counter state s.
func mix(s uint64) uint64 {
	r := RNG{state: s - gamma}
	return r.Uint64()
}

// unmix inverts mix: the counter state whose output is z.
func unmix(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := s; i < 64; i += s {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 { // Newton's iteration doubles the correct low bits
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31)
	z *= inverse(0x94D049BB133111EB)
	z = unshift(z, 27)
	z *= inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

// stridedRow is what normalRow must write for the counter states
// state + k·step: NormFloat64's expression on lane j's two draws. It reports
// false when some u1 is 0 (the kernel then writes nothing).
func stridedRow(dst, mean []float32, std float64, state, step uint64) bool {
	for j := range dst {
		s := state + uint64(2*j+1)*step
		u1 := float64(mix(s)>>11) / (1 << 53)
		u2 := float64(mix(s+step)>>11) / (1 << 53)
		if u1 == 0 {
			return false
		}
		dst[j] = mean[j] + float32(math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)*std)
	}
	return true
}

// tieStd returns a std for which v·std rounds to a float64 exactly halfway
// between two adjacent float32s, so that float32(v'·std) ≠ float32(v·std)
// for a v' one float64 ulp from v: a variate the row kernel computed one ulp
// off then shows in its float32 output, which rounding would otherwise hide
// (2²⁹ − 1 times in 2²⁹). It reports false when no such std is found.
func tieStd(v float64) (float64, bool) {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, false
	}
	a := math.Abs(v)
	lo := float32(a)
	if float64(lo) > a {
		lo = math.Nextafter32(lo, 0)
	}
	m := (float64(lo) + float64(math.Nextafter32(lo, float32(math.Inf(1))))) / 2 // ≥ a
	std := m / a
	for i := 0; i < 16; i++ {
		switch p := a * std; {
		case p == m:
			return std, true
		case p < m:
			std = math.Nextafter(std, math.Inf(1))
		default:
			std = math.Nextafter(std, 0)
		}
	}
	return 0, false
}

// FillNormal equals its scalar loop bit for bit — the row and where the RNG
// is left — at every dispatch level, for row lengths on and around the
// kernel's 8-lane passes (every masked tail) and the feature widths the
// datasets use, at several std, over many seeds. At the avx512 level on a
// CPU with AVX512DQ the kernel must be the one drawing, and a row holding a
// u1 of 0 (placed by inverting the finalizer) must fall back to the loop's
// redraw.
func TestNormalRowMatchesScalar(t *testing.T) {
	lens := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 64, 100, 128, 172, 756}
	mean := randSlice(NewRNG(7), 756)
	mean[3], mean[9] = 0, float32(math.Copysign(0, -1))
	for _, l := range availableLevels() {
		withSIMD(t, l, func() {
			for _, n := range lens {
				for seed := uint64(0); seed < 64; seed++ {
					for _, std := range []float64{0.5, 1, 0.1, 3} {
						want, got := make([]float32, n), make([]float32, n)
						wr, gr := NewRNG(seed*0x9E37+uint64(n)), NewRNG(seed*0x9E37+uint64(n))
						fillNormalLoop(want, mean, std, wr)
						gr.FillNormal(got, mean, std)
						if i, ok := sameBits(got, want); !ok {
							t.Fatalf("level %v, n %d, seed %d, std %v: dst[%d] = %v (%#x), loop %v (%#x)",
								l, n, seed, std, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
						if *gr != *wr {
							t.Fatalf("level %v, n %d, seed %d: RNG left at a different draw", l, n, seed)
						}
					}
				}
			}
			kernel := l >= SIMDAVX512 && kernelAvailable()
			row := make([]float32, 17)
			if got := normalRow(row, mean, 0.5, 12345, gamma); got != kernel {
				t.Fatalf("level %v: normalRow took the kernel = %v, want %v (DQ %v)", l, got, kernel, cpuDQ)
			}
			// u1 of variate 11 is 0: the loop redraws it, so the row ends one
			// draw later than 2n.
			n, at := 17, 11
			state := unmix(0x3ff) - uint64(2*at+1)*gamma
			want, got := make([]float32, n), make([]float32, n)
			wr, gr := RNG{state: state}, RNG{state: state}
			fillNormalLoop(want, mean, 0.5, &wr)
			gr.FillNormal(got, mean, 0.5)
			if i, ok := sameBits(got, want); !ok || gr != wr {
				t.Fatalf("level %v: zero u1 at variate %d: row differs at %d or RNG moved differently", l, at, i)
			}
			end := RNG{state: state}
			end.Skip(uint64(2*n + 1))
			if end != wr {
				t.Fatalf("level %v: the loop drew no extra u1", l)
			}
		})
	}
	if !kernelAvailable() {
		t.Logf("kernel not run: DQ %v, ceiling %v", cpuDQ, DetectedSIMDLevel())
		return
	}
	// The variates themselves, to the float64 bit: lane k of call i, with the
	// std that puts that lane on a float32 rounding tie.
	zero := make([]float32, 8)
	withSIMD(t, SIMDAVX512, func() {
		src := NewRNG(99)
		for i := 0; i < 40000; i++ {
			state, k := src.Uint64(), i%8
			want, got := make([]float32, 8), make([]float32, 8)
			r := RNG{state: state + uint64(2*k)*gamma}
			std, ok := tieStd(r.NormFloat64())
			if !ok {
				continue
			}
			stridedRow(want, zero, std, state, gamma)
			if !normalRow(got, zero, std, state, gamma) || got[k] != want[k] {
				t.Fatalf("state %#x lane %d at std %v: kernel %#x, scalar %#x", state, k, std,
					math.Float32bits(got[k]), math.Float32bits(want[k]))
			}
		}
	})
}

// normalSeeds are (u1, u2) draw patterns — the 64-bit outputs whose top 53
// bits are the uniform — at the edges of the kernel's arithmetic: u1 = 2⁻⁵³
// and 1−2⁻⁵³, u1 = √2/2 and its neighbours (archLog's f1 ≤ √2/2 compare at
// and beside equality), powers of two (f1 = 0.5, folded), u1 = 0 (declined),
// and u2 = k/8 and its neighbours for every octant boundary k up to
// u2 = 1−2⁻⁵³ (cos's argument on and next to kπ/4).
func normalSeeds() [][2]uint64 {
	const one = 1 << 53 // u = m / 2⁵³; the draw is m << 11
	draw := func(m uint64) uint64 { return m << 11 }
	h := 7.07106781186547524401e-01 // archLog's HSqrt2
	hsqrt2 := uint64(h * one)
	u2s := []uint64{0, 1, one - 1}
	for k := uint64(1); k < 8; k++ {
		u2s = append(u2s, k*one/8-1, k*one/8, k*one/8+1)
	}
	u1s := []uint64{1, one - 1, one / 2, hsqrt2 - 1, hsqrt2, hsqrt2 + 1, 0}
	for e := uint(1); e <= 53; e += 4 {
		u1s = append(u1s, one>>e)
	}
	var out [][2]uint64
	for i, u1 := range u1s {
		for _, u2 := range u2s {
			out = append(out, [2]uint64{draw(u1) | uint64(i), draw(u2) | 0x7ff})
		}
	}
	return out
}

// FuzzNormalRow places a (u1, u2) draw pair in one lane of a row and checks
// the kernel two ways, bitwise: on counter states with a chosen step, lane
// `lane` reads exactly that pair and the row must equal the scalar
// expression lane by lane (or be refused, untouched, when a u1 is 0); and
// through RNG.FillNormal, with the RNG placed so the lane's u1 and then its
// u2 is that draw, the row and where the RNG is left must equal the loop's.
func FuzzNormalRow(f *testing.F) {
	for i, s := range normalSeeds() {
		f.Add(s[0], s[1], uint8(i%8), uint8(8+i%17))
	}
	mean := randSlice(NewRNG(3), 256)
	f.Fuzz(func(t *testing.T, z1, z2 uint64, lane, n uint8) {
		rows := int(n)%64 + 1
		at := int(lane) % rows
		s1, s2 := unmix(z1), unmix(z2)
		if mix(s1) != z1 || mix(s2) != z2 {
			t.Fatalf("unmix(%#x, %#x) does not invert the finalizer", z1, z2)
		}
		step := s2 - s1
		state := s1 - uint64(2*at+1)*step
		want, got := make([]float32, rows), make([]float32, rows)
		if kernelAvailable() {
			// At the datasets' std over a random mean, then at the std that
			// puts the lane's variate on a float32 rounding tie over a zero
			// mean, so a variate one float64 ulp off shows.
			u1 := float64(z1>>11) / (1 << 53)
			u2 := float64(z2>>11) / (1 << 53)
			tie, tied := tieStd(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
			for pass, std := range []float64{0.5, tie} {
				mu := mean
				if pass == 1 {
					if !tied {
						break
					}
					mu = make([]float32, rows)
				}
				for i := range got {
					got[i] = float32(math.NaN())
				}
				ok := stridedRow(want, mu, std, state, step)
				withSIMD(t, SIMDAVX512, func() {
					if normalRow(got, mu, std, state, step) != ok {
						t.Fatalf("z1 %#x z2 %#x lane %d of %d: kernel accepted %v, want %v", z1, z2, at, rows, !ok, ok)
					}
				})
				if !ok {
					for i, v := range got {
						if !math.IsNaN(float64(v)) {
							t.Fatalf("refused row was written at %d", i)
						}
					}
				} else if i, same := sameBits(got, want); !same {
					t.Fatalf("z1 %#x z2 %#x lane %d of %d, std %v: dst[%d] = %#x, scalar %#x", z1, z2, at, rows, std, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
		for _, placed := range []uint64{s1 - uint64(2*at+1)*gamma, s2 - uint64(2*at+2)*gamma} {
			wr, gr := RNG{state: placed}, RNG{state: placed}
			fillNormalLoop(want, mean, 0.5, &wr)
			gr.FillNormal(got, mean, 0.5)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("z1 %#x z2 %#x lane %d of %d via FillNormal: dst[%d] = %#x, loop %#x", z1, z2, at, rows, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
			if gr != wr {
				t.Fatalf("z1 %#x z2 %#x lane %d of %d via FillNormal: RNG left at a different draw", z1, z2, at, rows)
			}
		}
	})
}
