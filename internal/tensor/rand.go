package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64). Every stochastic component in the repository takes an
// explicit *RNG so experiments are reproducible and trainers can hold
// independent streams without locking.
//
// Its state is a Weyl counter: draw k is a fixed mixing function of
// seed + (k+1)·γ, so Skip moves to any later draw in O(1) and one stream
// can be cut into ranges that workers generate at once. An RNG is a plain
// value: copying one forks the stream at its current draw, and two RNGs
// compare equal exactly when all their later draws are the same.
type RNG struct{ state uint64 }

// gamma is SplitMix64's Weyl increment (2⁶⁴ divided by the golden ratio,
// made odd).
const gamma = 0x9E3779B97F4A7C15

// NewRNG seeds a generator. Distinct seeds yield independent-looking streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed + gamma} }

// Skip advances the generator past n draws as if Uint64 had been called n
// times (modulo the 2⁶⁴ period), in constant time.
func (r *RNG) Skip(n uint64) { r.state += n * gamma }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller). It takes two
// draws, or more when u1 is exactly 0 and is drawn again (probability 2⁻⁵³
// per draw).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillNormal sets dst[j] = mean[j] + float32(r.NormFloat64()*std) for j in
// order, drawing exactly what that loop draws and leaving r where it leaves
// it. At the avx512 level on a CPU with AVX512DQ a row none of whose u1 is 0
// is drawn eight variates at a time by a kernel that reproduces the loop bit
// for bit (normal_amd64.s); any other row runs the loop itself. mean must be
// at least as long as dst.
func (r *RNG) FillNormal(dst, mean []float32, std float64) {
	if normalRow(dst, mean, std, r.state, gamma) {
		r.Skip(2 * uint64(len(dst)))
		return
	}
	for j := range dst {
		dst[j] = mean[j] + float32(r.NormFloat64()*std)
	}
}

// normalRow runs the Box–Muller row kernel on the counter states
// state + k·step when this build, CPU and level have it, and reports whether
// it filled dst (it declines a row with a u1 of 0, writing nothing).
func normalRow(dst, mean []float32, std float64, state, step uint64) bool {
	if !haveAVX2Asm || !cpuDQ || len(dst) == 0 || !simdAtLeast(SIMDAVX512) {
		return false
	}
	_ = mean[len(dst)-1]
	return normalRowAVX512Asm(dst, mean, std, state, step)
}

// FillRMAT draws len(src) RMAT attempts of levels quadrant choices each
// and sets src[i] and dst[i] to attempt i's row and column bits, the first
// level in the most significant bit. Attempt i reads draws
// [i·levels, (i+1)·levels) past r, and r is left levels·len(src) draws on. A
// draw u = Uint64()>>11 picks the top-left quadrant when u < t[0], the
// top-right when u < t[1], the bottom-left when u < t[2] and else the
// bottom-right; t must be ordered, t[0] ≤ t[1] ≤ t[2]. At the avx512 level on
// a CPU with AVX512DQ an 8-lane kernel (rmat_amd64.s) draws the attempts,
// bit for bit as the scalar loop does. len(dst) must be at least len(src).
func (r *RNG) FillRMAT(src, dst []int32, levels int, t [3]uint64) {
	if rmatRows(src, dst, levels, t, r.state) {
		r.Skip(uint64(levels) * uint64(len(src)))
		return
	}
	dst = dst[:len(src)]
	for i := range src {
		var s, d int32
		for l := 0; l < levels; l++ {
			// The thresholds are ordered, so the column is the parity of
			// the thresholds u has passed.
			u := r.Uint64() >> 11
			bottom := b2i(u >= t[1])
			s = s<<1 | bottom
			d = d<<1 | (b2i(u >= t[0]) ^ bottom ^ b2i(u >= t[2]))
		}
		src[i], dst[i] = s, d
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// rmatRows runs the RMAT attempt kernel on the draws past counter state
// state when this build, CPU and level have it, and reports whether it
// filled src and dst.
func rmatRows(src, dst []int32, levels int, t [3]uint64, state uint64) bool {
	if !haveAVX2Asm || !cpuDQ || len(src) == 0 || !simdAtLeast(SIMDAVX512) {
		return false
	}
	_ = dst[len(src)-1]
	rmatRowsAVX512Asm(src, dst, levels, t[0], t[1], t[2], state)
	return true
}

// Split derives a new independent generator from r.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// XavierInit fills m with Glorot-uniform values for a fanIn×fanOut layer.
func XavierInit(m *Matrix, rng *RNG) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = float32((rng.Float64()*2 - 1) * limit)
	}
}

// NormalInit fills m with N(0, std²) values.
func NormalInit(m *Matrix, std float64, rng *RNG) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
}
