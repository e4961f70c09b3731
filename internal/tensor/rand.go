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
