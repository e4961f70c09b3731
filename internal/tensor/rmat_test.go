package tensor

import (
	"math"
	"slices"
	"testing"
)

// fillRMATLoop is the attempt loop RNG.FillRMAT must reproduce, written as
// the quadrant switch rather than the parity of the compares.
func fillRMATLoop(src, dst []int32, levels int, t [3]uint64, r *RNG) {
	for i := range src {
		var s, d int32
		for l := 0; l < levels; l++ {
			s, d = s<<1, d<<1
			switch u := r.Uint64() >> 11; {
			case u < t[0]:
			case u < t[1]:
				d |= 1
			case u < t[2]:
				s |= 1
			default:
				s, d = s|1, d|1
			}
		}
		src[i], dst[i] = s, d
	}
}

// rmatThresholds are ordered threshold triples: DefaultRMAT's ⌈t·2⁵³⌉,
// uniform quadrants, all four degenerate corners, equal thresholds, and
// thresholds above every 53-bit draw (up to 2⁶⁴ − 1, where a signed compare
// would differ).
var rmatThresholds = [][3]uint64{
	{5134103575202365, 6845471433603154, 8556839292003942},
	{1 << 51, 1 << 52, 3 << 51},
	{0, 0, 0},
	{1 << 53, 1 << 53, 1 << 53},
	{0, 1 << 53, 1 << 53},
	{0, 0, 1 << 53},
	{1 << 52, 1 << 52, 1<<52 + 1},
	{1 << 52, 1 << 63, math.MaxUint64},
}

// FillRMAT equals its scalar loop bit for bit — src, dst and where the RNG
// is left — at every dispatch level, over level counts from 0 (one vertex:
// no draw per attempt) to 30, every masked tail up to 17 attempts and longer
// runs, at several attempt offsets into the stream. At the avx512 level on a
// CPU with AVX512DQ the kernel must be the one drawing.
func TestRMATKernelMatchesScalar(t *testing.T) {
	lens := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 1000}
	for _, l := range availableLevels() {
		withSIMD(t, l, func() {
			for _, levels := range []int{0, 1, 2, 13, 17, 30} {
				for _, th := range rmatThresholds {
					for _, n := range lens {
						for _, first := range []uint64{0, 1, 7, 4099} {
							wr := NewRNG(uint64(n)*31 + uint64(levels))
							wr.Skip(first * uint64(levels))
							gr := *wr
							want, got := rmatBuffers(n), rmatBuffers(n)
							fillRMATLoop(want.src(), want.dst(), levels, th, wr)
							gr.FillRMAT(got.src(), got.dst(), levels, th)
							if i := firstDiff(got, want); i >= 0 {
								t.Fatalf("level %v, levels %d, t %v, n %d, first %d: word %d = %#x, loop %#x",
									l, levels, th, n, first, i, got[i], want[i])
							}
							if gr != *wr {
								t.Fatalf("level %v, levels %d, n %d, first %d: RNG left at a different draw", l, levels, n, first)
							}
						}
					}
				}
			}
			kernel := l >= SIMDAVX512 && kernelAvailable()
			src, dst := make([]int32, 9), make([]int32, 9)
			if got := rmatRows(src, dst, 13, rmatThresholds[0], 12345); got != kernel {
				t.Fatalf("level %v: rmatRows took the kernel = %v, want %v (DQ %v)", l, got, kernel, cpuDQ)
			}
		})
	}
	if !kernelAvailable() {
		t.Logf("kernel not run: DQ %v, ceiling %v", cpuDQ, DetectedSIMDLevel())
	}
}

// rmatBuf holds an attempt run's src then dst, each followed by eight
// guard words, so a store past either shows as a difference.
type rmatBuf []int32

func rmatBuffers(n int) rmatBuf {
	b := make(rmatBuf, 2*(n+8))
	for i := range b {
		b[i] = -7
	}
	return b
}

func (b rmatBuf) n() int       { return len(b)/2 - 8 }
func (b rmatBuf) src() []int32 { return b[:b.n()] }
func (b rmatBuf) dst() []int32 { return b[len(b)/2:][:b.n()] }
func firstDiff(got, want rmatBuf) int {
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// rmatSeeds are (draw, position, levels, thresholds) tuples that put one
// draw's top 53 bits exactly on DefaultRMAT's thresholds ⌈t·2⁵³⌉ and one
// below, and on 0 and 2⁵³ − 1, at positions across lanes, levels and passes.
func rmatSeeds() [][6]uint64 {
	th := rmatThresholds[0]
	us := []uint64{0, 1<<53 - 1}
	for _, t := range th {
		us = append(us, t, t-1)
	}
	var out [][6]uint64
	for i, u := range us {
		for k, at := range []uint64{0, 5, 13*8 + 7, 13*21 + 12} {
			out = append(out, [6]uint64{u<<11 | uint64(i*4+k), at, 13, th[0], th[1], th[2]})
		}
	}
	return out
}

// FuzzRMATKernel places a chosen 64-bit draw at a chosen draw position of a
// run of RMAT attempts (by inverting the finalizer) and checks, bitwise, the
// kernel against the scalar loop over the same counter states, and
// RNG.FillRMAT's attempts and RNG position against the loop's. The three
// thresholds are sorted into order; the level count and run length are
// reduced to 0…30 and 1…300.
func FuzzRMATKernel(f *testing.F) {
	for _, s := range rmatSeeds() {
		f.Add(s[0], s[1], uint8(s[2]), s[3], s[4], s[5], uint16(40+s[1]%17))
	}
	f.Fuzz(func(t *testing.T, z, at uint64, levels uint8, t0, t1, t2 uint64, n uint16) {
		lv, rows := int(levels)%31, int(n)%300+1
		th := [3]uint64{t0, t1, t2}
		slices.Sort(th[:])
		s := unmix(z)
		if mix(s) != z {
			t.Fatalf("unmix(%#x) does not invert the finalizer", z)
		}
		// Draw at+1 past state runs at counter state s.
		state := s - (at%uint64(max(rows*lv, 1))+1)*gamma
		want, got := rmatBuffers(rows), rmatBuffers(rows)
		wr, gr := RNG{state: state}, RNG{state: state}
		fillRMATLoop(want.src(), want.dst(), lv, th, &wr)
		if kernelAvailable() {
			withSIMD(t, SIMDAVX512, func() {
				if !rmatRows(got.src(), got.dst(), lv, th, state) {
					t.Fatal("kernel declined")
				}
			})
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("z %#x at %d, levels %d, t %v, n %d: kernel word %d = %#x, loop %#x", z, at, lv, th, rows, i, got[i], want[i])
			}
		}
		got = rmatBuffers(rows)
		gr.FillRMAT(got.src(), got.dst(), lv, th)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("z %#x at %d, levels %d, t %v, n %d via FillRMAT: word %d = %#x, loop %#x", z, at, lv, th, rows, i, got[i], want[i])
		}
		if gr != wr {
			t.Fatalf("z %#x at %d, levels %d, n %d via FillRMAT: RNG left at a different draw", z, at, lv, rows)
		}
	})
}
