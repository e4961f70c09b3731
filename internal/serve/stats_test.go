package serve

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// summarizeBySorts is the latency summary as two full sorts give it: the run's
// figures from one sort of every sample, each class's from a sort of its own.
func summarizeBySorts(lat []float64, classes []SLOClass) Stats {
	var s Stats
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	s.MeanSec = sum / float64(len(sorted))
	s.P50Sec, s.P95Sec, s.P99Sec = percentile(sorted, 0.50), percentile(sorted, 0.95), percentile(sorted, 0.99)
	s.MaxSec = sorted[len(sorted)-1]
	for c := range s.PerClass {
		var b []float64
		for i, l := range lat {
			if classes[i] == SLOClass(c) {
				b = append(b, l)
			}
		}
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		var sum float64
		for _, v := range b {
			sum += v
		}
		cs := &s.PerClass[c]
		cs.MeanSec = sum / float64(len(b))
		cs.P50Sec, cs.P99Sec, cs.MaxSec = percentile(b, 0.50), percentile(b, 0.99), b[len(b)-1]
	}
	return s
}

// The one-sort summary — per-class buckets merged into the run's order — is
// the two-sort one bit for bit, on samples with ties, an empty class and an
// out-of-range class, at sizes from one sample up.
func TestSummarizeLatenciesMatchesTwoSorts(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, n := range []int{1, 2, 7, 100, 1013} {
		lat := make([]float64, n)
		classes := make([]SLOClass, n)
		var served [NumClasses]int
		for i := range lat {
			lat[i] = float64(rng.Intn(50)) * 1e-4 * (1 + rng.Float64()*float64(i%2)) // ties on even i
			classes[i] = []SLOClass{ClassInteractive, ClassBulk, NumClasses + 1}[rng.Intn(3)]
			if classes[i] < NumClasses {
				served[classes[i]]++
			}
		}
		var got Stats
		for c := range got.PerClass {
			got.PerClass[c].Served = served[c]
		}
		got.summarizeLatencies(lat, classes)
		want := summarizeBySorts(lat, classes)
		bits := func(s *Stats) []uint64 {
			out := []uint64{math.Float64bits(s.MeanSec), math.Float64bits(s.P50Sec), math.Float64bits(s.P95Sec),
				math.Float64bits(s.P99Sec), math.Float64bits(s.MaxSec)}
			for _, cs := range s.PerClass {
				out = append(out, math.Float64bits(cs.MeanSec), math.Float64bits(cs.P50Sec),
					math.Float64bits(cs.P99Sec), math.Float64bits(cs.MaxSec))
			}
			return out
		}
		if g, w := bits(&got), bits(&want); !reflect.DeepEqual(g, w) {
			t.Fatalf("n=%d: one-sort summary %x, two-sort %x", n, g, w)
		}
	}
}

// Regression for the floor-biased percentile: the old rank int(p·(n-1))
// truncated toward the optimistic side, so small-sample tails under-read —
// the "p95" of 10 samples was the rank-9 sample (the p88). Nearest-rank is
// the ⌈p·n⌉-th smallest sample; every expected value below is hand-computed
// and the 10-sample p95/p99 rows fail against the old code.
func TestPercentileNearestRank(t *testing.T) {
	three := []float64{10, 20, 30}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		// 3 samples: ⌈0.5·3⌉=2nd, ⌈0.95·3⌉=3rd, ⌈0.99·3⌉=3rd.
		{"n3 p50", three, 0.50, 20},
		{"n3 p95", three, 0.95, 30}, // old code: rank int(0.95·2)=1 → 20
		{"n3 p99", three, 0.99, 30},
		{"n3 p0", three, 0, 10},
		{"n3 p100", three, 1, 30},
		// 10 samples: ⌈5⌉=5th, ⌈9⌉=9th, ⌈9.5⌉=10th, ⌈9.9⌉=10th.
		{"n10 p50", ten, 0.50, 5},
		{"n10 p90", ten, 0.90, 9},
		{"n10 p95", ten, 0.95, 10}, // old code: int(0.95·9)=8 → 9
		{"n10 p99", ten, 0.99, 10}, // old code: int(0.99·9)=8 → 9
		// 100 samples: the two ranks agree at round percentiles — the bias
		// is a small-sample effect.
		{"n100 p50", hundred, 0.50, 50},
		{"n100 p95", hundred, 0.95, 95},
		{"n100 p99", hundred, 0.99, 99},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile = %v, want %v", c.name, got, c.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty sample: percentile = %v, want 0", got)
	}
}

// The Jain index over per-class goodput attainment: equal attainment is 1,
// one-class-takes-all over n active classes is 1/n.
func TestJainFairness(t *testing.T) {
	var s Stats
	s.PerClass[ClassInteractive] = ClassStats{Offered: 100, Served: 80}
	s.PerClass[ClassStandard] = ClassStats{Offered: 200, Served: 160}
	s.summarizeLatencies(nil, nil)
	if s.ActiveClasses != 2 {
		t.Fatalf("active classes = %d, want 2", s.ActiveClasses)
	}
	if s.JainFairness != 1 {
		t.Fatalf("equal attainment: Jain = %v, want 1", s.JainFairness)
	}
	var u Stats
	u.PerClass[ClassInteractive] = ClassStats{Offered: 100, Served: 100}
	u.PerClass[ClassBulk] = ClassStats{Offered: 100, Served: 0}
	u.summarizeLatencies(nil, nil)
	if u.JainFairness != 0.5 {
		t.Fatalf("one class starved of two: Jain = %v, want 0.5", u.JainFairness)
	}
}

func TestParseSLOTargets(t *testing.T) {
	got, err := ParseSLOTargets(" interactive=2, standard=10 ,bulk=50")
	if err != nil {
		t.Fatal(err)
	}
	want := []ClassSLO{{ClassInteractive, 2e-3}, {ClassStandard, 10e-3}, {ClassBulk, 50e-3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if got, err := ParseSLOTargets("  "); got != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", got, err)
	}
	for _, c := range []struct{ spec, wantSub string }{
		{"interactive", "not class=millis"},
		{"vip=2", "unknown SLO class"},
		{"interactive=0", `"interactive=0" needs a finite positive`},
		{"interactive=-1", "needs a finite positive"},
		{"interactive=2abc", `"interactive=2abc" needs a finite positive`}, // Sscanf read this as 2
		{"interactive=NaN", "needs a finite positive"},
		{"interactive=+Inf", "needs a finite positive"},
		{"bulk=5e-324", "needs a finite positive"}, // underflows to a zero-second target
		{"interactive=2,interactive=3", "class interactive given twice"},
	} {
		if _, err := ParseSLOTargets(c.spec); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSLOTargets(%q) error %v, want substring %q", c.spec, err, c.wantSub)
		}
	}
}
