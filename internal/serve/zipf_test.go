package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// zipfCDFSerial is zipfCDF as one sequential loop: the oracle the
// worker-computed terms are held to.
func zipfCDFSerial(numVertices int, exponent float64) []float64 {
	cdf := make([]float64, numVertices)
	sum := 0.0
	for v := 0; v < numVertices; v++ {
		sum += 1 / math.Pow(float64(v+1), exponent)
		cdf[v] = sum
	}
	for v := range cdf {
		cdf[v] /= sum
	}
	return cdf
}

// withParallelism runs fn at each kernel fan-out bound in turn.
func withParallelism(t *testing.T, fn func(par int)) {
	t.Helper()
	for _, par := range []int{1, 2, 4} {
		prev := tensor.SetParallelism(par)
		fn(par)
		tensor.SetParallelism(prev)
	}
}

// zipfCDF equals its sequential loop bit for bit at every fan-out bound,
// on sizes below and above the fan-out grain.
func TestZipfCDFMatchesSerial(t *testing.T) {
	withParallelism(t, func(par int) {
		if par > 1 && tensor.FanOut(61_225, powWork) < par {
			t.Fatalf("61 225 terms run below the fan-out grain at parallelism %d", par)
		}
		for _, n := range []int{1, 7, 1000, 61_225, 200_001} {
			for _, theta := range []float64{0, 0.8, 1.1, 2.5} {
				got, want := zipfCDF(n, theta), zipfCDFSerial(n, theta)
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("par %d, n %d, θ %v: cdf[%d] = %v, want %v", par, n, theta, v, got[v], want[v])
					}
				}
			}
		}
	})
}

// A workload builds one CDF per distinct exponent and its cohorts share it;
// the merged stream is the one per-cohort sequential CDFs give, at every
// fan-out bound, and so is GenerateTrace's trace.
func TestGenerateTraceSharesZipfCDFs(t *testing.T) {
	spec, err := ParseWorkloadSpec(
		"web,rate=3000,class=interactive,zipf=1.1,phases=0.02s@2x+0.02s@0.5x;" +
			"api,rate=2000,dist=gamma,shape=0.5,zipf=1.1;" +
			"etl,rate=1500,dist=weibull,shape=0.7,class=bulk,zipf=0.8")
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	ref := &workloadStream{cohorts: make([]cohortStream, len(spec.Cohorts))}
	rng := tensor.NewRNG(4)
	for i, c := range spec.Cohorts {
		ref.cohorts[i].init(c, zipfCDFSerial(n, c.Zipf), rng.Split())
	}
	want := make([]Request, 3000)
	for i := range want {
		want[i] = ref.next()
	}
	cfg := workloadConfig(t)
	var trace string
	withParallelism(t, func(par int) {
		w, err := newWorkloadStream(spec, n, tensor.NewRNG(4))
		if err != nil {
			t.Fatal(err)
		}
		if &w.cohorts[0].cdf[0] != &w.cohorts[1].cdf[0] || &w.cohorts[0].cdf[0] == &w.cohorts[2].cdf[0] {
			t.Fatal("cohorts with equal exponents do not share one CDF, or unequal ones do")
		}
		for i, r := range want {
			if got := w.next(); got != r {
				t.Fatalf("par %d: arrival %d = %+v, want %+v", par, i, got, r)
			}
		}
		tr, err := GenerateTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sig := fmt.Sprint(tr.Requests); trace == "" {
			trace = sig
		} else if sig != trace {
			t.Fatalf("par %d: GenerateTrace's trace differs from parallelism 1's", par)
		}
	})
}
