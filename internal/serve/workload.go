package serve

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// SLOClass identifies a request's service-level class. Lower values are more
// latency-sensitive: class 0 is interactive traffic, class 2 is bulk work
// that tolerates the full batching window. The class count is fixed so
// per-class state lives in dense arrays on the admission and stats hot
// paths.
type SLOClass uint8

const (
	ClassInteractive SLOClass = iota
	ClassStandard
	ClassBulk

	// NumClasses sizes dense per-class arrays.
	NumClasses = 3
)

// String names the class.
func (c SLOClass) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassStandard:
		return "standard"
	case ClassBulk:
		return "bulk"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// parseClass resolves a class name.
func parseClass(name string) (SLOClass, error) {
	switch name {
	case "interactive":
		return ClassInteractive, nil
	case "standard":
		return ClassStandard, nil
	case "bulk":
		return ClassBulk, nil
	}
	return 0, fmt.Errorf("serve: unknown SLO class %q (want interactive, standard, or bulk)", name)
}

// ArrivalDist names a cohort's inter-arrival distribution. All three are
// parameterized to a common mean gap of 1/rate, so the distribution knob
// changes burstiness without changing offered load.
type ArrivalDist uint8

const (
	// DistPoisson draws exponential gaps (memoryless arrivals).
	DistPoisson ArrivalDist = iota
	// DistGamma draws Gamma(shape, 1/(shape·rate)) gaps: shape < 1 is
	// burstier than Poisson (CV = 1/√shape), shape > 1 smoother.
	DistGamma
	// DistWeibull draws Weibull gaps with the given shape: shape < 1 has a
	// heavy tail of long silences punctuated by clustered arrivals.
	DistWeibull
)

// String names the distribution.
func (d ArrivalDist) String() string {
	switch d {
	case DistPoisson:
		return "poisson"
	case DistGamma:
		return "gamma"
	case DistWeibull:
		return "weibull"
	}
	return fmt.Sprintf("dist(%d)", uint8(d))
}

// parseDist resolves a distribution name.
func parseDist(name string) (ArrivalDist, error) {
	switch name {
	case "poisson":
		return DistPoisson, nil
	case "gamma":
		return DistGamma, nil
	case "weibull":
		return DistWeibull, nil
	}
	return 0, fmt.Errorf("serve: unknown arrival distribution %q (want poisson, gamma, or weibull)", name)
}

// RatePhase is one segment of a cohort's diurnal rate envelope: for
// DurationSec of virtual time the cohort's base rate is scaled by Mult.
type RatePhase struct {
	DurationSec float64
	Mult        float64
}

// Cohort is one named client population: its own arrival process, vertex
// popularity skew, and SLO class. A workload is a set of cohorts merged
// into one arrival stream.
type Cohort struct {
	Name  string
	Class SLOClass
	Dist  ArrivalDist
	// Shape parameterizes Gamma/Weibull inter-arrivals (ignored by Poisson);
	// 0 defaults to 1.
	Shape float64
	// RatePerSec is the cohort's base offered rate; Phases scale it.
	RatePerSec float64
	// Zipf is the cohort's vertex-popularity exponent (0 = uniform).
	Zipf float64
	// Phases is the cohort's periodic rate envelope, cycled for the whole
	// run; empty means a constant RatePerSec.
	Phases []RatePhase
}

// WorkloadSpec assembles a multi-cohort workload.
type WorkloadSpec struct {
	Cohorts []Cohort
}

// finiteAtLeast reports whether v is a finite number ≥ min, finitePositive
// whether it is a finite number > 0 — NaN and ±Inf are neither, though a
// bare comparison lets them through.
func finiteAtLeast(v, min float64) bool { return v >= min && !math.IsInf(v, 1) }
func finitePositive(v float64) bool     { return v > 0 && !math.IsInf(v, 1) }

// validate checks the spec.
func (w *WorkloadSpec) validate() error {
	if len(w.Cohorts) == 0 {
		return fmt.Errorf("serve: workload spec has no cohorts")
	}
	if len(w.Cohorts) > 256 {
		return fmt.Errorf("serve: %d cohorts exceed the uint8 cohort tag", len(w.Cohorts))
	}
	seen := map[string]bool{}
	for i, c := range w.Cohorts {
		if c.Name == "" {
			return fmt.Errorf("serve: cohort %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("serve: duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.checkNumbers(); err != nil {
			return err
		}
		if c.Class >= NumClasses {
			return fmt.Errorf("serve: cohort %q: class %d out of range", c.Name, c.Class)
		}
	}
	return nil
}

// checkNumbers checks the cohort's numeric fields: a finite positive rate,
// finite non-negative shape and Zipf exponent, and finite positive phase
// durations and multipliers. validate and the one-cohort Config stream both
// apply it.
func (c *Cohort) checkNumbers() error {
	if !finitePositive(c.RatePerSec) {
		return fmt.Errorf("serve: cohort %q: rate %v is not a finite positive number", c.Name, c.RatePerSec)
	}
	if !finiteAtLeast(c.Shape, 0) {
		return fmt.Errorf("serve: cohort %q: shape %v is not a finite non-negative number", c.Name, c.Shape)
	}
	if !finiteAtLeast(c.Zipf, 0) {
		return fmt.Errorf("serve: cohort %q: Zipf exponent %v is not a finite non-negative number", c.Name, c.Zipf)
	}
	for j, p := range c.Phases {
		if !finitePositive(p.DurationSec) {
			return fmt.Errorf("serve: cohort %q phase %d: duration %v is not a finite positive number", c.Name, j, p.DurationSec)
		}
		if !finitePositive(p.Mult) {
			return fmt.Errorf("serve: cohort %q phase %d: rate multiplier %v is not a finite positive number", c.Name, j, p.Mult)
		}
	}
	return nil
}

// ParseWorkloadSpec parses the compact cohort syntax used by the
// -serve-workload flag:
//
//	cohort[;cohort...]
//	cohort := name[,key=value...]
//	keys:   class=interactive|standard|bulk   (default standard)
//	        dist=poisson|gamma|weibull        (default poisson)
//	        rate=<req/s>                      (required)
//	        shape=<k>                         (Gamma/Weibull shape, default 1)
//	        zipf=<θ>                          (vertex popularity, default 0)
//	        phases=<dur>s@<mult>x[+...]       (diurnal envelope, cycled)
//
// Example: "web,rate=4000,class=interactive,zipf=1.1,phases=0.3s@2x+0.3s@0.5x;
// etl,rate=1500,dist=weibull,shape=0.7,class=bulk".
func ParseWorkloadSpec(s string) (*WorkloadSpec, error) {
	spec := &WorkloadSpec{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ",")
		c := Cohort{Name: strings.TrimSpace(fields[0]), Class: ClassStandard, Dist: DistPoisson, Shape: 1}
		if strings.Contains(c.Name, "=") {
			return nil, fmt.Errorf("serve: cohort %q: first field must be the name", part)
		}
		seen := map[string]bool{}
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("serve: cohort %q: field %q is not key=value", c.Name, f)
			}
			if seen[key] {
				return nil, fmt.Errorf("serve: cohort %q: key %q given twice", c.Name, key)
			}
			seen[key] = true
			var err error
			switch key {
			case "class":
				c.Class, err = parseClass(val)
			case "dist":
				c.Dist, err = parseDist(val)
			case "rate":
				c.RatePerSec, err = strconv.ParseFloat(val, 64)
			case "shape":
				c.Shape, err = strconv.ParseFloat(val, 64)
			case "zipf":
				c.Zipf, err = strconv.ParseFloat(val, 64)
			case "phases":
				c.Phases, err = parsePhases(val)
			default:
				err = fmt.Errorf("unknown key %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("serve: cohort %q: %v", c.Name, err)
			}
		}
		spec.Cohorts = append(spec.Cohorts, c)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// parsePhases parses "<dur>s@<mult>x[+...]" (the unit suffixes are optional).
func parsePhases(s string) ([]RatePhase, error) {
	var phases []RatePhase
	for _, part := range strings.Split(s, "+") {
		durS, multS, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("phase %q is not dur@mult", part)
		}
		dur, err := strconv.ParseFloat(strings.TrimSuffix(durS, "s"), 64)
		if err != nil {
			return nil, fmt.Errorf("phase duration %q: %v", durS, err)
		}
		mult, err := strconv.ParseFloat(strings.TrimSuffix(multS, "x"), 64)
		if err != nil {
			return nil, fmt.Errorf("phase multiplier %q: %v", multS, err)
		}
		phases = append(phases, RatePhase{DurationSec: dur, Mult: mult})
	}
	return phases, nil
}

// arrivalRNG is the random-draw dependency of the arrival samplers —
// *tensor.RNG in production; the degenerate-draw regression test scripts it.
type arrivalRNG interface {
	Float64() float64
	NormFloat64() float64
}

// positiveUniform draws from (0, 1). Float64 spans [0, 1): the u == 0 draw
// is legal there but would map to a zero exponential gap (-log(1-0) = 0),
// stalling the virtual clock and violating the strictly-ordered-arrivals
// contract, so it is redrawn. (The u → 1 end needs no guard — Float64 never
// returns 1.)
func positiveUniform(rng arrivalRNG) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return u
}

// expGap draws an exponential inter-arrival gap with mean 1/rate.
func expGap(rng arrivalRNG, rate float64) float64 {
	return -math.Log(1-positiveUniform(rng)) / rate
}

// gammaGap draws a Gamma-distributed gap with the given shape and mean
// 1/rate (scale 1/(shape·rate)).
func gammaGap(rng arrivalRNG, shape, rate float64) float64 {
	return gammaSample(rng, shape) / (shape * rate)
}

// gammaSample draws Gamma(shape, 1) by Marsaglia–Tsang squeeze-rejection;
// shape < 1 uses the boost Gamma(k) = Gamma(k+1)·U^(1/k). Deterministic
// given the RNG stream — rejection just consumes more draws.
func gammaSample(rng arrivalRNG, shape float64) float64 {
	if shape < 1 {
		u := positiveUniform(rng)
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := positiveUniform(rng)
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// weibullGap draws a Weibull-distributed gap with the given shape and mean
// 1/rate (scale 1/(rate·Γ(1+1/shape)), by inversion).
func weibullGap(rng arrivalRNG, shape, rate float64) float64 {
	scale := 1 / (rate * math.Gamma(1+1/shape))
	return scale * math.Pow(-math.Log(1-positiveUniform(rng)), 1/shape)
}

// cohortStream generates one cohort's arrivals on its own RNG stream, holding
// the next arrival peeked for the merge.
type cohortStream struct {
	c      Cohort
	rng    arrivalRNG
	cdf    []float64 // cohort's Zipf popularity CDF
	period float64   // Σ phase durations (0 = constant rate)
	nextAt float64
	nextV  int32
}

// init binds the stream to its cohort, popularity CDF and RNG, and draws the
// first arrival.
func (cs *cohortStream) init(c Cohort, cdf []float64, rng arrivalRNG) {
	if c.Shape == 0 {
		c.Shape = 1
	}
	cs.c, cs.rng, cs.cdf = c, rng, cdf
	for _, p := range c.Phases {
		cs.period += p.DurationSec
	}
	cs.advance()
}

// rateAt returns the cohort's offered rate at virtual time t under its
// phase envelope.
func (cs *cohortStream) rateAt(t float64) float64 {
	if cs.period == 0 {
		return cs.c.RatePerSec
	}
	tm := math.Mod(t, cs.period)
	for _, p := range cs.c.Phases {
		if tm < p.DurationSec {
			return cs.c.RatePerSec * p.Mult
		}
		tm -= p.DurationSec
	}
	return cs.c.RatePerSec * cs.c.Phases[len(cs.c.Phases)-1].Mult
}

// advance draws the cohort's next arrival. The gap is sampled at the rate
// in force when the previous arrival landed — a piecewise-stationary
// approximation of the non-homogeneous process that keeps sampling O(1)
// and exactly reproducible.
func (cs *cohortStream) advance() {
	rate := cs.rateAt(cs.nextAt)
	var gap float64
	switch cs.c.Dist {
	case DistGamma:
		gap = gammaGap(cs.rng, cs.c.Shape, rate)
	case DistWeibull:
		gap = weibullGap(cs.rng, cs.c.Shape, rate)
	default:
		gap = expGap(cs.rng, rate)
	}
	cs.nextAt += gap
	v := sort.SearchFloat64s(cs.cdf, cs.rng.Float64())
	if v >= len(cs.cdf) {
		v = len(cs.cdf) - 1
	}
	cs.nextV = int32(v)
}

// workloadStream merges the cohorts of a WorkloadSpec into one deterministic
// arrival stream: each cohort samples on its own split RNG stream, and the
// merge always yields the earliest pending arrival (ties broken by cohort
// index), so the sequence is a pure function of (spec, numVertices, seed).
type workloadStream struct {
	cohorts []cohortStream
	nextID  int
}

// newWorkloadStream builds the merged stream over numVertices vertices from a
// spec Config.Validate has checked. The rng is consumed to split one
// independent stream per cohort.
func newWorkloadStream(spec *WorkloadSpec, numVertices int, rng *tensor.RNG) (*workloadStream, error) {
	if numVertices <= 0 {
		return nil, fmt.Errorf("serve: non-positive vertex count %d", numVertices)
	}
	w := &workloadStream{cohorts: make([]cohortStream, len(spec.Cohorts))}
	cdfs := map[float64][]float64{} // one read-only CDF per distinct exponent
	for i, c := range spec.Cohorts {
		cdf, ok := cdfs[c.Zipf]
		if !ok {
			cdf = zipfCDF(numVertices, c.Zipf)
			cdfs[c.Zipf] = cdf
		}
		w.cohorts[i].init(c, cdf, rng.Split())
	}
	return w, nil
}

// newPoissonStream builds the Config.RatePerSec/ZipfExponent stream — the
// synthetic open-loop workload: Poisson arrivals over vertices drawn from a
// Zipf popularity distribution (exponent 0 is uniform), the skew that makes
// an embedding cache earn its keep. It is a one-cohort workloadStream (class
// standard, cohort 0) that draws from rng directly instead of a split. The
// rate and exponent are the ones Config.Validate checked.
func newPoissonStream(numVertices int, ratePerSec, zipfExponent float64, rng arrivalRNG) (*workloadStream, error) {
	if numVertices <= 0 {
		return nil, fmt.Errorf("serve: non-positive vertex count %d", numVertices)
	}
	w := &workloadStream{cohorts: make([]cohortStream, 1)}
	w.cohorts[0].init(poissonCohort(ratePerSec, zipfExponent), zipfCDF(numVertices, zipfExponent), rng)
	return w, nil
}

// poissonCohort is the one cohort of the Config.RatePerSec/ZipfExponent
// stream.
func poissonCohort(ratePerSec, zipfExponent float64) Cohort {
	return Cohort{Name: "poisson", Class: ClassStandard, RatePerSec: ratePerSec, Zipf: zipfExponent}
}

// next returns the next merged arrival (the stream is unbounded).
func (w *workloadStream) next() Request {
	best := 0
	for i := 1; i < len(w.cohorts); i++ {
		if w.cohorts[i].nextAt < w.cohorts[best].nextAt {
			best = i
		}
	}
	cs := &w.cohorts[best]
	r := Request{
		ID:      w.nextID,
		Vertex:  cs.nextV,
		Arrival: cs.nextAt,
		Class:   cs.c.Class,
		Cohort:  uint8(best),
	}
	w.nextID++
	cs.advance()
	return r
}

// zipfCDF builds the cumulative Zipf(θ) popularity over vertex IDs
// (θ = 0 degenerates to uniform). The terms 1/(v+1)^θ are computed on
// tensor.ParallelRows workers; the running sum and the division stay one
// sequential pass, so every float is that of a sequential loop.
func zipfCDF(numVertices int, exponent float64) []float64 {
	cdf := make([]float64, numVertices)
	tensor.ParallelRows(numVertices, powWork, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			cdf[v] = 1 / math.Pow(float64(v+1), exponent)
		}
	})
	sum := 0.0
	for v, term := range cdf {
		sum += term
		cdf[v] = sum
	}
	for v := range cdf {
		cdf[v] /= sum
	}
	return cdf
}

// powWork is one zipfCDF term in tensor.FanOut's units (≈ 5.5 per ns): a
// math.Pow and a division, ≈ 90 ns on a 2-core Sapphire Rapids Xeon.
const powWork = 500
