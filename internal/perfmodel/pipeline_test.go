package perfmodel

import (
	"math"
	"math/rand"
	"testing"
)

// oracleClock is core.PipelineClock as it stood before Pipeline replaced it:
// AdvanceAfter's body is kept verbatim (receiver and barrier constant
// renamed), so the executed virtual clock's arithmetic is pinned bit for bit.
type oracleClock struct {
	tfp       bool
	networked bool
	prevDone  []float64
	now       float64
}

func newOracleClock(tfp, networked bool) *oracleClock {
	n := 3
	if tfp {
		n = 4
	}
	if networked {
		n++
	}
	return &oracleClock{tfp: tfp, networked: networked, prevDone: make([]float64, n)}
}

func (c *oracleClock) AdvanceAfter(ready float64, st StageTimes) float64 {
	const runtimeBarrierSec = RuntimeBarrierSec
	samp := math.Max(st.SampCPU, st.SampAccel) + runtimeBarrierSec
	prop := math.Max(st.TrainCPU, st.TrainAcc) + st.Sync + runtimeBarrierSec
	if c.networked {
		// The inter-node all-reduce extends the propagation stage serially —
		// every trainer blocks on the global gradient before updating.
		prop += st.NetSync
	}
	// Fixed-size backing array: the stage vector never exceeds 5 entries
	// (tfp + networked), so the appends below stay on the stack and the
	// training loop's clock advance does not allocate.
	var stageBuf [5]float64
	stages := stageBuf[:0]
	if c.tfp {
		stages = append(stages, samp, st.Load+runtimeBarrierSec, st.Trans+runtimeBarrierSec)
	} else {
		stages = append(stages, samp, st.Load+st.Trans+runtimeBarrierSec)
	}
	if c.networked {
		// Remote feature fetches overlap the local pipeline as one more
		// stage, the way DistDGL-style prefetching hides them behind local
		// work; they only cost wall-clock when the NIC becomes the bottleneck.
		stages = append(stages, st.NetFetch)
	}
	stages = append(stages, prop)
	prev := ready
	for s := range stages {
		start := math.Max(prev, c.prevDone[s])
		c.prevDone[s] = start + stages[s]
		prev = c.prevDone[s]
	}
	c.now = c.prevDone[len(stages)-1]
	return c.now
}

// genStage draws a stage vector spanning microseconds to a tenth of a second
// per stage, with every field independently absent (zero) a fifth of the
// time. Serving vectors carry no accelerator sampling and no gradient sync.
func genStage(rng *rand.Rand, serving bool) StageTimes {
	draw := func() float64 {
		if rng.Intn(5) == 0 {
			return 0
		}
		return math.Pow(10, -6+5*rng.Float64())
	}
	st := StageTimes{SampCPU: draw(), Load: draw(), Trans: draw(),
		TrainCPU: draw(), TrainAcc: draw(), NetFetch: draw(), NetSync: draw()}
	if !serving {
		st.SampAccel, st.Sync = draw(), draw()
	}
	return st
}

var allShapes = []Pipeline{{}, {TFP: true}, {Networked: true}, {TFP: true, Networked: true}}

// The shared type is the executed clock: same bits as the pre-change
// recurrence over generated stage vectors, every shape, back-to-back units
// and units that arrive after the pipeline has gone idle.
func TestPipelineLawMatchesClockOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range allShapes {
		for seq := 0; seq < 100; seq++ {
			p := shape
			o := newOracleClock(shape.TFP, shape.Networked)
			for unit := 0; unit < 40; unit++ {
				st := genStage(rng, false)
				ready := 0.0
				switch rng.Intn(3) {
				case 1: // idle gap: the unit arrives after the last completion
					ready = p.Now() + math.Pow(10, -5+4*rng.Float64())
				case 2: // arrives while earlier units are still in flight
					ready = p.Now() * rng.Float64()
				}
				got, want := p.AdvanceAfter(ready, st), o.AdvanceAfter(ready, st)
				if math.Float64bits(got) != math.Float64bits(want) ||
					math.Float64bits(p.Now()) != math.Float64bits(o.now) {
					t.Fatalf("shape %+v seq %d unit %d: Pipeline %x (Now %x), oracle %x",
						shape, seq, unit, got, p.Now(), want)
				}
			}
		}
	}
}

// Serial, Steady and the recurrence are three readings of one stage
// sequence. Serial and Steady add the barriers in a different order than the
// recurrence accumulates them, so "equal" below is equal as real numbers:
// within a few ulps, not bit for bit.
func TestPipelineLawProperties(t *testing.T) {
	const relTol = 1e-12
	near := func(a, b float64) bool { return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b)) }
	rng := rand.New(rand.NewSource(2))
	for _, shape := range allShapes {
		for trial := 0; trial < 200; trial++ {
			st := genStage(rng, false)
			serial, steady := shape.Serial(st), shape.Steady(st)
			if steady > serial {
				t.Fatalf("shape %+v: slowest stage %v exceeds the stage sum %v", shape, steady, serial)
			}
			p := shape
			// First unit through an idle pipeline completes at Serial.
			if first := p.AdvanceAfter(0, st); !near(first, serial) {
				t.Fatalf("shape %+v: first unit completes at %v, Serial says %v", shape, first, serial)
			}
			// Fed the same vector back-to-back, every later unit costs Steady.
			const n = 12
			for unit := 2; unit <= n; unit++ {
				before := p.Now()
				p.Advance(st)
				if d := p.Now() - before; math.Abs(d-steady) > relTol*p.Now() {
					t.Fatalf("shape %+v unit %d: delta %v, Steady says %v", shape, unit, d, steady)
				}
			}
			// Overlap never beats the slowest stage nor loses to no overlap.
			if mk := p.Now(); mk < n*steady*(1-relTol) || mk > n*serial*(1+relTol) {
				t.Fatalf("shape %+v: makespan(%d) %v outside [%v, %v]", shape, n, mk, n*steady, n*serial)
			}
			// The same bounds hold unit by unit for changing stage vectors.
			q := shape
			var sumSerial float64
			for unit := 0; unit < n; unit++ {
				v := genStage(rng, false)
				before := q.Now()
				q.Advance(v)
				sumSerial += shape.Serial(v)
				if d := q.Now() - before; d > shape.Serial(v)*(1+relTol) {
					t.Fatalf("shape %+v: unit took %v, longer than its stage sum %v", shape, d, shape.Serial(v))
				}
			}
			if q.Now() > sumSerial*(1+relTol) {
				t.Fatalf("shape %+v: pipelined %v exceeds sequential %v", shape, q.Now(), sumSerial)
			}
		}
	}
}

// The serving price list moved onto Pipeline{TFP: true} without moving a
// bit: the formulas below are ServingServiceSec / servingCycleSec as they
// were written out before.
func TestPipelineLawServingPrices(t *testing.T) {
	oldService := func(st StageTimes) float64 {
		return st.SampCPU + st.Load + st.Trans +
			math.Max(st.TrainCPU, st.TrainAcc) + 4*RuntimeBarrierSec
	}
	oldCycle := func(st StageTimes) float64 {
		prop := math.Max(st.TrainCPU, st.TrainAcc)
		return math.Max(math.Max(st.SampCPU, st.Load),
			math.Max(st.Trans, prop)) + RuntimeBarrierSec
	}
	check := func(st StageTimes) {
		t.Helper()
		if got, want := ServingServiceSec(st), oldService(st); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ServingServiceSec(%+v) = %x, pre-change formula %x", st, got, want)
		}
		if got, want := servingCycleSec(st), oldCycle(st); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("servingCycleSec(%+v) = %x, pre-change formula %x", st, got, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		check(genStage(rng, true))
	}
	m := servingModel(t)
	for dev := 0; dev <= len(m.Plat.Accels); dev++ {
		for _, computed := range []int{1, 7, 32, 256} {
			st, err := m.ServingBatchStage(dev, computed, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			check(st)
		}
	}
}

func TestPipelineLawZeroAlloc(t *testing.T) {
	st := StageTimes{SampCPU: 3e-3, Load: 1e-3, Trans: 2e-3, TrainAcc: 4e-3, Sync: 1e-4,
		NetFetch: 5e-4, NetSync: 2e-4}
	for _, shape := range allShapes {
		p := shape
		var sink float64
		if n := testing.AllocsPerRun(100, func() {
			sink += p.AdvanceAfter(p.Now()+1e-3, st) + p.Serial(st) + p.Steady(st)
		}); n != 0 {
			t.Fatalf("shape %+v: %v allocs per advance, want 0", shape, n)
		}
		_ = sink
	}
}
