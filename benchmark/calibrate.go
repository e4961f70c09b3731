package main

import (
	"runtime"
	"sync"
)

// The sandbox this benchmark has to be steady on slows down and speeds up
// by 20–40 % for a minute or two at a time (other tenants of the host:
// process CPU time inflates with wall time, and steal time stays near zero,
// so it is contention for the core's shared resources, not for its time
// slices). Medians inside a run cannot see through a phase that outlasts the
// run. So every timed epoch and replay is bracketed by bursts of a reference
// kernel — code that belongs to the benchmark and therefore does not change
// when the program under test does — and host times are reported relative to
// it: a section's median time t, measured while the bursts took b on
// average, is reported as t·(nominal/b), the time the same work would have
// taken on a machine on which the burst takes its nominal time. Raw times
// and the factors are in the document.

const (
	// refTableLen floats (32 MB) do not fit the last-level cache, so every
	// load of the gather below pays memory latency.
	refTableLen = 8 << 20
	refGathers  = 64 << 10  // per goroutine
	refPasses   = 160 << 10 // per goroutine, over refLanes accumulators × 16 steps
	refLanes    = 8

	// The burst's nominal cost: what the sandbox the bounds were calibrated on
	// measures in a quiet phase. It only fixes the scale of the reported host
	// metrics.
	refNominalWallSec = 0.0220
	refNominalCPUSec  = 0.0420
)

// refKernel is the reference work. Per goroutine: a dependent random gather
// over the table (bound by memory latency and by what the neighbours leave
// of the shared cache) and refLanes independent multiply-add chains over a
// small array (bound by the core's arithmetic throughput, which a busy
// sibling thread halves) — the two ways the measured layers are slowed.
type refKernel struct {
	table []float32
	sink  []float32 // one result per goroutine, so no pass is dead code
}

func newRefKernel() *refKernel {
	k := &refKernel{table: make([]float32, refTableLen), sink: make([]float32, runtime.GOMAXPROCS(0))}
	for i := range k.table {
		k.table[i] = float32(i&1023) * 1e-3
	}
	return k
}

// refSample is one burst on both host clocks.
type refSample struct{ Wall, CPU float64 }

// burst runs the reference work once on every processor and times it.
func (k *refKernel) burst() refSample {
	w := startWatch()
	var wg sync.WaitGroup
	for p := range k.sink {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			k.sink[p] = k.gather(uint32(p)) + chains()
		}(p)
	}
	wg.Wait()
	wall, cpu := w.elapsed()
	return refSample{Wall: wall, CPU: cpu}
}

func (k *refKernel) gather(seed uint32) float32 {
	var acc float32
	idx := seed*2654435761 + 1
	for i := 0; i < refGathers; i++ {
		idx = idx*1664525 + 1013904223
		v := k.table[idx%refTableLen]
		acc += v
		idx += uint32(v) // the next address depends on this load
	}
	return acc
}

func chains() float32 {
	var a [16 * refLanes]float32
	for i := range a {
		a[i] = float32(i) * 1e-3
	}
	var s [refLanes]float32
	for pass := 0; pass < refPasses; pass++ {
		for i := 0; i < len(a); i += refLanes {
			s[0] = s[0]*0.999 + a[i]
			s[1] = s[1]*0.999 + a[i+1]
			s[2] = s[2]*0.999 + a[i+2]
			s[3] = s[3]*0.999 + a[i+3]
			s[4] = s[4]*0.999 + a[i+4]
			s[5] = s[5]*0.999 + a[i+5]
			s[6] = s[6]*0.999 + a[i+6]
			s[7] = s[7]*0.999 + a[i+7]
		}
	}
	return s[0] + s[1] + s[2] + s[3] + s[4] + s[5] + s[6] + s[7]
}

// burstsPerGap reference bursts run before every timed epoch or replay and
// after the last one.
const burstsPerGap = 2

// sample appends one gap's bursts.
func (k *refKernel) sample(bursts []refSample) []refSample {
	for i := 0; i < burstsPerGap; i++ {
		bursts = append(bursts, k.burst())
	}
	return bursts
}

// refFactors is a section's machine-speed factor on each host clock: the
// mean burst ÷ nominal. The mean, not the median: a neighbour that is busy a
// third of the time slows an epoch-long sample by a third of its effect,
// and only the mean of many short bursts moves the same way.
func refFactors(bursts []refSample) (wall, cpu float64) {
	for _, b := range bursts {
		wall += b.Wall
		cpu += b.CPU
	}
	n := float64(len(bursts))
	return wall / n / refNominalWallSec, cpu / n / refNominalCPUSec
}
