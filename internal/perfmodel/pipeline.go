package perfmodel

import "math"

// maxStages bounds a pipeline's stage sequence: sampling, loading, transfer
// (split under TFP), the remote-fetch stage (when networked), propagation.
const maxStages = 5

// Pipeline is the paper's one rule for turning per-stage times into elapsed
// time (Fig. 4/5/7): stage s of unit i starts when both stage s−1 of unit i
// and stage s of unit i−1 have finished. The exported fields are the
// pipeline's shape; the zero value of the rest is an idle pipeline at time 0.
// The executing engines' virtual clocks, the simulator and the serving price
// list all compose stage vectors through this type.
//
// Stage sequence: [sampling, loading(+transfer)] — split into separate
// loading and transfer stages under TFP — then, when Networked, a
// remote-fetch stage that overlaps the local pipeline, and finally
// propagation (local gradient sync included), which the inter-node
// all-reduce extends serially. Every stage but the remote fetch ends in one
// RuntimeBarrierSec hand-off.
type Pipeline struct {
	TFP       bool // two-stage feature prefetching: Load and Trans are separate stages
	Networked bool // NetFetch is a stage of its own, NetSync a serial tail

	done [maxStages]float64 // per-stage completion times of the previous unit
	now  float64            // completion time of the previous unit
}

// stageSeq is a StageTimes laid out on one pipeline shape.
type stageSeq struct {
	raw   [maxStages]float64 // barrier-free stage durations, pipeline order
	n     int
	fetch int // index of the barrier-free remote-fetch stage, −1 if absent
	// tail is the inter-node all-reduce: it extends the last stage serially,
	// after that stage's barrier — every trainer blocks on the global
	// gradient before updating.
	tail float64
}

// stages is the single StageTimes → stage sequence mapping.
func (p Pipeline) stages(st StageTimes) stageSeq {
	q := stageSeq{fetch: -1}
	q.raw[0] = math.Max(st.SampCPU, st.SampAccel)
	if p.TFP {
		q.raw[1], q.raw[2] = st.Load, st.Trans
		q.n = 3
	} else {
		q.raw[1] = st.Load + st.Trans
		q.n = 2
	}
	if p.Networked {
		// Remote feature fetches overlap the local pipeline as one more
		// stage, the way DistDGL-style prefetching hides them behind local
		// work; they only cost time when the NIC becomes the bottleneck.
		q.fetch = q.n
		q.raw[q.n] = st.NetFetch
		q.n++
		q.tail = st.NetSync
	}
	q.raw[q.n] = math.Max(st.TrainCPU, st.TrainAcc) + st.Sync
	q.n++
	return q
}

// dur is stage s's full duration: raw time, its barrier, and on the last
// stage the serial tail.
func (q *stageSeq) dur(s int) float64 {
	d := q.raw[s]
	if s != q.fetch {
		d += RuntimeBarrierSec
	}
	if s == q.n-1 {
		d += q.tail
	}
	return d
}

// Now returns the completion time of the last unit pushed through.
func (p *Pipeline) Now() float64 { return p.now }

// Advance pushes one back-to-back unit through the pipeline (training's
// batcher always has the next mini-batch ready).
func (p *Pipeline) Advance(st StageTimes) { p.AdvanceAfter(0, st) }

// AdvanceAfter pushes one unit of work through the max-plus recurrence. The
// unit's first stage cannot start before `ready`; the return value is its
// completion time. A serving batch becomes ready when the dynamic batcher
// closes it, which may leave the pipeline idle in between.
func (p *Pipeline) AdvanceAfter(ready float64, st StageTimes) float64 {
	q := p.stages(st)
	prev := ready
	for s := 0; s < q.n; s++ {
		start := math.Max(prev, p.done[s])
		p.done[s] = start + q.dur(s)
		prev = p.done[s]
	}
	p.now = prev
	return prev
}

// Serial is the stage sum: what one unit takes through an idle pipeline. The
// barriers enter as one n·RuntimeBarrierSec term — the serving service-time
// formula, kept bit for bit — so it matches AdvanceAfter's first completion
// as a real number, not necessarily in the last ulp.
func (p Pipeline) Serial(st StageTimes) float64 {
	q := p.stages(st)
	var sum float64
	for s := 0; s < q.n; s++ {
		sum += q.raw[s]
	}
	barriers := q.n
	if q.fetch >= 0 {
		barriers--
	}
	return sum + float64(barriers)*RuntimeBarrierSec + q.tail
}

// steady is the slowest stage: the sustained per-unit cadence of a pipeline
// fed the same stage vector back-to-back (Eq. 6 with the barriers in).
func (p Pipeline) steady(st StageTimes) float64 {
	q := p.stages(st)
	var worst float64
	for s := 0; s < q.n; s++ {
		worst = math.Max(worst, q.dur(s))
	}
	return worst
}
