package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// epochObs is what one executed epoch reports, whichever fleet ran it.
type epochObs struct {
	Loss        float64
	VirtualSec  float64
	MTEPS       float64
	Iterations  int
	Assignment  perfmodel.Assignment
	NetFetchSec float64
	NetSyncSec  float64
	RemoteRows  int
}

// fleet is the training half's subject: one engine, or a multi-node fleet
// of them.
type fleet interface {
	RunEpoch() (epochObs, error)
	Divergence() float64
}

type singleNode struct{ e *core.Engine }

func (f singleNode) RunEpoch() (epochObs, error) {
	st, err := f.e.RunEpoch()
	if err != nil {
		return epochObs{}, err
	}
	return epochObs{Loss: st.Loss, VirtualSec: st.VirtualSec, MTEPS: st.MTEPS,
		Iterations: st.Iterations, Assignment: st.Assignment}, nil
}

func (f singleNode) Divergence() float64 { return f.e.ReplicasInSync() }

type multiNode struct{ m *cluster.MultiNode }

func (f multiNode) RunEpoch() (epochObs, error) {
	st, err := f.m.RunEpoch()
	if err != nil {
		return epochObs{}, err
	}
	return epochObs{Loss: st.Loss, VirtualSec: st.VirtualSec, MTEPS: st.MTEPS,
		Iterations: st.Iterations, Assignment: st.PerNode[0].Assignment,
		NetFetchSec: st.NetFetchSec, NetSyncSec: st.NetSyncSec, RemoteRows: st.RemoteRows}, nil
}

func (f multiNode) Divergence() float64 { return f.m.ReplicasInSync() }

// materialize generates a dataset from the seed. TrainNodes is set to the
// split Materialize actually draws, so the analytic model counts the same
// iterations per epoch as the engine executes.
func materialize(spec datagen.Spec, seed uint64) (*datagen.Dataset, error) {
	spec.TrainNodes = int64(float64(spec.NumVertices) * trainFraction)
	return datagen.Materialize(spec, trainFraction, tensor.NewRNG(seed))
}

func (t trainSpec) config(data *datagen.Dataset, seed uint64) core.Config {
	return core.Config{
		Plat: t.Plat, Data: data, Model: t.Model, LR: learningRate,
		BatchSize: t.Batch, Fanouts: trainFanouts,
		Hybrid: true, TFP: true, DRM: t.DRM, Pipeline: t.Pipeline, Seed: seed,
	}
}

func (t trainSpec) workload(data *datagen.Dataset) perfmodel.Workload {
	return perfmodel.Workload{Spec: data.Spec, Model: t.Model.Kind, BatchSize: t.Batch, Fanouts: trainFanouts}
}

// trainState is a constructed, warmed-up training half.
type trainState struct {
	Spec            trainSpec
	Data            *datagen.Dataset
	Fleet           fleet
	TargetsPerEpoch int
	// AnalyticEpochSec is the performance model's epoch time for the design-
	// phase assignment — the Fig. 8 prediction the executed clock is held to.
	AnalyticEpochSec float64
	// PM prices one node of the fleet: the spec's platform at the per-trainer
	// batch actually executed.
	PM      *perfmodel.Model
	EdgeCut float64 // multi-node only
	Warm    epochObs
}

// newFleet builds the spec's fleet over data and prices the same run
// analytically.
func newFleet(t trainSpec, data *datagen.Dataset, seed uint64) (*trainState, error) {
	st := &trainState{Spec: t, Data: data}
	cfg := t.config(data, seed)
	if t.Nodes > 1 {
		mn, err := cluster.NewMultiNode(cluster.MultiNodeConfig{Nodes: t.Nodes, Net: hw.Ethernet100G(), Node: cfg})
		if err != nil {
			return nil, err
		}
		analytic := mn.Analytic()
		bd, err := cluster.EpochTime(analytic)
		if err != nil {
			return nil, err
		}
		if st.PM, err = perfmodel.New(analytic.Plat, analytic.Work); err != nil {
			return nil, err
		}
		st.Fleet = multiNode{mn}
		st.TargetsPerEpoch = mn.TrainPerNode() * mn.Nodes()
		st.AnalyticEpochSec = bd.EpochSec
		st.EdgeCut = mn.EdgeCut()
		return st, nil
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if st.PM, err = perfmodel.New(cfg.Plat, t.workload(data)); err != nil {
		return nil, err
	}
	st.Fleet = singleNode{eng}
	st.TargetsPerEpoch = len(data.TrainIdx)
	st.AnalyticEpochSec = st.PM.EpochTime(st.PM.InitialAssignment(true))
	return st, nil
}

// setupTrain builds the fleet and runs the warm-up epoch (arenas grow to
// their roof, the prefetch worker's channels exist, DRM has moved once).
func setupTrain(t trainSpec, data *datagen.Dataset, seed uint64) (*trainState, error) {
	st, err := newFleet(t, data, seed)
	if err != nil {
		return nil, err
	}
	if st.Warm, err = st.Fleet.RunEpoch(); err != nil {
		return nil, fmt.Errorf("%s warm-up epoch: %w", t.Name, err)
	}
	return st, nil
}

// trainObs is the timed section of a training half.
type trainObs struct {
	Spec             trainSpec
	Warm             epochObs
	Epochs           []epochObs  // timed epochs in order; Epochs[Spec.Epochs-1] is "final"
	WallSec          []float64   // one per timed epoch
	CPUSec           []float64   // one per timed epoch
	Bursts           []refSample // reference bursts, taken before each epoch and after the last
	TargetsPerEpoch  int
	AnalyticEpochSec float64
	Divergence       float64
	// TwinLosses/OwnLosses are the serial twin's and this fleet's per-epoch
	// losses (warm-up first) on prefetch workloads; nil otherwise.
	TwinLosses, OwnLosses []float64
}

func (o *trainObs) final() epochObs { return o.Epochs[o.Spec.Epochs-1] }

// measureTrain runs Spec.Epochs timed epochs, then keeps going while another
// epoch still fits the budget: the extra epochs steady the wall and cpu
// medians and never feed a virtual metric, so those stay a function of the
// seed alone.
func measureTrain(st *trainState, ref *refKernel, budgetSec float64) (*trainObs, error) {
	obs := &trainObs{Spec: st.Spec, Warm: st.Warm, TargetsPerEpoch: st.TargetsPerEpoch,
		AnalyticEpochSec: st.AnalyticEpochSec}
	begin := time.Now()
	for i := 0; ; i++ {
		if i >= st.Spec.Epochs && time.Since(begin).Seconds()+medianOf(obs.WallSec) > budgetSec {
			break
		}
		obs.Bursts = ref.sample(obs.Bursts)
		w := startWatch()
		ep, err := st.Fleet.RunEpoch()
		if err != nil {
			return nil, fmt.Errorf("%s timed epoch %d: %w", st.Spec.Name, i+1, err)
		}
		wall, cpu := w.elapsed()
		obs.WallSec = append(obs.WallSec, wall)
		obs.CPUSec = append(obs.CPUSec, cpu)
		obs.Epochs = append(obs.Epochs, ep)
	}
	obs.Bursts = ref.sample(obs.Bursts)
	obs.Divergence = st.Fleet.Divergence()
	return obs, nil
}

// twinEpochs is how many epochs (warm-up included) the serial twin of a
// prefetch workload is run for the bit-identity check.
const twinEpochs = 3

// runSerialTwin re-runs a prefetch workload's first epochs on the serial
// schedule from the same seed; with DRM off the two trajectories must agree
// bit for bit.
func runSerialTwin(st *trainState, obs *trainObs, seed uint64) error {
	serial := st.Spec
	serial.Pipeline = core.PipelineSerial
	twin, err := newFleet(serial, st.Data, seed)
	if err != nil {
		return err
	}
	n := twinEpochs
	if n > 1+len(obs.Epochs) {
		n = 1 + len(obs.Epochs)
	}
	obs.OwnLosses = append(obs.OwnLosses, obs.Warm.Loss)
	for _, ep := range obs.Epochs[:n-1] {
		obs.OwnLosses = append(obs.OwnLosses, ep.Loss)
	}
	for i := 0; i < n; i++ {
		ep, err := twin.Fleet.RunEpoch()
		if err != nil {
			return fmt.Errorf("%s serial twin epoch %d: %w", st.Spec.Name, i, err)
		}
		obs.TwinLosses = append(obs.TwinLosses, ep.Loss)
	}
	return nil
}

// report fills the train_* end-to-end metrics.
func (o *trainObs) report(m *metricSet) {
	fin := o.final()
	targets := float64(o.TargetsPerEpoch)
	wallFactor, cpuFactor := refFactors(o.Bursts)
	m.set("train_wall_targets_per_s", ratio(targets*wallFactor, medianOf(o.WallSec)))
	m.set("train_cpu_us_per_target", ratio(1e6*medianOf(o.CPUSec), targets*cpuFactor))
	m.set("train_virt_mteps", fin.MTEPS)
	m.set("train_final_loss", fin.Loss)
	m.set("train_model_err_pct", pctErr(o.AnalyticEpochSec, fin.VirtualSec))
}

// iterations is the number of training iterations the timed section ran.
func (o *trainObs) iterations() int {
	n := 0
	for _, ep := range o.Epochs {
		n += ep.Iterations
	}
	if o.Spec.Nodes > 1 {
		n *= o.Spec.Nodes
	}
	return n
}

// checks are the training half's correctness conditions.
func (o *trainObs) checks() []check {
	fin := o.final()
	cs := []check{
		{"train.loss_decreased", fin.Loss < o.Warm.Loss && !math.IsNaN(fin.Loss),
			fmt.Sprintf("final %.6g vs warm-up %.6g", fin.Loss, o.Warm.Loss)},
		{"train.replicas_in_sync", o.Divergence == 0,
			fmt.Sprintf("max parameter divergence %g", o.Divergence)},
	}
	if o.Spec.Pipeline == core.PipelinePrefetch {
		cs = append(cs, check{"train.prefetch_equals_serial", sameFloats(o.OwnLosses, o.TwinLosses),
			fmt.Sprintf("prefetch %v vs serial %v", o.OwnLosses, o.TwinLosses)})
	}
	return cs
}

// sameFloats reports bitwise equality of two non-empty loss series.
func sameFloats(a, b []float64) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
