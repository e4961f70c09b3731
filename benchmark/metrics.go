package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Clocks. Every metric names the clock it is read on: wall is host time,
// cpu is process user+sys seconds (getrusage), virt is the modelled node's
// virtual clock (repeats exactly for a seed), count is an exact counter and
// none marks a quantity that is not a time (loss, heap).
const (
	clockWall  = "wall"
	clockCPU   = "cpu"
	clockVirt  = "virt"
	clockCount = "count"
	clockNone  = "none"
)

// metricDef declares one metric. BENCHMARK.json repeats name, unit and
// better (and adds the regression bound); the package test keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string
	// Exact marks metrics that must repeat bit for bit for one seed on one
	// machine: every virt and count metric, plus the loss.
	Exact bool
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", clockWall, false},
	{"train_wall_targets_per_s", "1/s", "higher", clockWall, false},
	{"train_cpu_us_per_target", "us", "lower", clockCPU, false},
	{"train_virt_mteps", "MTEPS", "higher", clockVirt, true},
	{"train_final_loss", "nats", "lower", clockNone, true},
	{"train_model_err_pct", "%", "lower", clockVirt, true},
	{"serve_wall_req_per_s", "1/s", "higher", clockWall, false},
	{"serve_cpu_us_per_req", "us", "lower", clockCPU, false},
	{"serve_virt_mean_ms", "ms", "lower", clockVirt, true},
	{"serve_virt_p99_ms", "ms", "lower", clockVirt, true},
	{"serve_virt_goodput_rps", "1/s", "higher", clockVirt, true},
	{"serve_virt_slo_rate_rps", "1/s", "higher", clockVirt, true},
	{"live_heap_mb", "MB", "lower", clockNone, false},
}

// perLayer are the metrics a traced run reports, grouped by the module they
// are measured in. A metric that does not apply to a workload (accel.* with
// no FPGA trainer, cluster.* on one node, core.overlap_ratio without the
// prefetch pipeline) reads 0 there.
var perLayer = []metricDef{
	{"tensor.matmul_ms_per_iter", "ms", "lower", clockWall, false},
	{"tensor.matmul_gflops", "GFLOP/s", "higher", clockWall, false},
	{"tensor.gather_ms_per_iter", "ms", "lower", clockWall, false},
	{"tensor.gather_gbs", "GB/s", "higher", clockWall, false},

	{"gnn.trainstep_ms_per_iter", "ms", "lower", clockWall, false},
	{"gnn.aggregate_ms_per_iter", "ms", "lower", clockWall, false},
	{"gnn.aggregate_gbs", "GB/s", "higher", clockWall, false},
	{"gnn.trainstep_allocs", "count", "lower", clockCount, false},
	{"gnn.infer_us_per_batch", "us", "lower", clockWall, false},

	{"sampler.sample_ms_per_iter", "ms", "lower", clockWall, false},
	{"sampler.medges_per_s", "M/s", "higher", clockWall, false},
	{"sampler.edges_per_iter", "count", "lower", clockCount, true},
	{"sampler.input_rows_per_iter", "count", "lower", clockCount, true},
	{"sampler.allocs_per_sample", "count", "lower", clockCount, false},

	{"accel.forward_ms_per_iter", "ms", "lower", clockWall, false},
	{"accel.host_ns_per_cycle", "ns", "lower", clockWall, false},
	{"accel.agg_cycles_per_iter", "count", "lower", clockCount, true},
	{"accel.update_cycles_per_iter", "count", "lower", clockCount, true},
	{"accel.traffic_mb_per_iter", "MB", "lower", clockCount, true},

	{"core.epoch_wall_ms", "ms", "lower", clockWall, false},
	{"core.iters_per_epoch", "count", "lower", clockCount, true},
	{"core.allocs_per_iter", "count", "lower", clockCount, false},
	{"core.explained_frac", "ratio", "higher", clockWall, false},
	{"core.prepare_share", "ratio", "lower", clockWall, false},
	{"core.overlap_ratio", "ratio", "higher", clockWall, false},
	{"core.replica_divergence", "abs", "lower", clockCount, true},
	{"core.runbatch_us", "us", "lower", clockWall, false},
	{"core.runbatch_allocs", "count", "lower", clockCount, false},
	{"core.trace_overhead_frac", "ratio", "lower", clockWall, false},

	{"drm.adjust_ns", "ns", "lower", clockWall, false},
	{"drm.adjust_allocs", "count", "lower", clockCount, false},
	{"drm.assignment_changes", "count", "lower", clockCount, true},
	{"drm.cpu_batch_final", "count", "higher", clockCount, true},

	{"perfmodel.stage_sample_ms", "ms", "lower", clockVirt, true},
	{"perfmodel.stage_load_ms", "ms", "lower", clockVirt, true},
	{"perfmodel.stage_transfer_ms", "ms", "lower", clockVirt, true},
	{"perfmodel.stage_train_ms", "ms", "lower", clockVirt, true},
	{"perfmodel.stage_sync_ms", "ms", "lower", clockVirt, true},
	{"perfmodel.bottleneck_ms", "ms", "lower", clockVirt, true},
	{"perfmodel.serve_service_err_pct", "%", "lower", clockVirt, true},
	{"pipesim.epoch_err_pct", "%", "lower", clockVirt, true},

	{"cluster.epoch_wall_ms", "ms", "lower", clockWall, false},
	{"cluster.virt_net_sync_ms", "ms", "lower", clockVirt, true},
	{"cluster.virt_net_fetch_ms", "ms", "lower", clockVirt, true},
	{"cluster.virt_net_frac", "ratio", "lower", clockVirt, true},
	{"cluster.remote_rows_per_epoch", "count", "lower", clockCount, true},
	{"cluster.edge_cut_frac", "ratio", "lower", clockCount, true},
	{"cluster.allocs_per_round", "count", "lower", clockCount, false},
	{"graph.partition_s", "s", "lower", clockWall, false},
	{"datagen.materialize_s", "s", "lower", clockWall, false},

	{"serve.cache_hit_rate", "ratio", "higher", clockCount, true},
	{"serve.cache_evictions_per_kreq", "count", "lower", clockCount, true},
	{"serve.cache_get_ns", "ns", "lower", clockWall, false},
	{"serve.cache_put_ns", "ns", "lower", clockWall, false},
	{"serve.batch_mean_size", "count", "higher", clockCount, true},
	{"serve.batcher_add_ns", "ns", "lower", clockWall, false},
	{"serve.rejected_frac", "ratio", "lower", clockCount, true},
	{"serve.shed_frac", "ratio", "lower", clockCount, true},
	{"serve.deadline_miss_frac", "ratio", "lower", clockCount, true},
	{"serve.jain_fairness", "ratio", "higher", clockCount, true},
	{"serve.route_regret_ms", "ms", "lower", clockVirt, true},
	{"serve.util_max", "ratio", "lower", clockVirt, true},
	{"serve.util_min", "ratio", "higher", clockVirt, true},
	{"serve.retries_per_kreq", "count", "lower", clockCount, true},
	{"serve.recovery_ms", "ms", "lower", clockVirt, true},
	{"serve.virt_p50_ms", "ms", "lower", clockVirt, true},
	{"serve.virt_mean_service_ms", "ms", "lower", clockVirt, true},
	{"serve.loop_ns_per_req", "ns", "lower", clockWall, false},
	{"serve.explained_frac", "ratio", "higher", clockWall, false},
	{"serve.allocs_per_req", "count", "lower", clockCount, false},
	{"serve.trace_overhead_frac", "ratio", "lower", clockWall, false},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
}

// metricSet collects values against a declaration list and refuses names
// that were not declared or are reported twice.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]metric, len(defs))}
	for _, d := range defs {
		s.defs[d.Name] = d
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	d, ok := s.defs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	if _, dup := s.vals[name]; dup {
		panic("benchmark: metric " + name + " reported twice")
	}
	s.vals[name] = metric{Value: v, Unit: d.Unit, Clock: d.Clock}
}

// notApplicable reports 0 for every declared, still unset metric whose name
// starts with one of the prefixes: the layer is not part of this workload.
func (s *metricSet) notApplicable(prefixes ...string) {
	for name := range s.defs {
		if _, done := s.vals[name]; done {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				s.set(name, 0)
				break
			}
		}
	}
}

// complete reports every declared metric that has no finite value yet.
func (s *metricSet) complete() error {
	var missing []string
	for name := range s.defs {
		if m, ok := s.vals[name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	return fmt.Errorf("metrics missing or not finite: %v", missing)
}

// timing summarises the samples behind one wall-clock figure.
type timing struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func summarize(samples []float64) timing {
	if len(samples) == 0 {
		return timing{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return timing{N: len(s), Min: s[0], Median: median(s), Max: s[len(s)-1]}
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartile of an ascending slice of at
// least two values, by the rule of Python's statistics.quantiles(v, n=4) —
// the one the driver applies to the benchmark's spreads.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func medianOf(samples []float64) float64 { return summarize(samples).Median }

func pctErr(predicted, executed float64) float64 {
	if executed == 0 {
		return 0
	}
	return 100 * math.Abs(predicted-executed) / executed
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
