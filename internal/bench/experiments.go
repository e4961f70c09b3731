package bench

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/datagen"
	"repro/internal/drm"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/pipesim"
)

// bothModels is the evaluation's model set.
var bothModels = []gnn.Kind{gnn.GCN, gnn.SAGE}

// table2 reproduces the platform-specification table.
func table2() *Table {
	t := &Table{
		Title:  "Table II: Specifications of the platforms",
		Header: []string{"Platform", "Frequency(GHz)", "Peak(TFLOPS)", "On-chip(MB)", "MemBW(GB/s)"},
	}
	for _, d := range []hw.Device{hw.EPYC7763(), hw.A5000(), hw.U250()} {
		t.addRow(txt(d.Name), num(d.FreqGHz, "%.2f"), num(d.PeakTFLOPS, "%.1f"),
			num(d.OnChipMB, "%.0f"), num(d.MemBWGBs, "%.0f"))
	}
	return t
}

// table3 reproduces the dataset-statistics table.
func table3() *Table {
	t := &Table{
		Title:  "Table III: Statistics of the datasets and GNN-layer dimensions",
		Header: []string{"Dataset", "#Vertices", "#Edges", "f0", "f1", "f2", "TrainNodes"},
	}
	for _, s := range datagen.PaperSpecs() {
		t.addRow(txt(s.Name), num(float64(s.NumVertices), "%.0f"), num(float64(s.NumEdges), "%.0f"),
			num(float64(s.FeatDims[0]), "%.0f"), num(float64(s.FeatDims[1]), "%.0f"),
			num(float64(s.FeatDims[2]), "%.0f"), num(float64(s.TrainNodes), "%.0f"))
	}
	return t
}

// table4 reproduces the FPGA resource-utilization table for the published
// (n=8, m=2048) design point.
func table4() (*Table, error) {
	u, err := accel.EstimateUtilization(accel.KernelParallelism{N: 8, M: 2048}, accel.U250Resources())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table IV: Hardware parameters and resource utilization (n=8, m=2048)",
		Header: []string{"LUTs", "DSPs", "URAM", "BRAM"},
	}
	t.addRow(num(u.LUT*100, "%.0f%%"), num(u.DSP*100, "%.0f%%"),
		num(u.URAM*100, "%.0f%%"), num(u.BRAM*100, "%.0f%%"))
	return t, nil
}

// fig8 reproduces the predicted-vs-actual epoch-time comparison on
// MAG240M (homo) for both models, sweeping 1–4 FPGAs. "Predicted" is the
// analytic model (§V); "Actual" is the pipeline simulator, which charges the
// kernel-launch and pipeline-flush overheads §VI-C names as error sources.
func fig8(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "Fig. 8: Predicted vs actual epoch time, MAG240M (homo)",
		Header: []string{"Model", "FPGAs", "Predicted(s)", "Actual(s)", "Error(%)"},
	}
	for _, kind := range bothModels {
		for _, n := range []int{1, 2, 3, 4} {
			plat := hw.CPUFPGAPlatform().WithAccelCount(n)
			m, err := perfmodel.New(plat, perfmodel.DefaultWorkload(datagen.MAG240MHomo, kind))
			if err != nil {
				return nil, err
			}
			predicted := m.EpochTime(m.InitialAssignment(true))
			res, err := pipesim.Run(pipesim.Config{
				Model: m, Mode: pipesim.Mode{Hybrid: true, TFP: true}, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			errPct := math.Abs(res.EpochSec-predicted) / res.EpochSec * 100
			t.addRow(txt(kind.String()), num(float64(n), "%.0f"),
				num(predicted, "%.3f"), num(res.EpochSec, "%.3f"), num(errPct, "%.1f"))
		}
	}
	return t, nil
}

// fig9 reproduces the scalability study: normalized throughput speedup for
// 1–16 accelerators on the CPU-FPGA platform, per dataset and model,
// evaluated with the performance model exactly as the paper does (§VI-D).
func fig9() (*Table, error) {
	t := &Table{
		Title:  "Fig. 9: Scalability (normalized speedup vs 1 accelerator)",
		Header: []string{"Dataset", "Model", "x1", "x2", "x4", "x8", "x16"},
	}
	for _, spec := range datagen.PaperSpecs() {
		for _, kind := range bothModels {
			row := []Cell{txt(spec.Name), txt(kind.String())}
			var base float64
			for _, n := range []int{1, 2, 4, 8, 16} {
				plat := hw.CPUFPGAPlatform().WithAccelCount(n)
				m, err := perfmodel.New(plat, perfmodel.DefaultWorkload(spec, kind))
				if err != nil {
					return nil, err
				}
				// Accelerator-only assignment: the scalability question is how
				// the accelerator fleet scales; the CPU's fixed trainer slice
				// would otherwise mask the knee (the paper's own §VI-D study
				// attributes saturation purely to CPU memory bandwidth).
				mteps := m.ThroughputMTEPS(m.InitialAssignment(false))
				if n == 1 {
					base = mteps
				}
				row = append(row, num(mteps/base, "%.2f"))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// hyscaleEpoch runs HyScale's simulated epoch with every optimization on —
// hybrid training, TFP and DRM — on a platform under a software profile
// (TorchProfile for the CPU-GPU design, NativeProfile for CPU-FPGA).
func hyscaleEpoch(plat hw.Platform, work perfmodel.Workload, profile perfmodel.SoftwareProfile,
	seed uint64) (*pipesim.Result, error) {
	m, err := perfmodel.New(plat, work)
	if err != nil {
		return nil, err
	}
	m.Profile = profile
	return pipesim.Run(pipesim.Config{
		Model: m, Mode: pipesim.Mode{Hybrid: true, TFP: true, DRM: true},
		Ctrl: drm.New(plat.TotalCPUCores()), Seed: seed,
	})
}

// fig10 reproduces the cross-platform comparison: epoch time of the
// multi-GPU PyG baseline, HyScale CPU-GPU, and HyScale CPU-FPGA, with
// speedups normalized to the baseline.
func fig10(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "Fig. 10: Cross-platform comparison (epoch seconds; speedup vs multi-GPU)",
		Header: []string{"Dataset", "Model", "Multi-GPU(s)", "CPU+GPU(s)", "CPU+GPU(x)", "CPU+FPGA(s)", "CPU+FPGA(x)"},
	}
	for _, spec := range datagen.PaperSpecs() {
		for _, kind := range bothModels {
			w := perfmodel.DefaultWorkload(spec, kind)
			base, err := pygMultiGPU(hw.CPUGPUPlatform(), w)
			if err != nil {
				return nil, err
			}
			gpu, err := hyscaleEpoch(hw.CPUGPUPlatform(), w, perfmodel.TorchProfile(), seed)
			if err != nil {
				return nil, err
			}
			fpga, err := hyscaleEpoch(hw.CPUFPGAPlatform(), w, perfmodel.NativeProfile(), seed)
			if err != nil {
				return nil, err
			}
			t.addRow(txt(spec.Name), txt(kind.String()),
				num(base, "%.2f"), num(gpu.EpochSec, "%.2f"), num(base/gpu.EpochSec, "%.2fx"),
				num(fpga.EpochSec, "%.2f"), num(base/fpga.EpochSec, "%.2fx"))
		}
	}
	return t, nil
}

// table6Specs are the datasets of Table VI.
var table6Specs = []datagen.Spec{datagen.OGBNProducts, datagen.OGBNPapers100M}

// comparison is one row of Tables VI and VII: a comparator's epoch and
// HyScale's (4 FPGAs, one node) on the comparator's own configuration.
type comparison struct {
	spec         datagen.Spec
	kind         gnn.Kind
	theirs, ours float64
}

// comparisons runs every Table VI row, one slice per comparator in
// comparators() order.
func comparisons(seed uint64) ([][]comparison, error) {
	var out [][]comparison
	for _, c := range comparators() {
		var rows []comparison
		for _, spec := range table6Specs {
			for _, kind := range c.Models {
				w, err := comparatorWorkload(spec, kind, c.Fanouts, c.Hidden)
				if err != nil {
					return nil, err
				}
				theirs, err := c.Epoch(w)
				if err != nil {
					return nil, err
				}
				ours, err := hyscaleEpoch(hw.CPUFPGAPlatform(), w, perfmodel.NativeProfile(), seed)
				if err != nil {
					return nil, err
				}
				rows = append(rows, comparison{spec, kind, theirs, ours.EpochSec})
			}
		}
		out = append(out, rows)
	}
	return out, nil
}

// table6 reproduces the epoch-time comparison with the state of the art,
// with each comparator's geomean speedup on its last row.
func table6(seed uint64) (*Table, error) {
	all, err := comparisons(seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table VI: Epoch time (sec) comparison with state-of-the-art",
		Header: []string{"System", "Dataset", "Model", "Theirs(s)", "ThisWork(s)", "Speedup", "GeoMean"},
	}
	for ci, c := range comparators() {
		rows := all[ci]
		ratios := make([]float64, len(rows))
		for i, r := range rows {
			ratios[i] = r.theirs / r.ours
		}
		for i, r := range rows {
			geoCell := txt("")
			if i == len(rows)-1 {
				geoCell = num(geomean(ratios), "%.2fx")
			}
			t.addRow(txt(c.Name), txt(r.spec.Name), txt(r.kind.String()),
				num(r.theirs, "%.2f"), num(r.ours, "%.2f"), num(ratios[i], "%.2fx"), geoCell)
		}
	}
	return t, nil
}

// table7 is Table VI normalized by platform peak TFLOPS (sec × TFLOPS),
// the paper's system-efficiency comparison.
func table7(seed uint64) (*Table, error) {
	all, err := comparisons(seed)
	if err != nil {
		return nil, err
	}
	oursTFLOPS := hw.CPUFPGAPlatform().TotalTFLOPS()
	t := &Table{
		Title:  "Table VII: Normalized epoch time (sec x TFLOPS) comparison",
		Header: []string{"System", "Dataset", "Model", "Theirs", "ThisWork", "Speedup"},
	}
	for ci, c := range comparators() {
		for _, r := range all[ci] {
			theirs, ours := r.theirs*c.TFLOPS, r.ours*oursTFLOPS
			t.addRow(txt(c.Name), txt(r.spec.Name), txt(r.kind.String()),
				num(theirs, "%.1f"), num(ours, "%.1f"), num(theirs/ours, "%.1fx"))
		}
	}
	return t, nil
}

// fig11 reproduces the ablation study on the CPU-FPGA platform: Baseline
// (accelerator-only, fused prefetch), Hybrid with the static design-time
// mapping, Hybrid+DRM, and Hybrid+DRM+TFP. Values are speedups normalized
// to the baseline.
func fig11(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "Fig. 11: Impact of optimizations (speedup vs baseline)",
		Header: []string{"Dataset", "Model", "Baseline", "Hybrid(Static)", "Hybrid+DRM", "Hybrid+DRM+TFP"},
	}
	plat := hw.CPUFPGAPlatform()
	for _, spec := range datagen.PaperSpecs() {
		for _, kind := range bothModels {
			m, err := perfmodel.New(plat, perfmodel.DefaultWorkload(spec, kind))
			if err != nil {
				return nil, err
			}
			run := func(mode pipesim.Mode) (float64, error) {
				var ctrl pipesim.Controller
				if mode.DRM {
					eng := drm.New(plat.TotalCPUCores())
					eng.FusedPrefetch = !mode.TFP
					ctrl = eng
				}
				res, err := pipesim.Run(pipesim.Config{Model: m, Mode: mode, Ctrl: ctrl, Seed: seed})
				if err != nil {
					return 0, err
				}
				return res.EpochSec, nil
			}
			base, err := run(pipesim.Mode{Hybrid: false})
			if err != nil {
				return nil, err
			}
			static, err := run(pipesim.Mode{Hybrid: true})
			if err != nil {
				return nil, err
			}
			withDRM, err := run(pipesim.Mode{Hybrid: true, DRM: true})
			if err != nil {
				return nil, err
			}
			full, err := run(pipesim.Mode{Hybrid: true, DRM: true, TFP: true})
			if err != nil {
				return nil, err
			}
			t.addRow(txt(spec.Name), txt(kind.String()), num(1.0, "%.2fx"),
				num(base/static, "%.2fx"), num(base/withDRM, "%.2fx"), num(base/full, "%.2fx"))
		}
	}
	return t, nil
}

func geomean(xs []float64) float64 {
	p := 1.0
	for _, x := range xs {
		p *= x
	}
	return math.Pow(p, 1/float64(len(xs)))
}

// experiments is the registry every entry point derives from: the paper's
// artifacts in paper order, then the extensions.
var experiments = []struct {
	name string
	run  func(seed uint64) (*Table, error)
}{
	{"table2", func(uint64) (*Table, error) { return table2(), nil }},
	{"table3", func(uint64) (*Table, error) { return table3(), nil }},
	{"table4", func(uint64) (*Table, error) { return table4() }},
	{"fig8", fig8},
	{"fig9", func(uint64) (*Table, error) { return fig9() }},
	{"fig10", fig10},
	{"table6", table6},
	{"table7", table7},
	{"fig11", fig11},
	{"throughput", throughput},
	{"ext-cluster", func(uint64) (*Table, error) { return extCluster() }},
	{"ext-multinode", extMultiNodeExec},
	{"ext-hetero", extHetero},
	{"ext-serve", extServe},
	{"ext-serve-hetero", extServeHetero},
	{"ext-serve-slo", extServeSLO},
	{"ext-serve-fault", extServeFault},
}

// All runs every experiment and returns the tables in Names() order.
func All(seed uint64) ([]*Table, error) {
	tables := make([]*Table, 0, len(experiments))
	for _, e := range experiments {
		t, err := e.run(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// ByName returns a single experiment's table by its short identifier.
func ByName(name string, seed uint64) (*Table, error) {
	for _, e := range experiments {
		if e.name == name {
			return e.run(seed)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (see Names())", name)
}

// Names lists all experiment identifiers in registry order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}
