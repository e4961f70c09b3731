package bench

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow(Txt("x"), Num(1.5, "%.2f"))
	s := tb.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "1.50") {
		t.Fatalf("render: %q", s)
	}
}

func TestTableLookup(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"k", "v"}}
	tb.AddRow(Txt("a"), Num(7, "%.0f"))
	tb.AddRow(Txt("b"), Num(9, "%.0f"))
	if v, ok := tb.Lookup(1, "b"); !ok || v != 9 {
		t.Fatalf("Lookup = %v %v", v, ok)
	}
	if _, ok := tb.Lookup(1, "zzz"); ok {
		t.Fatal("Lookup matched missing row")
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "b"}}
	tb.AddRow(Txt("x,y"), Num(2, "%.1f"))
	csv := tb.CSV()
	if csv != "a,b\nx;y,2.0\n" {
		t.Fatalf("CSV = %q", csv)
	}
}

func TestThroughputPositiveAndFPGAWins(t *testing.T) {
	tb, err := Throughput(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		gpu, fpga := row[2].Value, row[3].Value
		if gpu <= 0 || fpga <= 0 {
			t.Fatalf("non-positive throughput: %v %v", gpu, fpga)
		}
		if fpga <= gpu {
			t.Fatalf("%s/%s: CPU+FPGA MTEPS %v not above CPU+GPU %v",
				row[0].render(), row[1].render(), fpga, gpu)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, n := range Names() {
		if _, err := ByName(n, 1); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestAllRunsEveryRegisteredExperiment pins All to the registry: one table
// per Names() entry, in that order, none of them a duplicate or untitled.
func TestAllRunsEveryRegisteredExperiment(t *testing.T) {
	names := Names()
	tables, err := All(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(names) {
		t.Fatalf("All returned %d tables for %d names", len(tables), len(names))
	}
	seen := map[string]string{}
	for i, tb := range tables {
		want, err := ByName(names[i], 1)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if tb.Title == "" || tb.Title != want.Title {
			t.Fatalf("table %d has title %q, want %s's %q", i, tb.Title, names[i], want.Title)
		}
		if prev, dup := seen[tb.Title]; dup {
			t.Fatalf("%s and %s share the title %q", prev, names[i], tb.Title)
		}
		seen[tb.Title] = names[i]
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if v, ok := tb.Lookup(2, "NVIDIA RTX A5000"); !ok || v != 27.8 {
		t.Fatalf("A5000 peak = %v", v)
	}
	if v, ok := tb.Lookup(4, "Xilinx Alveo U250"); !ok || v != 77 {
		t.Fatalf("U250 BW = %v", v)
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	tb := Table3()
	if v, ok := tb.Lookup(2, "ogbn-papers100M"); !ok || v != 1_615_685_872 {
		t.Fatalf("papers100M edges = %v", v)
	}
	if v, ok := tb.Lookup(3, "MAG240M(homo)"); !ok || v != 756 {
		t.Fatalf("MAG240M f0 = %v", v)
	}
}

func TestTable4InPaperBand(t *testing.T) {
	tb, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{72, 90, 48, 40}
	for i, w := range want {
		got := tb.Rows[0][i].Value
		if got < w-2 || got > w+2 {
			t.Fatalf("col %d: %.0f%%, paper %v%%", i, got, w)
		}
	}
}

// Fig. 8: the paper reports 5–14% average model error. Accept a slightly
// wider band (2–20%) per design-point since our overhead constants are
// calibrated, not measured.
func TestFig8ErrorBand(t *testing.T) {
	tb, err := Fig8(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var sum float64
	for _, row := range tb.Rows {
		e := row[4].Value
		if e < 0 || e > 20 {
			t.Fatalf("model error %.1f%% outside [0,20]", e)
		}
		sum += e
		// Actual (simulated) must not be faster than predicted: the
		// simulator only adds overheads.
		if row[3].Value < row[2].Value {
			t.Fatalf("actual %v < predicted %v", row[3].Value, row[2].Value)
		}
	}
	mean := sum / float64(len(tb.Rows))
	if mean < 2 || mean > 15 {
		t.Fatalf("mean model error %.1f%% outside the paper's regime (5–14%%)", mean)
	}
}

// Fig. 9: near-linear to 8 accelerators, saturated by 16 (the paper's CPU
// memory-bandwidth knee at ~12).
func TestFig9Shape(t *testing.T) {
	tb, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		x2, x8, x16 := row[3].Value, row[5].Value, row[6].Value
		if x2 < 1.8 {
			t.Fatalf("%s/%s: x2 = %v, not near-linear", row[0].render(), row[1].render(), x2)
		}
		if x8 < 6.5 {
			t.Fatalf("%s/%s: x8 = %v, not near-linear", row[0].render(), row[1].render(), x8)
		}
		if x16 > 14 {
			t.Fatalf("%s/%s: x16 = %v, no saturation knee", row[0].render(), row[1].render(), x16)
		}
		if x16 < x8 {
			t.Fatalf("%s/%s: throughput regressed at 16", row[0].render(), row[1].render())
		}
	}
}

// Fig. 10: CPU+GPU speedup in the 1.2–4x band (paper: 1.45–2.08), CPU+FPGA
// in the 6–30x band (paper: 8.87–12.6), FPGA always fastest.
func TestFig10Shape(t *testing.T) {
	tb, err := Fig10(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		gpuX, fpgaX := row[4].Value, row[6].Value
		if gpuX < 1.2 || gpuX > 4 {
			t.Fatalf("CPU+GPU speedup %v outside regime", gpuX)
		}
		if fpgaX < 6 || fpgaX > 30 {
			t.Fatalf("CPU+FPGA speedup %v outside regime", fpgaX)
		}
		if fpgaX <= gpuX {
			t.Fatal("CPU+FPGA must beat CPU+GPU")
		}
	}
}

// Table VI: HyScale beats PaGraph and P3, loses to DistDGLv2 (paper: 1.76x,
// 4.57x, 0.45x geomeans).
func TestTable6Geomeans(t *testing.T) {
	tb, err := Table6(1)
	if err != nil {
		t.Fatal(err)
	}
	geos := map[string]float64{}
	for _, row := range tb.Rows {
		if row[6].Fmt != "" { // geomean cell present
			geos[row[0].render()] = row[6].Value
		}
	}
	if geos["PaGraph"] <= 1 {
		t.Fatalf("PaGraph geomean %v — paper has HyScale winning (1.76x)", geos["PaGraph"])
	}
	if geos["P3"] <= 1 {
		t.Fatalf("P3 geomean %v — paper has HyScale winning (4.57x)", geos["P3"])
	}
	if geos["DistDGLv2"] >= 1 {
		t.Fatalf("DistDGLv2 geomean %v — paper has HyScale losing (0.45x)", geos["DistDGLv2"])
	}
}

// Table VII: after TFLOPS normalization HyScale wins every row (paper:
// 21–71x geomeans).
func TestTable7AllWins(t *testing.T) {
	tb, err := Table7(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[5].Value <= 1 {
			t.Fatalf("%s %s %s: normalized speedup %v — paper has HyScale winning all",
				row[0].render(), row[1].render(), row[2].render(), row[5].Value)
		}
	}
}

// Extension: quantization must never hurt, must clearly help at least one
// transfer-bound workload, and must be a no-op where propagation dominates —
// the exact selectivity the paper's §VIII limitation analysis predicts.
func TestExtQuantSelectivity(t *testing.T) {
	tb, err := ExtQuant(1)
	if err != nil {
		t.Fatal(err)
	}
	var maxGain, minGain = 0.0, 99.0
	for _, row := range tb.Rows {
		g := row[4].Value
		if g < 0.97 {
			t.Fatalf("%s/%s: quantization hurt (%vx)", row[0].render(), row[1].render(), g)
		}
		if g > maxGain {
			maxGain = g
		}
		if g < minGain {
			minGain = g
		}
	}
	if maxGain < 1.3 {
		t.Fatalf("no transfer-bound workload benefited (max %vx)", maxGain)
	}
	if minGain > 1.15 {
		t.Fatalf("quantization helped everywhere (min %vx) — selectivity lost", minGain)
	}
}

// Extension: multi-node scaling must be monotone and sub-linear.
func TestExtClusterShape(t *testing.T) {
	tb, err := ExtCluster()
	if err != nil {
		t.Fatal(err)
	}
	var prevNodes, prevSpeed float64
	for _, row := range tb.Rows {
		nodes, speed := row[1].Value, row[3].Value
		if nodes == 1 {
			if speed != 1 {
				t.Fatal("1-node speedup must be 1")
			}
		} else if nodes > prevNodes {
			if speed <= prevSpeed {
				t.Fatalf("speedup regressed at %v nodes", nodes)
			}
			if speed >= nodes {
				t.Fatalf("super-linear scaling (%vx at %v nodes) despite edge cut", speed, nodes)
			}
		}
		prevNodes, prevSpeed = nodes, speed
	}
}

// Extension: with a fixed device budget, the hybrid CPU+GPU+FPGA fleet must
// beat every homogeneous configuration of the same budget, and DRM must
// narrow the per-device busy-time imbalance from a naive uniform split.
func TestExtHeteroHybridWins(t *testing.T) {
	tb, err := ExtHetero(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 { // 3 fleets × 2 models
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, model := range []string{"GCN", "GraphSAGE"} {
		allG, ok1 := tb.Lookup(2, model, "16xGPU")
		allF, ok2 := tb.Lookup(2, model, "16xFPGA")
		hybrid, ok3 := tb.Lookup(2, model, "1xGPU+15xFPGA")
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("%s: missing fleet rows", model)
		}
		if hybrid >= allF || hybrid >= allG {
			t.Fatalf("%s: hybrid %.3fs not strictly faster than homogeneous (GPU %.3fs, FPGA %.3fs)",
				model, hybrid, allG, allF)
		}
		// The mixed fleet starts heavily imbalanced under a uniform split
		// (a GPU and an FPGA are nothing alike) and DRM must close most of
		// the gap.
		start, _ := tb.Lookup(4, model, "1xGPU+15xFPGA")
		end, _ := tb.Lookup(5, model, "1xGPU+15xFPGA")
		if start < 1.2 {
			t.Fatalf("%s: uniform split starts balanced (ratio %.2f) — premise broken", model, start)
		}
		if end >= start {
			t.Fatalf("%s: DRM did not narrow the imbalance: %.2f -> %.2f", model, start, end)
		}
		if end > 1.2 {
			t.Fatalf("%s: unequal devices did not converge (end ratio %.2f)", model, end)
		}
	}
}

// Fig. 11: each optimization must add on top of the previous one, and the
// magnitudes must stay in the paper's regime (hybrid ≤ ~1.3, full ≤ ~2.2).
func TestFig11Ordering(t *testing.T) {
	tb, err := Fig11(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		static, withDRM, full := row[3].Value, row[4].Value, row[5].Value
		label := row[0].render() + "/" + row[1].render()
		if static < 1.0 {
			t.Fatalf("%s: hybrid static %v below baseline", label, static)
		}
		if withDRM < static*0.98 {
			t.Fatalf("%s: DRM %v worse than static %v", label, withDRM, static)
		}
		if full < withDRM*0.98 {
			t.Fatalf("%s: TFP %v worse than DRM %v", label, full, withDRM)
		}
		if static > 1.5 || full > 2.3 {
			t.Fatalf("%s: speedups (%v, %v) outside the paper's regime", label, static, full)
		}
	}
}
