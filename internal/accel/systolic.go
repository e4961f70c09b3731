package accel

import (
	"fmt"

	"repro/internal/tensor"
)

// SystolicConfig describes the update-stage MLP kernel: a systolic array of
// m multiply-accumulate units (paper Table IV uses m = 2048) running at the
// device clock.
type SystolicConfig struct {
	NumMACs  int     // m
	FreqGHz  float64 // operating frequency (0.3 GHz on the U250)
	FillCost int     // pipeline fill/drain cycles per invocation
}

// Validate checks the configuration.
func (c SystolicConfig) Validate() error {
	if c.NumMACs <= 0 || c.FreqGHz <= 0 || c.FillCost < 0 {
		return fmt.Errorf("accel: bad systolic config %+v", c)
	}
	return nil
}

// SystolicResult reports one MLP invocation.
type SystolicResult struct {
	MACs   int64 // multiply-accumulates performed
	Cycles int64
	Sec    float64
}

// cycles is the array's cost of one invocation of macs multiply-accumulates:
// MACs/m sustained throughput (rounded up) plus the fill cost.
func (c SystolicConfig) cycles(macs int64) int64 {
	m := int64(c.NumMACs)
	return (macs+m-1)/m + int64(c.FillCost)
}

// RunSystolic computes out = in·w + bias functionally (bias may be nil) and
// returns the cycle estimate: MACs/m sustained throughput plus fill cost —
// the paper's Eq. 12 with an explicit pipeline-flush term (§VI-C names
// pipeline flushing as a model-error source, so the simulator charges it and
// the analytic model does not).
func RunSystolic(cfg SystolicConfig, out, in, w, bias *tensor.Matrix) (SystolicResult, error) {
	if err := cfg.Validate(); err != nil {
		return SystolicResult{}, err
	}
	tensor.MatMul(out, in, w)
	if bias != nil {
		tensor.AddBias(out, bias)
	}
	macs := int64(in.Rows) * int64(in.Cols) * int64(w.Cols)
	cycles := cfg.cycles(macs)
	return SystolicResult{
		MACs:   macs,
		Cycles: cycles,
		Sec:    float64(cycles) / (cfg.FreqGHz * 1e9),
	}, nil
}

// UpdateTimeSec is the analytic form (paper Eq. 12): |V|·f_in·f_out MACs at
// N MAC units × frequency, with no fill term.
func UpdateTimeSec(vertices, fin, fout int, numMACs int, freqGHz float64) float64 {
	macs := float64(vertices) * float64(fin) * float64(fout)
	return macs / (float64(numMACs) * freqGHz * 1e9)
}
