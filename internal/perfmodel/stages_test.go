package perfmodel

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
)

// goldenStagesDigest is the SHA-256 of every StageTimes field Stages returns,
// rendered as hex floats, over the generated grid below. Recorded on the
// commit before Stages absorbed its per-assignment helpers (SamplingTimeCPU,
// LoadTime, TransferTime, TrainTimeCPU, TrainTimeAccel, AccelStages, …), so
// it pins that fold — and any later edit of Stages — bit for bit.
const goldenStagesDigest = "aa3b6f9f445c0086bbf394bcf4de6ba4b4402305a195709771d5b2fae1afbb35"

// TestStagesDigest hashes Stages over platforms × software profiles ×
// workloads × a grid of assignments that reaches every edge Stages handles:
// no accelerator share at all, all-zero shares, one idle device, a negative
// share, fewer and more AccelBatch entries than devices, a CPU-only mapping,
// AccelSampleFrac below 0 and above 1, and zero threads.
func TestStagesDigest(t *testing.T) {
	hetero, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	points := 0
	for _, plat := range []hw.Platform{hw.CPUGPUPlatform(), hw.CPUFPGAPlatform(), hetero} {
		nAcc := len(plat.Accels)
		shareShapes := [][]int{nil, make([]int, nAcc), make([]int, nAcc), make([]int, nAcc),
			make([]int, nAcc-1), make([]int, nAcc+2), make([]int, nAcc)}
		for i := 0; i < nAcc; i++ {
			shareShapes[2][i] = 1024
			shareShapes[3][i] = 384 * i // device 0 idle, the rest unequal
			shareShapes[6][i] = 512*i - 64
		}
		for i := range shareShapes[4] {
			shareShapes[4][i] = 700 + 100*i
		}
		for i := range shareShapes[5] {
			shareShapes[5][i] = 256 * (i + 1) // the last two have no device
		}
		for _, work := range []Workload{
			DefaultWorkload(datagen.OGBNProducts, gnn.SAGE),
			DefaultWorkload(datagen.OGBNPapers100M, gnn.GCN),
		} {
			for _, profile := range []SoftwareProfile{NativeProfile(), TorchProfile()} {
				m, err := New(plat, work)
				if err != nil {
					t.Fatal(err)
				}
				m.Profile = profile
				for _, cpuBatch := range []int{0, 300, 1024} {
					for _, shares := range shareShapes {
						for _, frac := range []float64{-0.5, 0, 0.3, 1, 1.7} {
							for _, threads := range [][3]int{{0, 0, 0}, {16, 16, 32}, {8, 40, 16}} {
								st := m.Stages(Assignment{
									CPUBatch: cpuBatch, AccelBatch: shares,
									SampThreads: threads[0], LoadThreads: threads[1], TrainThreads: threads[2],
									AccelSampleFrac: frac,
								})
								fmt.Fprintf(h, "%x %x %x %x %x %x %x %x %x %d",
									st.SampCPU, st.SampAccel, st.Load, st.Trans, st.TrainCPU, st.TrainAcc,
									st.Sync, st.NetFetch, st.NetSync, len(st.PerAccel))
								for _, d := range st.PerAccel {
									fmt.Fprintf(h, " %x %x", d.Trans, d.Train)
								}
								fmt.Fprintln(h)
								points++
							}
						}
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenStagesDigest {
		t.Fatalf("Stages drifted over %d grid points: digest %s, recorded %s", points, got, goldenStagesDigest)
	}
}
