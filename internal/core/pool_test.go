package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gnn"
	"repro/internal/hw"
)

// paramsHash is an FNV-1a digest of every parameter's little-endian bits.
func paramsHash(p *gnn.Parameters) uint64 {
	h := fnv.New64a()
	for l := range p.Weights {
		binary.Write(h, binary.LittleEndian, p.Weights[l].Data)
		binary.Write(h, binary.LittleEndian, p.Biases[l].Data)
	}
	return h.Sum64()
}

// poolSig trains three epochs of the five-trainer CPU+FPGA fleet with DRM on
// at the given GOMAXPROCS — the trainer pool's width — and renders per-epoch
// loss, accuracy and virtual time as hex floats, then the parameter digest.
func poolSig(t *testing.T, procs int) string {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	cfg := baseConfig(t) // DRM on
	cfg.Plat = hw.CPUFPGAPlatform()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := e.Assignment()
	var b strings.Builder
	for ep := 1; ep <= 3; ep++ {
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "epoch%d loss=%s acc=%s vsec=%s\n", ep, hexf(st.Loss), hexf(st.Accuracy), hexf(st.VirtualSec))
	}
	if sameAssignment(e.Assignment(), start) {
		t.Fatal("DRM never moved: the shares the pool balances stayed equal")
	}
	fmt.Fprintf(&b, "params=%016x\n", paramsHash(e.Params()))
	return b.String()
}

// goldenTrainerPool was recorded when every trainer still ran on a goroutine
// of its own, stepped a replica of its own and averaged through a
// mutex/condition-variable synchronizer, and is held across the move to a pool
// of min(GOMAXPROCS, trainers) workers folding in rank order into one SGD
// step on one parameter set. Re-recorded when every c += a·b became one
// fused multiply-add at every SIMD level: only loss= and params= moved.
const goldenTrainerPool = "epoch1 loss=0x1.ab95d4da36bcep+00 acc=0x1.40da740da740ep-02 vsec=0x1.1d11ca5ffd8efp-08\n" +
	"epoch2 loss=0x1.c58ee81b36bp-01 acc=0x1.86d3a06d3a06dp-01 vsec=0x1.041053afa1a65p-08\n" +
	"epoch3 loss=0x1.168e683b699edp-01 acc=0x1.c0da740da740ep-01 vsec=0x1.03fd125ab7bb4p-08\n" +
	"params=1a59bd7a84bdfbc5\n"

// labelCutter truncates the labels of the victims' mini-batches after
// prepare, so exactly those trainers' steps fail (victim i loses i labels).
type labelCutter struct {
	*hybridExecutor
	victims []int
}

func (x labelCutter) prepare(s *iterSlot, targets []int32) error {
	if err := x.hybridExecutor.prepare(s, targets); err != nil {
		return err
	}
	for _, i := range x.victims {
		mb := s.mbs[i]
		mb.Labels = mb.Labels[:len(mb.Labels)-i]
	}
	return nil
}

// TestTrainerPoolBitIdentical pins the trainer pool: the trajectory does not
// depend on how many workers share the fleet's steps — one (every step inline
// on the caller), two (narrower than the fleet) or four — and equals the one
// recorded before the pool. A failing step makes compute return the first
// failing trainer's error in index order, after the round joins, with the
// parameters unstepped.
func TestTrainerPoolBitIdentical(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			if got := poolSig(t, procs); got != goldenTrainerPool {
				t.Errorf("trajectory drifted from the recorded golden:\ngot:\n%swant:\n%s", got, goldenTrainerPool)
			}
		})
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("error/GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			cfg := baseConfig(t)
			cfg.Plat = hw.CPUFPGAPlatform()
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := paramsHash(e.Params())
			x := labelCutter{e.exec.(*hybridExecutor), []int{2, 4}}
			e.exec = x
			done := make(chan error, 1)
			go func() {
				_, err := e.RunEpoch()
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(time.Minute):
				t.Fatal("RunEpoch hung on a failing trainer")
			}
			n := len(e.slot(0).mbs[2].Targets)
			if want := fmt.Sprintf("gnn: %d labels for %d targets", n-2, n); err == nil || err.Error() != want {
				t.Fatalf("RunEpoch returned %v, want trainer 2's error %q", err, want)
			}
			if paramsHash(e.Params()) != before {
				t.Fatal("the parameters were stepped by a failed round")
			}
		})
	}
}
