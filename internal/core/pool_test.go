package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
)

// poolSig trains three epochs of the five-trainer CPU+FPGA fleet with DRM on
// at the given GOMAXPROCS — the trainer pool's width — and renders per-epoch
// loss, accuracy and virtual time as hex floats, then replica 0's parameter
// digest.
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
	var b strings.Builder
	for ep := 1; ep <= 3; ep++ {
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "epoch%d loss=%s acc=%s vsec=%s\n", ep, hexf(st.Loss), hexf(st.Accuracy), hexf(st.VirtualSec))
	}
	if e.drmEng.MovesWork+e.drmEng.MovesThread == 0 {
		t.Fatal("DRM never moved: the shares the pool balances stayed equal")
	}
	fmt.Fprintf(&b, "params=%016x\n", paramsHash(e.Params()))
	return b.String()
}

// goldenTrainerPool was recorded when every trainer still ran on a goroutine
// of its own and averaged through optim.Synchronizer, and is held across the
// move to a pool of min(GOMAXPROCS, trainers) workers folding in rank order.
const goldenTrainerPool = "epoch1 loss=0x1.ab95d4e4f30cep+00 acc=0x1.40da740da740ep-02 vsec=0x1.1d11ca5ffd8efp-08\n" +
	"epoch2 loss=0x1.c58ee7e83873cp-01 acc=0x1.86d3a06d3a06dp-01 vsec=0x1.041053afa1a65p-08\n" +
	"epoch3 loss=0x1.168e6813c5dd8p-01 acc=0x1.c0da740da740ep-01 vsec=0x1.03fd125ab7bb4p-08\n" +
	"params=718160d2c0f9bf70\n"

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
		mb := s.batches[i]
		mb.Labels = mb.Labels[:len(mb.Labels)-i]
	}
	return nil
}

// TestTrainerPoolBitIdentical pins the trainer pool: the trajectory does not
// depend on how many workers share the fleet's steps — one (every step inline
// on the caller), two (narrower than the fleet) or four — and equals the one
// recorded before the pool. A failing step makes compute return the first
// failing trainer's error in index order, after the round joins, with no
// replica stepped.
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
			before := make([]uint64, len(e.replicas))
			for i, r := range e.replicas {
				before[i] = paramsHash(r.Params)
			}
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
			n := len(e.slot(0).batches[2].Targets)
			if want := fmt.Sprintf("gnn: %d labels for %d targets", n-2, n); err == nil || err.Error() != want {
				t.Fatalf("RunEpoch returned %v, want trainer 2's error %q", err, want)
			}
			for i, r := range e.replicas {
				if paramsHash(r.Params) != before[i] {
					t.Fatalf("replica %d was stepped by a failed round", i)
				}
			}
		})
	}
}
