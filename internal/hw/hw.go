// Package hw models the heterogeneous hardware the paper targets (§II-C,
// Fig. 2): multi-socket CPUs with large DRAM, accelerators (GPU / FPGA)
// with private device memory, PCIe links, and a processor interconnect.
//
// No real GPU/FPGA/PCIe is present in this environment; these device models
// carry exactly the parameters the paper's performance model (§V) consumes —
// peak FLOPS, frequency, memory bandwidth, on-chip memory — plus the
// empirical efficiency factors (gather efficiency, framework overhead,
// kernel-launch latency) that the paper measures implicitly through its
// baselines. All constants are documented where defined.
package hw

import "fmt"

// Kind classifies a device.
type Kind int

const (
	CPU Kind = iota
	GPU
	FPGA

	// KindCount is the number of device kinds — sized for dense per-kind
	// arrays (admission shares, inflight heaps) indexed by Kind.
	KindCount = int(FPGA) + 1
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case FPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device describes one processor or accelerator.
type Device struct {
	Name       string
	Kind       Kind
	PeakTFLOPS float64 // single-precision peak (paper Table II)
	FreqGHz    float64
	MemBWGBs   float64 // device/local memory bandwidth (paper Table II)
	OnChipMB   float64 // L3 / L2 / BRAM+URAM capacity
	Cores      int     // hardware threads available to task mapping (CPU only)

	// Empirical efficiency factors (fractions of the peak numbers above).
	MLPEff    float64 // dense-update fraction of peak FLOPS achieved
	GatherEff float64 // irregular row-gather fraction of memory bandwidth
	StreamEff float64 // sequential streaming fraction of memory bandwidth

	// Pipelined reports whether aggregate and update overlap inside the
	// trainer (paper Eq. 10: ⊕ = max when pipelined, Σ otherwise). True for
	// the FPGA dataflow kernel, false for CPU/GPU.
	Pipelined bool

	// KernelLaunchUs is the fixed cost of launching one device kernel
	// (cudaLaunchKernel / enqueueTask).
	KernelLaunchUs float64

	// FrameworkOverheadMs is the per-training-iteration host-side overhead
	// of the software stack driving this device (Python/PyTorch dataloader,
	// autograd bookkeeping, etc.). Zero for the HLS-native FPGA path.
	FrameworkOverheadMs float64

	// ServeOverheadMs is the per-batch host-side overhead of the *inference*
	// stack driving this device. It is much smaller than the training
	// overhead: a serving tier runs a compiled forward graph (TorchScript /
	// TensorRT class) with no autograd or Python dataloader in the loop, so
	// only the dispatch layer remains. The serving runtime and the analytic
	// serving model charge this instead of FrameworkOverheadMs.
	ServeOverheadMs float64

	// LoaderGBs, when positive, is the fixed bandwidth of the host-framework
	// feature gather feeding this device (a torch-style collation pinned to
	// one Python process: thread-independent and serialized across all
	// devices driven by that stack). Zero means the device's batches are
	// gathered by the native threaded Feature Loader. Device batches on the
	// two stacks load concurrently — the lever that makes mixed fleets more
	// than the sum of their parts.
	LoaderGBs float64
}

// EffectiveTFLOPS returns the achievable dense-compute rate.
func (d Device) EffectiveTFLOPS() float64 { return d.PeakTFLOPS * d.MLPEff }

// GatherGBs returns the achievable irregular-gather bandwidth.
func (d Device) GatherGBs() float64 { return d.MemBWGBs * d.GatherEff }

// StreamGBs returns the achievable streaming bandwidth.
func (d Device) StreamGBs() float64 { return d.MemBWGBs * d.StreamEff }

// validate checks that a device's parameters are physically meaningful.
func (d Device) validate() error {
	if d.PeakTFLOPS <= 0 || d.MemBWGBs <= 0 || d.FreqGHz <= 0 {
		return fmt.Errorf("hw: %s has non-positive peak specs", d.Name)
	}
	for _, e := range []float64{d.MLPEff, d.GatherEff, d.StreamEff} {
		if e <= 0 || e > 1 {
			return fmt.Errorf("hw: %s efficiency %v outside (0,1]", d.Name, e)
		}
	}
	if d.Kind == CPU && d.Cores <= 0 {
		return fmt.Errorf("hw: CPU %s has no cores", d.Name)
	}
	return nil
}

// Link models a point-to-point channel (PCIe or the processor interconnect).
type Link struct {
	Name      string
	PeakGBs   float64
	Eff       float64 // effective/burst fraction of peak (paper §V: "effective bandwidth")
	LatencyUs float64 // per-transfer setup latency
}

// EffGBs returns the effective bandwidth.
func (l Link) EffGBs() float64 { return l.PeakGBs * l.Eff }

// TransferSec returns the time to move `bytes` across the link, including
// the fixed setup latency.
func (l Link) TransferSec(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.LatencyUs*1e-6 + bytes/(l.EffGBs()*1e9)
}

// Degraded returns the link with its peak bandwidth divided by factor —
// scripted congestion or a flapping NIC. Only the bandwidth term degrades;
// the setup latency is a fixed cost either way. Factor ≤ 1 returns the link
// unchanged, so factor 1 is exactly the healthy link.
func (l Link) Degraded(factor float64) Link {
	if factor <= 1 {
		return l
	}
	l.PeakGBs /= factor
	return l
}

// Platform is one compute node: sockets × CPU, plus accelerators behind PCIe.
// The accelerator fleet may be heterogeneous (GPUs and FPGAs side by side);
// AccelLinks then carries each device's own host link.
type Platform struct {
	Name    string
	CPU     Device
	Sockets int
	Accels  []Device
	PCIe    Link // default per-accelerator link (used when AccelLinks is empty)

	// AccelLinks, when non-empty, gives accelerator i its own host link
	// (mixed fleets put each device generation on its native PCIe slot).
	// Must be empty or exactly len(Accels) long.
	AccelLinks []Link
}

// AccelLink returns accelerator i's host link: its private entry in
// AccelLinks when present, the shared PCIe default otherwise.
func (p Platform) AccelLink(i int) Link {
	if i >= 0 && i < len(p.AccelLinks) {
		return p.AccelLinks[i]
	}
	return p.PCIe
}

// totalCPUTFLOPS returns the combined CPU peak across sockets.
func (p Platform) totalCPUTFLOPS() float64 { return p.CPU.PeakTFLOPS * float64(p.Sockets) }

// TotalCPUCores returns the combined core count across sockets.
func (p Platform) TotalCPUCores() int { return p.CPU.Cores * p.Sockets }

// CPUMemBWGBs returns the aggregate CPU DRAM bandwidth across sockets.
func (p Platform) CPUMemBWGBs() float64 { return p.CPU.MemBWGBs * float64(p.Sockets) }

// TotalTFLOPS returns platform peak (CPU + accelerators) — the
// normalization denominator of the paper's Table VII.
func (p Platform) TotalTFLOPS() float64 {
	total := p.totalCPUTFLOPS()
	for _, a := range p.Accels {
		total += a.PeakTFLOPS
	}
	return total
}

// Validate checks platform consistency.
func (p Platform) Validate() error {
	if p.Sockets <= 0 {
		return fmt.Errorf("hw: platform %s has %d sockets", p.Name, p.Sockets)
	}
	if err := p.CPU.validate(); err != nil {
		return err
	}
	for _, a := range p.Accels {
		if err := a.validate(); err != nil {
			return err
		}
		if a.Kind == CPU {
			return fmt.Errorf("hw: accelerator %s has Kind CPU", a.Name)
		}
	}
	if p.PCIe.EffGBs() <= 0 {
		return fmt.Errorf("hw: platform %s has no PCIe bandwidth", p.Name)
	}
	if len(p.AccelLinks) != 0 {
		if len(p.AccelLinks) != len(p.Accels) {
			return fmt.Errorf("hw: platform %s has %d accel links for %d accelerators",
				p.Name, len(p.AccelLinks), len(p.Accels))
		}
		for i, l := range p.AccelLinks {
			if l.EffGBs() <= 0 {
				return fmt.Errorf("hw: platform %s accelerator %d (%s) has no link bandwidth",
					p.Name, i, p.Accels[i].Name)
			}
		}
	}
	return nil
}

// WithAccelCount returns a copy of p holding n accelerators drawn
// round-robin from its existing device list (with their links), so mixed
// fleets keep their composition under the scalability sweep (paper Fig. 9,
// 1–16 accels) instead of silently collapsing to clones of the first device.
func (p Platform) WithAccelCount(n int) Platform {
	if len(p.Accels) == 0 {
		panic("hw: WithAccelCount on platform without accelerators")
	}
	out := p
	out.Accels = make([]Device, n)
	for i := range out.Accels {
		out.Accels[i] = p.Accels[i%len(p.Accels)]
	}
	if len(p.AccelLinks) > 0 {
		out.AccelLinks = make([]Link, n)
		for i := range out.AccelLinks {
			out.AccelLinks[i] = p.AccelLinks[i%len(p.AccelLinks)]
		}
	}
	out.Name = fmt.Sprintf("%s x%d", p.Name, n)
	return out
}
