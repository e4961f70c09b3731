package hw

import "fmt"

// Device presets. Peak numbers come from the paper's Table II; efficiency
// factors and overheads are calibration constants chosen to reproduce the
// paper's measured *ratios*. The decisive
// qualitative differences the paper leans on are encoded here:
//
//   - GPU trainers are driven by Python/PyTorch (paper §VI-A implements both
//     the baseline and the CPU-GPU design with PyTorch v1.11 + PyG v2.0.3),
//     so they carry a large per-iteration framework overhead and a poor
//     irregular-gather efficiency ("traditional cache policies fail to
//     capture the data access pattern in GNN training", §VI-E1).
//   - The FPGA path is native HLS with a dataflow kernel: aggregate/update
//     pipelined, intermediates on-chip, sequential streaming of sorted
//     edges, negligible framework overhead.
//   - CPUs sit in between: MKL-class GEMMs, decent gather (large L3).

// EPYC7763 models one socket of the dual-socket host (64 cores, 2.45 GHz,
// 3.6 TFLOPS, 205 GB/s, 256 MB L3).
func EPYC7763() Device {
	return Device{
		Name: "AMD EPYC 7763", Kind: CPU,
		PeakTFLOPS: 3.6, FreqGHz: 2.45, MemBWGBs: 205, OnChipMB: 256, Cores: 64,
		MLPEff: 0.70, GatherEff: 0.50, StreamEff: 0.80,
		Pipelined: false, KernelLaunchUs: 0, FrameworkOverheadMs: 1.2, ServeOverheadMs: 0.08,
	}
}

// A5000 models the NVIDIA RTX A5000 (27.8 TFLOPS, 768 GB/s, 6 MB L2) driven
// through PyTorch/PyG.
func A5000() Device {
	return Device{
		Name: "NVIDIA RTX A5000", Kind: GPU,
		PeakTFLOPS: 27.8, FreqGHz: 2.0, MemBWGBs: 768, OnChipMB: 6,
		MLPEff: 0.30, GatherEff: 0.08, StreamEff: 0.75,
		Pipelined: false, KernelLaunchUs: 12, FrameworkOverheadMs: 9.0,
		ServeOverheadMs: 0.35, LoaderGBs: 6,
	}
}

// U250 models the Xilinx Alveo U250 (0.6 TFLOPS, 77 GB/s, 54 MB on-chip)
// running the paper's custom dataflow kernel (§IV-C).
func U250() Device {
	return Device{
		Name: "Xilinx Alveo U250", Kind: FPGA,
		PeakTFLOPS: 0.6, FreqGHz: 0.3, MemBWGBs: 77, OnChipMB: 54,
		MLPEff: 0.90, GatherEff: 0.70, StreamEff: 0.90,
		Pipelined: true, KernelLaunchUs: 60, FrameworkOverheadMs: 0.05, ServeOverheadMs: 0.02,
	}
}

// pcie4x16 is the host link for the A5000s (effective burst bandwidth).
func pcie4x16() Link { return Link{Name: "PCIe 4.0 x16", PeakGBs: 31.5, Eff: 0.70, LatencyUs: 10} }

// pcie3x16 is the host link for the U250s.
func pcie3x16() Link { return Link{Name: "PCIe 3.0 x16", PeakGBs: 15.75, Eff: 0.85, LatencyUs: 10} }

// CPUGPUPlatform is the paper's CPU-GPU setup: dual EPYC 7763 + 4× A5000.
func CPUGPUPlatform() Platform {
	return Platform{
		Name: "2xEPYC7763 + 4xA5000", CPU: EPYC7763(), Sockets: 2,
		Accels: []Device{A5000(), A5000(), A5000(), A5000()},
		PCIe:   pcie4x16(),
	}
}

// CPUFPGAPlatform is the paper's CPU-FPGA setup: dual EPYC 7763 + 4× U250.
func CPUFPGAPlatform() Platform {
	return Platform{
		Name: "2xEPYC7763 + 4xU250", CPU: EPYC7763(), Sockets: 2,
		Accels: []Device{U250(), U250(), U250(), U250()},
		PCIe:   pcie3x16(),
	}
}

// accelDevice returns the preset accelerator and host link for a device
// kind: GPUs are A5000s behind PCIe 4.0, FPGAs are U250s behind PCIe 3.0.
func accelDevice(k Kind) (Device, Link, error) {
	switch k {
	case GPU:
		return A5000(), pcie4x16(), nil
	case FPGA:
		return U250(), pcie3x16(), nil
	default:
		return Device{}, Link{}, fmt.Errorf("hw: %v is not an accelerator kind", k)
	}
}

// HeteroPlatform builds the mixed single-node machine the paper's title
// claims (§II-C): dual EPYC 7763 hosting the given accelerators side by
// side, each device on its own kind-native link (A5000 ↔ PCIe 4.0 x16,
// U250 ↔ PCIe 3.0 x16). The platform's default PCIe is the slowest link in
// the fleet, so code that ignores AccelLinks stays conservative.
func HeteroPlatform(kinds ...Kind) (Platform, error) {
	if len(kinds) == 0 {
		return Platform{}, fmt.Errorf("hw: hetero platform needs at least one accelerator")
	}
	p := Platform{Name: "2xEPYC7763", CPU: EPYC7763(), Sockets: 2}
	counts := map[Kind]int{}
	for _, k := range kinds {
		dev, link, err := accelDevice(k)
		if err != nil {
			return Platform{}, err
		}
		p.Accels = append(p.Accels, dev)
		p.AccelLinks = append(p.AccelLinks, link)
		if p.PCIe.EffGBs() == 0 || link.EffGBs() < p.PCIe.EffGBs() {
			p.PCIe = link
		}
		counts[k]++
	}
	for _, k := range []Kind{GPU, FPGA} {
		if counts[k] > 0 {
			p.Name += fmt.Sprintf(" + %dx%s", counts[k], k)
		}
	}
	return p, nil
}

// Comparator platform components (paper Table V). Peak TFLOPS chosen so the
// platform totals reproduce the paper's Table VI → Table VII normalization
// (sec × TFLOPS): PaGraph ≈ 114.5, P3 ≈ 148.8 (4 nodes), DistDGLv2 ≈ 544
// (8 nodes), This Work ≈ 9.6.

// xeon8163 models one Xeon Platinum 8163 socket (PaGraph's host).
func xeon8163() Device {
	return Device{
		Name: "Xeon Platinum 8163", Kind: CPU,
		PeakTFLOPS: 1.25, FreqGHz: 2.5, MemBWGBs: 119, OnChipMB: 33, Cores: 24,
		MLPEff: 0.55, GatherEff: 0.35, StreamEff: 0.80, FrameworkOverheadMs: 2.0, ServeOverheadMs: 0.08,
	}
}

// v100 models an NVIDIA v100 (PaGraph's accelerator), DGL/PyTorch-driven.
func v100() Device {
	return Device{
		Name: "NVIDIA V100", Kind: GPU,
		PeakTFLOPS: 14.0, FreqGHz: 1.53, MemBWGBs: 900, OnChipMB: 6,
		MLPEff: 0.30, GatherEff: 0.08, StreamEff: 0.75,
		KernelLaunchUs: 12, FrameworkOverheadMs: 9.0,
		ServeOverheadMs: 0.35, LoaderGBs: 6,
	}
}

// xeonE52690 models the Xeon E5-2690 (P3's host CPU).
func xeonE52690() Device {
	return Device{
		Name: "Xeon E5-2690", Kind: CPU,
		PeakTFLOPS: 0.37, FreqGHz: 2.9, MemBWGBs: 68, OnChipMB: 35, Cores: 14,
		MLPEff: 0.55, GatherEff: 0.35, StreamEff: 0.80, FrameworkOverheadMs: 2.0, ServeOverheadMs: 0.08,
	}
}

// p100 models an NVIDIA p100 (2016) as used by P3.
func p100() Device {
	return Device{
		Name: "NVIDIA P100", Kind: GPU,
		PeakTFLOPS: 9.3, FreqGHz: 1.3, MemBWGBs: 732, OnChipMB: 4,
		MLPEff: 0.30, GatherEff: 0.08, StreamEff: 0.75,
		KernelLaunchUs: 12, FrameworkOverheadMs: 9.0,
		ServeOverheadMs: 0.35, LoaderGBs: 6,
	}
}

// t4 models an NVIDIA t4 (DistDGLv2's accelerator).
func t4() Device {
	return Device{
		Name: "NVIDIA T4", Kind: GPU,
		PeakTFLOPS: 8.1, FreqGHz: 1.59, MemBWGBs: 320, OnChipMB: 4,
		MLPEff: 0.30, GatherEff: 0.08, StreamEff: 0.75,
		KernelLaunchUs: 12, FrameworkOverheadMs: 9.0,
		ServeOverheadMs: 0.35, LoaderGBs: 6,
	}
}

// vcpu96 models DistDGLv2's 96-vCPU host as a single logical CPU device.
func vcpu96() Device {
	return Device{
		Name: "96 vCPU", Kind: CPU,
		PeakTFLOPS: 3.2, FreqGHz: 2.5, MemBWGBs: 180, OnChipMB: 48, Cores: 96,
		MLPEff: 0.55, GatherEff: 0.35, StreamEff: 0.80, FrameworkOverheadMs: 2.0, ServeOverheadMs: 0.08,
	}
}

// PaGraphNode is PaGraph's single node: 2× Xeon 8163 + 8× V100.
func PaGraphNode() Platform {
	accels := make([]Device, 8)
	for i := range accels {
		accels[i] = v100()
	}
	return Platform{
		Name: "PaGraph 2x8163+8xV100", CPU: xeon8163(), Sockets: 2,
		Accels: accels, PCIe: pcie3x16(),
	}
}

// P3Node is one of P3's four nodes: 1× E5-2690 + 4× P100.
func P3Node() Platform {
	accels := make([]Device, 4)
	for i := range accels {
		accels[i] = p100()
	}
	return Platform{
		Name: "P3 1xE5-2690+4xP100", CPU: xeonE52690(), Sockets: 1,
		Accels: accels, PCIe: pcie3x16(),
	}
}

// DistDGLNode is one of DistDGLv2's eight nodes: 96 vCPU + 8× T4.
func DistDGLNode() Platform {
	accels := make([]Device, 8)
	for i := range accels {
		accels[i] = t4()
	}
	return Platform{
		Name: "DistDGLv2 96vCPU+8xT4", CPU: vcpu96(), Sockets: 1,
		Accels: accels, PCIe: pcie3x16(),
	}
}

// Ethernet100G is the inter-node link for the distributed comparators.
func Ethernet100G() Link { return Link{Name: "100GbE", PeakGBs: 12.5, Eff: 0.60, LatencyUs: 30} }
