package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// maxProcs caps GOMAXPROCS and the tensor kernels' worker count, so a run on
// a large host measures the same schedule shape as a run on a small one.
const maxProcs = 4

// pinProcs fixes the process's parallelism to min(nproc, maxProcs).
func pinProcs() int {
	p := runtime.NumCPU()
	if p > maxProcs {
		p = maxProcs
	}
	runtime.GOMAXPROCS(p)
	tensor.SetParallelism(p)
	return p
}

// cpuSeconds is the process's user+sys CPU time. On a shared box it moves
// far less than wall time when another tenant takes a core, which is why
// every host-cost metric has a cpu twin.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stopwatch measures one section on the wall and cpu clocks.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuSeconds()} }

func (s stopwatch) elapsed() (wall, cpu float64) {
	return time.Since(s.wall).Seconds(), cpuSeconds() - s.cpu
}

// mallocs is the process's cumulative heap-object count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// allocsPer runs f n times after one untimed call and returns the mean
// number of heap objects one call allocates.
func allocsPer(n int, f func()) float64 {
	f()
	before := mallocs()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(mallocs()-before) / float64(n)
}

// liveHeapMB collects garbage and returns the bytes still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// env records the machine and build a document was measured on.
type env struct {
	CPUModel    string `json:"cpu_model"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"tensor_parallelism"`
	SIMD        string `json:"simd"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"git_commit"`
}

func readEnv() env {
	return env{
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: tensor.Parallelism(),
		SIMD:        tensor.ActiveSIMDLevel().String(),
		GoVersion:   runtime.Version(),
		Commit:      buildCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// buildCommit is the revision the go tool stamped into the binary; a
// checkout that is not a git repository has none.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
