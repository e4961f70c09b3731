package trace

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// WithCPUProfile runs fn under a runtime/pprof CPU profile written to the
// file at path — the -cpuprofile flag of the commands — stopping the profile
// and closing the file however fn returns. It returns fn's error, or else the
// file's. An empty path means no profile: nothing is created and fn just runs.
func WithCPUProfile(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close() // nothing was written; the start error is the one to report
		return fmt.Errorf("-cpuprofile %s: %w", path, err)
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WithHeapProfile runs fn and then writes a runtime/pprof heap profile to the
// file at path — the -memprofile flag of the commands. The file is created
// before fn runs, so an unwritable path fails the run at its start, not after
// it; the profile is taken after a forced collection, so its in-use columns
// are what is still referenced once fn has returned and its allocation
// columns (-sample_index=alloc_space) cover everything fn allocated, by call
// site. It returns fn's error, or else the file's. An empty path means no
// profile: nothing is created and fn just runs.
func WithHeapProfile(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	err = fn()
	runtime.GC() // a heap profile is as of the last completed collection
	if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
		err = fmt.Errorf("-memprofile %s: %w", path, werr)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
