package trace

import (
	"fmt"
	"os"
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
