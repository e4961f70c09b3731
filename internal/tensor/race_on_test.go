//go:build race

package tensor

// raceEnabled skips the exact allocation gates under the race detector,
// whose instrumentation deliberately bypasses sync.Pool at random (to catch
// misuse), making steady-state allocation counts nondeterministic.
const raceEnabled = true
