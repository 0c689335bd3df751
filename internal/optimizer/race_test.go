//go:build race

package optimizer

// raceEnabled gates allocation-pinning tests: race instrumentation adds
// allocations that are not present in production builds.
const raceEnabled = true
