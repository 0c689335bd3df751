//go:build race

package rowengine

// raceEnabled gates allocation-pinning tests: race instrumentation adds
// allocations that are not present in production builds.
const raceEnabled = true
