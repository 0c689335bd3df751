//go:build race

package ftoa

// raceEnabled gates the allocation test: race instrumentation adds
// allocations that are not present in production builds.
const raceEnabled = true
