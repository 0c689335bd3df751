//go:build race

package engine_test

// raceEnabled gates what the race detector makes nondeterministic: it drops
// a quarter of what is put into a sync.Pool.
const raceEnabled = true
