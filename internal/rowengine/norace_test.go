//go:build !race

package rowengine

const raceEnabled = false
