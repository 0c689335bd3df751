//go:build !race

package ftoa

const raceEnabled = false
