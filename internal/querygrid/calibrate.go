package querygrid

import (
	"fmt"
	"math"

	"intellisphere/internal/regress"
)

// The paper scopes network costs out of the operator estimator and assumes
// they are "learned through some other mechanisms" (Section 2). This file
// is that mechanism: a link's bandwidth, latency, and per-row overhead are
// recovered from a handful of timed probe transfers, the same way the
// sub-operator costing recovers per-record costs from probe queries.

// MeasureFunc times one transfer of rows × rowSize bytes over a link and
// returns the observed seconds.
type MeasureFunc func(rows, rowSize float64) (float64, error)

// Calibrate fits a LinkConfig from timed probe transfers over a grid of
// 1k–1M rows at 100–1000 B. The transfer model is elapsed = latency +
// bytes/bandwidth + rows·perRowUS/1e6, which is linear in (bytes, rows), so
// an OLS fit over the probe grid recovers all three parameters.
func Calibrate(measure MeasureFunc) (LinkConfig, error) {
	if measure == nil {
		return LinkConfig{}, fmt.Errorf("querygrid: calibration needs a measure function")
	}
	var x [][]float64
	var y []float64
	for _, rows := range []float64{1e3, 1e4, 1e5, 1e6} {
		for _, size := range []float64{100, 250, 500, 1000} {
			sec, err := measure(rows, size)
			if err != nil {
				return LinkConfig{}, fmt.Errorf("querygrid: probe transfer %v×%v: %w", rows, size, err)
			}
			x = append(x, []float64{rows * size, rows})
			y = append(y, sec)
		}
	}
	m, err := regress.Fit(x, y)
	if err != nil {
		return LinkConfig{}, fmt.Errorf("querygrid: calibration fit: %w", err)
	}
	out := LinkConfig{
		LatencySec:       math.Max(m.Intercept, 0),
		PerRowOverheadUS: math.Max(m.Coef[1], 0) * 1e6,
	}
	if m.Coef[0] <= 0 {
		return LinkConfig{}, fmt.Errorf("querygrid: calibration produced non-positive byte cost %v", m.Coef[0])
	}
	out.BandwidthBytesPerSec = 1 / m.Coef[0]
	if err := out.Validate(); err != nil {
		return LinkConfig{}, err
	}
	return out, nil
}

// SimulatedLink is a network link with hidden true characteristics, used to
// exercise calibration end to end (it plays the role the remote-system
// simulators play for operator costing).
type SimulatedLink struct {
	Truth    LinkConfig
	NoiseAmp float64 // multiplicative, deterministic per probe shape
	Seed     int64
}

// Measure implements MeasureFunc against the hidden truth.
func (l *SimulatedLink) Measure(rows, rowSize float64) (float64, error) {
	if rows <= 0 || rowSize <= 0 {
		return 0, fmt.Errorf("querygrid: probe needs positive volume")
	}
	sec := hop(l.Truth, rows, rowSize)
	key := fmt.Sprintf("link|%v|%v", rows, rowSize)
	sec *= linkNoise(key, l.Seed, l.NoiseAmp)
	return sec, nil
}

// linkNoise mirrors the remote simulators' deterministic noise.
func linkNoise(key string, seed int64, amp float64) float64 {
	if amp == 0 {
		return 1
	}
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545F4914F6CDD1D
	for _, c := range key {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	u := float64(h>>11) / float64(1<<53)
	return 1 + amp*(2*u-1)
}
