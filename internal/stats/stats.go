// Package stats provides the small statistical toolkit shared by the cost
// estimation module and the experiment harness: error metrics (RMSE, RMSE%,
// R²), descriptive statistics, and fitted-line summaries used to report the
// paper's predicted-vs-actual scatter plots as (slope, intercept, R²) rows.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a metric is requested over no observations.
var ErrEmpty = errors.New("stats: empty input")

// ErrLengthMismatch is returned when paired slices differ in length.
var ErrLengthMismatch = errors.New("stats: length mismatch")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// RMSE returns the root-mean-square error between predicted and actual.
func RMSE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, ErrLengthMismatch
	}
	if len(predicted) == 0 {
		return 0, ErrEmpty
	}
	ss := 0.0
	for i := range predicted {
		d := predicted[i] - actual[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(predicted))), nil
}

// RMSEPercent returns the paper's error metric e*100/v, where e is the RMSE
// and v is the mean of the actual values (Section 7, Figures 11–12, Table 1).
func RMSEPercent(predicted, actual []float64) (float64, error) {
	e, err := RMSE(predicted, actual)
	if err != nil {
		return 0, err
	}
	v, err := Mean(actual)
	if err != nil {
		return 0, err
	}
	if v == 0 {
		return 0, errors.New("stats: zero mean actual value")
	}
	return e * 100 / v, nil
}

// RSquared returns the coefficient of determination of predictions against
// actual observations: 1 - SSres/SStot.
func RSquared(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, ErrLengthMismatch
	}
	if len(predicted) == 0 {
		return 0, ErrEmpty
	}
	m, err := Mean(actual)
	if err != nil {
		return 0, err
	}
	ssRes, ssTot := 0.0, 0.0
	for i := range actual {
		r := actual[i] - predicted[i]
		t := actual[i] - m
		ssRes += r * r
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, nil
		}
		return 0, errors.New("stats: zero variance in actual values")
	}
	return 1 - ssRes/ssTot, nil
}

// Line is a fitted y = Slope*x + Intercept summary together with the R² of
// the fit. The experiment harness prints these exactly the way the paper
// annotates its scatter plots (e.g. "y=0.9587x+0.2445, R²=0.98573").
type Line struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// String formats the line the way the paper's figures annotate fits.
func (l Line) String() string {
	sign := "+"
	b := l.Intercept
	if b < 0 {
		sign = "-"
		b = -b
	}
	return fmt.Sprintf("y=%.4fx%s%.4f R²=%.5f", l.Slope, sign, b, l.R2)
}

// FitLine computes the ordinary least-squares line through (x, y) pairs.
func FitLine(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, ErrLengthMismatch
	}
	if len(x) < 2 {
		return Line{}, errors.New("stats: need at least two points to fit a line")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Line{}, errors.New("stats: degenerate x values (zero variance)")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	pred := make([]float64, len(x))
	for i := range x {
		pred[i] = slope*x[i] + intercept
	}
	r2, err := RSquared(pred, y)
	if err != nil {
		return Line{}, err
	}
	return Line{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Eval returns the line's prediction at x.
func (l Line) Eval(x float64) float64 { return l.Slope*x + l.Intercept }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
