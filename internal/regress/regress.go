// Package regress implements the multivariate regression of the cost
// estimation module: ordinary and weighted least squares, solved via normal
// equations. One-dimensional sub-operator models, the two regimes of
// HashBuild (Figure 13(f) of the paper) included, are stats.Line fits.
package regress

import (
	"errors"
	"fmt"
	"math"

	"intellisphere/internal/stats"
)

// ErrUnderdetermined is returned when there are fewer observations than
// coefficients to fit.
var ErrUnderdetermined = errors.New("regress: underdetermined system (too few observations)")

// ErrSingular is returned when the normal-equation matrix is singular, which
// happens when input dimensions are linearly dependent or constant.
var ErrSingular = errors.New("regress: singular system (collinear or constant inputs)")

// Model is a fitted multivariate linear model y = Intercept + Σ Coef[i]*x[i].
type Model struct {
	Coef      []float64 // one coefficient per input dimension
	Intercept float64
	R2        float64 // coefficient of determination on the training data
}

// Predict evaluates the model at x. It panics if len(x) != len(m.Coef); the
// caller owns dimensional consistency.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.Coef) {
		panic(fmt.Sprintf("regress: Predict with %d inputs on a %d-dim model", len(x), len(m.Coef)))
	}
	y := m.Intercept
	for i, c := range m.Coef {
		y += c * x[i]
	}
	return y
}

// Fit computes the ordinary least-squares fit of y against the rows of x.
// Every row of x must have the same length d; the returned model has d
// coefficients plus an intercept.
func Fit(x [][]float64, y []float64) (*Model, error) {
	return FitWeighted(x, y, nil)
}

// FitWeighted computes a weighted least-squares fit: observation i
// contributes with weight w[i] (> 0). A nil w degenerates to OLS. The
// online remedy uses it to favour training points whose in-range context
// matches the query while still spanning the pivot dimensions.
func FitWeighted(x [][]float64, y []float64, w []float64) (*Model, error) {
	if len(x) != len(y) {
		return nil, stats.ErrLengthMismatch
	}
	if len(x) == 0 {
		return nil, stats.ErrEmpty
	}
	if w != nil && len(w) != len(x) {
		return nil, stats.ErrLengthMismatch
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("regress: row %d has %d dims, want %d", i, len(row), d)
		}
	}
	p := d + 1 // coefficients + intercept
	if len(x) < p {
		return nil, ErrUnderdetermined
	}

	// Build the (weighted) normal equations A·c = b where A = XᵀWX and
	// b = XᵀWy with an implicit leading 1-column for the intercept.
	a := make([][]float64, p)
	for i := range a {
		a[i] = make([]float64, p)
	}
	b := make([]float64, p)
	aug := func(row []float64, j int) float64 {
		if j == 0 {
			return 1
		}
		return row[j-1]
	}
	for r := range x {
		wr := 1.0
		if w != nil {
			wr = w[r]
			if wr <= 0 {
				return nil, fmt.Errorf("regress: non-positive weight %v at row %d", wr, r)
			}
		}
		for i := 0; i < p; i++ {
			xi := aug(x[r], i)
			b[i] += wr * xi * y[r]
			for j := i; j < p; j++ {
				a[i][j] += wr * xi * aug(x[r], j)
			}
		}
	}
	for i := 0; i < p; i++ { // mirror the symmetric half
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}

	coef, err := solve(a, b)
	if err != nil {
		return nil, err
	}
	m := &Model{Intercept: coef[0], Coef: coef[1:]}
	pred := make([]float64, len(x))
	for i, row := range x {
		pred[i] = m.Predict(row)
	}
	r2, err := stats.RSquared(pred, y)
	if err != nil {
		// Zero variance in y: a constant fit is still valid; report R² = 1
		// when residuals vanish, else 0.
		r2 = 0
		if rm, e2 := stats.RMSE(pred, y); e2 == nil && rm < 1e-12 {
			r2 = 1
		}
	}
	m.R2 = r2
	return m, nil
}

// solve performs Gaussian elimination with partial pivoting on a·w = b.
// a and b are modified in place.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude entry in this column.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	w := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * w[c]
		}
		w[r] = s / a[r][r]
	}
	return w, nil
}
