package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitSimpleExact(t *testing.T) {
	x := []float64{40, 70, 100, 250, 500, 1000}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 0.0314*v + 0.7403 // the paper's WriteDFS model
	}
	rows := make([][]float64, len(x))
	for i, v := range x {
		rows[i] = []float64{v}
	}
	m, err := Fit(rows, y)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(m.Coef[0]-0.0314) > 1e-9 || math.Abs(m.Intercept-0.7403) > 1e-9 {
		t.Errorf("fit = %+v, want slope 0.0314 intercept 0.7403", m)
	}
	if m.R2 < 1-1e-9 {
		t.Errorf("R² = %v, want 1", m.R2)
	}
}

func TestFitMultivariateExact(t *testing.T) {
	// y = 3 + 2*x0 - 5*x1 + 0.5*x2
	rng := rand.New(rand.NewSource(7))
	x := make([][]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		y[i] = 3 + 2*x[i][0] - 5*x[i][1] + 0.5*x[i][2]
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	want := []float64{2, -5, 0.5}
	for i, c := range m.Coef {
		if math.Abs(c-want[i]) > 1e-8 {
			t.Errorf("Coef[%d] = %v, want %v", i, c, want[i])
		}
	}
	if math.Abs(m.Intercept-3) > 1e-8 {
		t.Errorf("Intercept = %v, want 3", m.Intercept)
	}
}

func TestFitUnderdetermined(t *testing.T) {
	x := [][]float64{{1, 2, 3}}
	y := []float64{1}
	if _, err := Fit(x, y); err != ErrUnderdetermined {
		t.Errorf("err = %v, want ErrUnderdetermined", err)
	}
}

func TestFitSingular(t *testing.T) {
	// Second column is 2× the first: collinear.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	y := []float64{1, 2, 3, 4}
	if _, err := Fit(x, y); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestFitRowDimMismatch(t *testing.T) {
	x := [][]float64{{1, 2}, {3}}
	y := []float64{1, 2}
	if _, err := Fit(x, y); err == nil {
		t.Error("expected error for inconsistent row widths")
	}
}

func TestFitLengthMismatch(t *testing.T) {
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("expected error for x/y length mismatch")
	}
}

func TestPredictPanicsOnWrongDims(t *testing.T) {
	m := &Model{Coef: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong input width")
		}
	}()
	m.Predict([]float64{1})
}

func TestFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = []float64{rng.Float64() * 100}
		y[i] = 4*x[i][0] + 10 + rng.NormFloat64()
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(m.Coef[0]-4) > 0.05 {
		t.Errorf("slope = %v, want ≈4", m.Coef[0])
	}
	if m.R2 < 0.99 {
		t.Errorf("R² = %v, want > 0.99", m.R2)
	}
}

// Property: Fit recovers arbitrary 2-dim linear relationships with negligible
// residual when inputs are well-conditioned.
func TestFitRecoversLinearProperty(t *testing.T) {
	f := func(a, b, c float64, seed int64) bool {
		clamp := func(v float64) float64 {
			if v > 100 {
				return 100
			}
			if v < -100 {
				return -100
			}
			if math.IsNaN(v) {
				return 1
			}
			return v
		}
		a, b, c = clamp(a), clamp(b), clamp(c)
		rng := rand.New(rand.NewSource(seed))
		x := make([][]float64, 40)
		y := make([]float64, 40)
		for i := range x {
			x[i] = []float64{rng.Float64()*50 + 1, rng.Float64()*50 + 1}
			y[i] = a + b*x[i][0] + c*x[i][1]
		}
		m, err := Fit(x, y)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(m.Predict(x[i])-y[i]) > 1e-5*(1+math.Abs(y[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
