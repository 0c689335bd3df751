package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestRMSEPerfect(t *testing.T) {
	a := []float64{1, 2, 3}
	e, err := RMSE(a, a)
	if err != nil {
		t.Fatalf("RMSE: %v", err)
	}
	if e != 0 {
		t.Errorf("RMSE of identical slices = %v, want 0", e)
	}
}

func TestRMSEKnown(t *testing.T) {
	p := []float64{1, 2}
	a := []float64{2, 4}
	e, err := RMSE(p, a)
	if err != nil {
		t.Fatalf("RMSE: %v", err)
	}
	want := math.Sqrt((1.0 + 4.0) / 2.0)
	if !almostEqual(e, want, 1e-12) {
		t.Errorf("RMSE = %v, want %v", e, want)
	}
}

func TestRMSEMismatch(t *testing.T) {
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestRMSEPercent(t *testing.T) {
	p := []float64{9, 11}
	a := []float64{10, 10}
	got, err := RMSEPercent(p, a)
	if err != nil {
		t.Fatalf("RMSEPercent: %v", err)
	}
	if !almostEqual(got, 10, 1e-12) {
		t.Errorf("RMSEPercent = %v, want 10", got)
	}
}

func TestRMSEPercentZeroMean(t *testing.T) {
	if _, err := RMSEPercent([]float64{1}, []float64{0}); err == nil {
		t.Error("expected error for zero-mean actual values")
	}
}

func TestRSquaredPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	r2, err := RSquared(a, a)
	if err != nil {
		t.Fatalf("RSquared: %v", err)
	}
	if r2 != 1 {
		t.Errorf("R² of perfect prediction = %v, want 1", r2)
	}
}

func TestRSquaredMeanPredictor(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	p := []float64{2.5, 2.5, 2.5, 2.5}
	r2, err := RSquared(p, a)
	if err != nil {
		t.Fatalf("RSquared: %v", err)
	}
	if !almostEqual(r2, 0, 1e-12) {
		t.Errorf("R² of mean predictor = %v, want 0", r2)
	}
}

func TestFitLineExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	l, err := FitLine(x, y)
	if err != nil {
		t.Fatalf("FitLine: %v", err)
	}
	if !almostEqual(l.Slope, 2, 1e-12) || !almostEqual(l.Intercept, 1, 1e-12) {
		t.Errorf("FitLine = %+v, want slope 2 intercept 1", l)
	}
	if !almostEqual(l.R2, 1, 1e-12) {
		t.Errorf("R² = %v, want 1", l.R2)
	}
	if got := l.Eval(10); !almostEqual(got, 21, 1e-12) {
		t.Errorf("Eval(10) = %v, want 21", got)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("expected error for zero-variance x")
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single point")
	}
}

func TestLineString(t *testing.T) {
	l := Line{Slope: 0.9587, Intercept: 0.2445, R2: 0.98573}
	if got := l.String(); got != "y=0.9587x+0.2445 R²=0.98573" {
		t.Errorf("String() = %q", got)
	}
	l = Line{Slope: 0.1821, Intercept: -51.614, R2: 0.98464}
	if got := l.String(); got != "y=0.1821x-51.6140 R²=0.98464" {
		t.Errorf("String() = %q", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	p, err := Percentile(xs, 50)
	if err != nil {
		t.Fatalf("Percentile: %v", err)
	}
	if !almostEqual(p, 2.5, 1e-12) {
		t.Errorf("median = %v, want 2.5", p)
	}
	lo, _ := Percentile(xs, 0)
	hi, _ := Percentile(xs, 100)
	if lo != 1 || hi != 4 {
		t.Errorf("p0=%v p100=%v, want 1 and 4", lo, hi)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("expected error for out-of-range percentile")
	}
	// Input must not be modified.
	if xs[0] != 4 {
		t.Error("Percentile modified its input")
	}
}

// Property: FitLine recovers any non-degenerate linear relationship exactly.
func TestFitLineRecoversLinearProperty(t *testing.T) {
	f := func(slope, intercept float64, seed int64) bool {
		if math.Abs(slope) > 1e6 || math.Abs(intercept) > 1e6 {
			return true // keep numbers well conditioned
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 16)
		y := make([]float64, 16)
		for i := range x {
			x[i] = rng.Float64()*100 + float64(i) // strictly increasing: non-degenerate
			y[i] = slope*x[i] + intercept
		}
		l, err := FitLine(x, y)
		if err != nil {
			return false
		}
		return almostEqual(l.Slope, slope, 1e-6*(1+math.Abs(slope))) &&
			almostEqual(l.Intercept, intercept, 1e-4*(1+math.Abs(intercept)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: RMSE is non-negative and zero only for identical slices.
func TestRMSENonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		p := make([]float64, n)
		a := make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64() * 10
			a[i] = rng.NormFloat64() * 10
		}
		e, err := RMSE(p, a)
		if err != nil || e < 0 {
			return false
		}
		e2, err := RMSE(a, a)
		return err == nil && e2 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: R² of the OLS fit is never negative (OLS cannot do worse than the
// mean predictor on its own training data) and never exceeds 1.
func TestFitLineR2BoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 3
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i) + rng.Float64()
			y[i] = rng.NormFloat64() * 5
		}
		l, err := FitLine(x, y)
		if err != nil {
			return false
		}
		return l.R2 >= -1e-9 && l.R2 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRSquaredErrors(t *testing.T) {
	if _, err := RSquared(nil, nil); err != ErrEmpty {
		t.Errorf("RSquared(nil) err = %v", err)
	}
	if _, err := RSquared([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("RSquared mismatch err = %v", err)
	}
	// Zero variance in actual: perfect predictions are fine, others error.
	if r2, err := RSquared([]float64{2, 2}, []float64{2, 2}); err != nil || r2 != 1 {
		t.Errorf("constant perfect R² = %v, %v", r2, err)
	}
	if _, err := RSquared([]float64{1, 3}, []float64{2, 2}); err == nil {
		t.Error("zero-variance actual with residuals accepted")
	}
}

func TestPercentileSingleAndEmpty(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v", err)
	}
	p, err := Percentile([]float64{7}, 99)
	if err != nil || p != 7 {
		t.Errorf("single-element percentile = %v, %v", p, err)
	}
	if _, err := Percentile([]float64{1, 2}, -1); err == nil {
		t.Error("negative percentile accepted")
	}
}

func TestRMSEPercentPropagatesErrors(t *testing.T) {
	if _, err := RMSEPercent(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := RMSEPercent([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatch accepted")
	}
}
