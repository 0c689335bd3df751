//go:build !race

package nn

import "testing"

// The allocation count lives behind !race: the race detector deliberately
// drops sync.Pool items, so Forward's pooled scratch re-allocates under
// -race and the count below would be meaningless.

// PredictAll must not allocate per row: one output slice and one reused
// normalized row per call.
func TestPredictAllAllocs(t *testing.T) {
	x, y := synthData(64, 4, 5)
	reg, _, err := TrainRegressor(x, y, RegressorConfig{
		Network: Config{InputDim: 4, Hidden: []int{8, 4}, Activation: Tanh, Seed: 2},
		Train:   TrainConfig{Iterations: 5, Optimizer: Adam, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		reg.PredictAll(x)
	})
	if allocs > 2 {
		t.Errorf("PredictAll allocates %.1f times per call, want ≤ 2", allocs)
	}
}
