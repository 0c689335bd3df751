package nn

import (
	"math/rand"
	"runtime"
	"testing"
)

// benchData builds a join-model-shaped training set: 7 input dimensions,
// 4096 samples (about what a paper-scale join workload yields).
func benchData() ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		row := make([]float64, 7)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = row[0]*row[1] + 0.5*row[2] + row[3]*row[4]*0.2 + 0.1*row[5] - 0.3*row[6]
	}
	return x, y
}

func benchTrain(b *testing.B, workers int) {
	x, y := benchData()
	cfg := Config{InputDim: 7, Hidden: []int{14, 7}, Activation: Tanh, Seed: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Train(x, y, TrainConfig{
			Iterations: 10, LearningRate: 0.01, BatchSize: 256,
			Optimizer: Adam, Seed: 5, Workers: workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNTrain compares serial (Workers=1) against pool-parallel
// mini-batch training. Both variants produce bit-identical weights; the
// delta is pure wall clock. It stays because training happens off the
// statement path: no ledger row of bench/layers.go times it.
func BenchmarkNNTrain(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTrain(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchTrain(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkPredictAll measures batched regressor evaluation over the full
// 4096-sample set, normalization included. It stays because the ledger's
// nn.forward_batch_us_per_row row times the bare kernel, not the
// Regressor.PredictAll the training-set refits call.
func BenchmarkPredictAll(b *testing.B) {
	x, y := benchData()
	reg, _, err := TrainRegressor(x, y, RegressorConfig{
		Network: Config{InputDim: 7, Hidden: []int{14, 7}, Activation: Tanh, Seed: 5},
		Train:   TrainConfig{Iterations: 2, LearningRate: 0.01, BatchSize: 256, Optimizer: Adam, Seed: 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.PredictAll(x)
	}
}
