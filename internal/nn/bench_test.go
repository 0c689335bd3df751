package nn

import (
	"math/rand"
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

func benchTrain(b *testing.B, batch int) {
	x, y := benchData()
	cfg := Config{InputDim: 7, Hidden: []int{14, 7}, Activation: Tanh, Seed: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Train(x, y, TrainConfig{Iterations: 10, LearningRate: 0.01, BatchSize: batch, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNTrain times mini-batch training at the two batch sizes
// production uses (32: demo boot and the tuner; 64: logicalop's default and
// the experiments). It stays because training happens off the statement
// path: no ledger row of bench/layers.go times it.
func BenchmarkNNTrain(b *testing.B) {
	b.Run("batch32", func(b *testing.B) { benchTrain(b, 32) })
	b.Run("batch64", func(b *testing.B) { benchTrain(b, 64) })
}

// BenchmarkPredictAll measures regressor evaluation over the full
// 4096-sample set, normalization included. It stays because the ledger's
// nn.forward_us row times the bare Forward, not the Regressor.PredictAll the
// training-set refits call.
func BenchmarkPredictAll(b *testing.B) {
	x, y := benchData()
	reg, _, err := TrainRegressor(x, y, RegressorConfig{
		Network: Config{InputDim: 7, Hidden: []int{14, 7}, Activation: Tanh, Seed: 5},
		Train:   TrainConfig{Iterations: 2, LearningRate: 0.01, BatchSize: 256, Seed: 5},
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
