package nn

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// weightHash is FNV-1a over math.Float64bits of every weight and bias, in
// layer order.
func weightHash(n *Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for li := range n.layers {
		for _, vals := range [][]float64{n.layers[li].w, n.layers[li].b} {
			for _, v := range vals {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestTrainPinnedWeights pins trained weights at the bit level on the two
// production topologies (join 7→14→7→1, aggregation 4→8→4→1) and the batch
// shapes production trains with. The hashes were generated at the commit
// before Train lost its batch kernels and chunked reducer and must not
// change: every mini-batch here is at most 64 samples, the case in which the
// old and the new accumulation perform the same float sequence. There is no
// full-batch row over more than 64 samples; that is the one case whose last
// bits were allowed to move.
func TestTrainPinnedWeights(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes are amd64 bits: other ports fuse multiply-adds and use their own math kernels")
	}
	join := Config{InputDim: 7, Hidden: []int{14, 7}, Activation: Tanh, Seed: 5}
	agg := Config{InputDim: 4, Hidden: []int{8, 4}, Activation: Tanh, Seed: 5}
	cases := []struct {
		name string
		net  Config
		rows int
		tc   TrainConfig
		want uint64
	}{
		{"join/adam64", join, 300, TrainConfig{Iterations: 30, LearningRate: 0.01, BatchSize: 64, Seed: 7}, 0x1931af556bda7c3f},
		{"agg/adam64", agg, 300, TrainConfig{Iterations: 30, LearningRate: 0.01, BatchSize: 64, Seed: 7}, 0xbe4cdce2f0ea6a98},
		{"join/adam32", join, 200, TrainConfig{Iterations: 30, LearningRate: 0.01, BatchSize: 32, Seed: 7}, 0xb841f9d4f3b1e25d},
		{"agg/adam32", agg, 200, TrainConfig{Iterations: 30, LearningRate: 0.01, BatchSize: 32, Seed: 7}, 0xdd6aa41b129cd579},
		// 24 rows under batch 32 is the flink boot and tuner shape: one
		// short batch an epoch.
		{"join/adam32-short", join, 24, TrainConfig{Iterations: 60, LearningRate: 0.01, BatchSize: 32, Seed: 7}, 0x1a558860009a36b0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x, y := synthData(c.rows, c.net.InputDim, 21)
			n, err := New(c.net)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Train(x, y, c.tc); err != nil {
				t.Fatal(err)
			}
			if got := weightHash(n); got != c.want {
				t.Errorf("weight hash %#x, want %#x", got, c.want)
			}
		})
	}

	// One Retrain continuation: the offline-tuning step on an enlarged set
	// whose new rows lie outside the fitted bounds.
	t.Run("join/retrain", func(t *testing.T) {
		const want = uint64(0xeb8f53e79bfc6d9c)
		x, y := synthData(260, 7, 21)
		for i := 200; i < len(x); i++ {
			for j := range x[i] {
				x[i][j] *= 1.5
			}
			y[i] *= 2
		}
		tc := TrainConfig{Iterations: 20, LearningRate: 0.01, BatchSize: 64, Seed: 7}
		reg, _, err := TrainRegressor(x[:200], y[:200], RegressorConfig{Network: join, Train: tc, LogOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Retrain(x, y, tc); err != nil {
			t.Fatal(err)
		}
		if got := weightHash(reg.Net); got != want {
			t.Errorf("weight hash %#x, want %#x", got, want)
		}
	})
}

func TestTrainNegativeBatchSizeError(t *testing.T) {
	n, _ := New(Config{InputDim: 1, Hidden: []int{3}})
	_, err := n.Train([][]float64{{1}, {2}}, []float64{1, 2}, TrainConfig{Iterations: 1, BatchSize: -8})
	if err == nil {
		t.Fatal("expected error for negative BatchSize")
	}
}

// A Retrain that fails validation must return an error — a row of the wrong
// width used to die with an index out of range — and must leave the
// normalizer bounds and the weights as they were.
func TestRetrainRejectedChangesNothing(t *testing.T) {
	x, y := synthData(40, 2, 3)
	tc := TrainConfig{Iterations: 5, BatchSize: 16, Seed: 1}
	reg, _, err := TrainRegressor(x, y, RegressorConfig{Network: Config{InputDim: 2, Hidden: []int{4, 3}, Seed: 1}, Train: tc})
	if err != nil {
		t.Fatal(err)
	}
	wide := [][]float64{{5, 5}, {6, 6}} // outside the fitted [0,1] bounds
	negBatch := tc
	negBatch.BatchSize = -1
	noIters := tc
	noIters.Iterations = 0
	cases := []struct {
		name string
		x    [][]float64
		y    []float64
		tc   TrainConfig
	}{
		{"wrong width", [][]float64{{5, 5}, {6, 6, 6}}, []float64{9, 9}, tc},
		{"negative batch size", wide, []float64{9, 9}, negBatch},
		{"no iterations", wide, []float64{9, 9}, noIters},
		{"length mismatch", wide, []float64{9}, tc},
		{"empty", nil, nil, tc},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before, err := json.Marshal(reg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reg.Retrain(c.x, c.y, c.tc); err == nil {
				t.Fatal("Retrain accepted it")
			}
			after, err := json.Marshal(reg)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Error("rejected Retrain changed the regressor")
			}
		})
	}
}
