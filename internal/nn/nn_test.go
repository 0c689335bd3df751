package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{InputDim: 4, Hidden: []int{8, 3}}, true},
		{"zero input", Config{InputDim: 0, Hidden: []int{8}}, false},
		{"no hidden", Config{InputDim: 4}, false},
		{"bad hidden width", Config{InputDim: 4, Hidden: []int{8, 0}}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() err = %v, ok = %v", c.name, err, c.ok)
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: []int{6, 3}, Seed: 11}
	a, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	in := []float64{0.1, 0.5, 0.9}
	if a.Forward(in) != b.Forward(in) {
		t.Error("same seed produced different networks")
	}
	cfg.Seed = 12
	c, _ := New(cfg)
	if a.Forward(in) == c.Forward(in) {
		t.Error("different seeds produced identical networks (unexpected)")
	}
}

func TestForwardPanicsOnWidth(t *testing.T) {
	n, _ := New(Config{InputDim: 2, Hidden: []int{3}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong input width")
		}
	}()
	n.Forward([]float64{1})
}

func TestNumParams(t *testing.T) {
	n, _ := New(Config{InputDim: 2, Hidden: []int{3}})
	// layer1: 3*2 weights + 3 biases; output: 1*3 + 1 = 13
	if got := n.NumParams(); got != 13 {
		t.Errorf("NumParams = %d, want 13", got)
	}
}

func TestActivationString(t *testing.T) {
	if Tanh.String() != "tanh" || ReLU.String() != "relu" ||
		Sigmoid.String() != "sigmoid" || Identity.String() != "identity" {
		t.Error("unexpected activation names")
	}
	if Activation(99).String() != "Activation(99)" {
		t.Error("unexpected fallback name")
	}
}

func TestActivationDerivatives(t *testing.T) {
	// Verify derivative(out) against a numerical derivative of apply(x).
	for _, a := range []Activation{Tanh, Sigmoid, Identity} {
		for _, x := range []float64{-1.5, -0.2, 0.3, 2.0} {
			h := 1e-6
			num := (a.apply(x+h) - a.apply(x-h)) / (2 * h)
			got := a.derivative(a.apply(x))
			if math.Abs(num-got) > 1e-5 {
				t.Errorf("%v derivative at %v = %v, numerical %v", a, x, got, num)
			}
		}
	}
	// ReLU away from the kink.
	if ReLU.derivative(ReLU.apply(2)) != 1 || ReLU.derivative(ReLU.apply(-2)) != 0 {
		t.Error("ReLU derivative incorrect")
	}
}

func TestTrainLearnsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 0.3*x[i][0] + 0.5*x[i][1]
	}
	n, err := New(Config{InputDim: 2, Hidden: []int{6, 3}, Activation: Tanh, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := n.Train(x, y, TrainConfig{Iterations: 300, LearningRate: 0.02, Optimizer: Adam, BatchSize: 32, Seed: 1, CheckEvery: 100})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if res.FinalRMSE > 0.02 {
		t.Errorf("final RMSE = %v, want < 0.02", res.FinalRMSE)
	}
	if len(res.History) != 3 {
		t.Errorf("history has %d points, want 3", len(res.History))
	}
}

func TestTrainLearnsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([][]float64, 400)
	y := make([]float64, 400)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = x[i][0] * x[i][1] // product: not linearly representable
	}
	n, _ := New(Config{InputDim: 2, Hidden: []int{8, 4}, Activation: Tanh, Seed: 2})
	res, err := n.Train(x, y, TrainConfig{Iterations: 500, LearningRate: 0.02, Optimizer: Adam, BatchSize: 32, Seed: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if res.FinalRMSE > 0.03 {
		t.Errorf("final RMSE = %v, want < 0.03 for x*y", res.FinalRMSE)
	}
}

func TestTrainSGDMomentum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = []float64{rng.Float64()}
		y[i] = 0.8 * x[i][0]
	}
	n, _ := New(Config{InputDim: 1, Hidden: []int{4}, Activation: Tanh, Seed: 5})
	res, err := n.Train(x, y, TrainConfig{Iterations: 400, LearningRate: 0.05, Momentum: 0.9, Optimizer: SGD, Seed: 5})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if res.FinalRMSE > 0.03 {
		t.Errorf("SGD final RMSE = %v, want < 0.03", res.FinalRMSE)
	}
}

func TestTrainErrors(t *testing.T) {
	n, _ := New(Config{InputDim: 2, Hidden: []int{3}})
	if _, err := n.Train(nil, nil, TrainConfig{Iterations: 1}); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []float64{1}, TrainConfig{}); err == nil {
		t.Error("expected error for zero iterations")
	}
	if _, err := n.Train([][]float64{{1}}, []float64{1}, TrainConfig{Iterations: 1}); err == nil {
		t.Error("expected error for wrong sample width")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []float64{1, 2}, TrainConfig{Iterations: 1}); err == nil {
		t.Error("expected error for x/y mismatch")
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := make([][]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = []float64{rng.Float64()}
		y[i] = x[i][0] * 2
	}
	run := func() float64 {
		n, _ := New(Config{InputDim: 1, Hidden: []int{4}, Seed: 3})
		_, err := n.Train(x, y, TrainConfig{Iterations: 50, Optimizer: Adam, Seed: 3})
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		return n.Forward([]float64{0.5})
	}
	if run() != run() {
		t.Error("training with identical seeds diverged")
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	x := [][]float64{{10, 100}, {20, 300}, {30, 200}}
	y := []float64{1, 9, 4}
	for _, logOut := range []bool{false, true} {
		nm, err := FitNormalizer(x, y, logOut)
		if err != nil {
			t.Fatalf("FitNormalizer: %v", err)
		}
		for _, v := range y {
			got := nm.Inverse(nm.Out(v))
			if math.Abs(got-v) > 1e-9 {
				t.Errorf("logOut=%v: round trip %v -> %v", logOut, v, got)
			}
		}
		in := nm.In([]float64{10, 300})
		if in[0] != 0 || in[1] != 1 {
			t.Errorf("In() = %v, want [0 1]", in)
		}
	}
}

func TestNormalizerConstantDim(t *testing.T) {
	x := [][]float64{{5, 1}, {5, 2}}
	y := []float64{1, 2}
	nm, err := FitNormalizer(x, y, false)
	if err != nil {
		t.Fatalf("FitNormalizer: %v", err)
	}
	if got := nm.In([]float64{5, 1.5})[0]; got != 0 {
		t.Errorf("constant dim normalized to %v, want 0", got)
	}
}

func TestNormalizerErrors(t *testing.T) {
	if _, err := FitNormalizer(nil, nil, false); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := FitNormalizer([][]float64{{1}}, []float64{1, 2}, false); err == nil {
		t.Error("expected error for mismatch")
	}
	if _, err := FitNormalizer([][]float64{{1, 2}, {1}}, []float64{1, 2}, false); err == nil {
		t.Error("expected error for ragged input")
	}
}

func TestRegressorPredictRawUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := make([][]float64, 300)
	y := make([]float64, 300)
	for i := range x {
		x[i] = []float64{rng.Float64() * 1e6, rng.Float64() * 1000}
		y[i] = x[i][0]*1e-5 + x[i][1]*0.01 + 3
	}
	reg, res, err := TrainRegressor(x, y, RegressorConfig{
		Network: Config{InputDim: 2, Hidden: []int{6, 3}, Activation: Tanh, Seed: 7},
		Train:   TrainConfig{Iterations: 400, LearningRate: 0.02, Optimizer: Adam, BatchSize: 32, Seed: 7},
	})
	if err != nil {
		t.Fatalf("TrainRegressor: %v", err)
	}
	if res.FinalRMSE > 0.05 {
		t.Errorf("normalized RMSE = %v too high", res.FinalRMSE)
	}
	pct, err := reg.RMSEPercent(x, y)
	if err != nil {
		t.Fatalf("RMSEPercent: %v", err)
	}
	if pct > 10 {
		t.Errorf("RMSE%% = %v, want < 10", pct)
	}
}

func TestRegressorRetrainExpandsBounds(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 2, 3, 4}
	reg, _, err := TrainRegressor(x, y, RegressorConfig{
		Network: Config{InputDim: 1, Hidden: []int{4}, Seed: 1},
		Train:   TrainConfig{Iterations: 50, Optimizer: Adam, Seed: 1},
	})
	if err != nil {
		t.Fatalf("TrainRegressor: %v", err)
	}
	if reg.Norm.InMax[0] != 4 {
		t.Fatalf("InMax = %v, want 4", reg.Norm.InMax[0])
	}
	if _, err := reg.Retrain([][]float64{{10}}, []float64{10}, TrainConfig{Iterations: 10, Optimizer: Adam, Seed: 1}); err != nil {
		t.Fatalf("Retrain: %v", err)
	}
	if reg.Norm.InMax[0] != 10 {
		t.Errorf("InMax after retrain = %v, want 10", reg.Norm.InMax[0])
	}
	if _, err := reg.Retrain(nil, nil, TrainConfig{Iterations: 1}); err == nil {
		t.Error("expected error retraining on empty data")
	}
}

func TestNetworkJSONRoundTrip(t *testing.T) {
	n, _ := New(Config{InputDim: 3, Hidden: []int{5, 3}, Activation: Tanh, Seed: 21})
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Network
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	in := []float64{0.2, 0.4, 0.6}
	if n.Forward(in) != back.Forward(in) {
		t.Error("round-tripped network predicts differently")
	}
}

func TestNetworkUnmarshalErrors(t *testing.T) {
	var n Network
	if err := json.Unmarshal([]byte(`{"config":{"input_dim":0,"hidden":[2]},"layers":[]}`), &n); err == nil {
		t.Error("expected validation error")
	}
	if err := json.Unmarshal([]byte(`{"config":{"input_dim":2,"hidden":[2]},"layers":[]}`), &n); err == nil {
		t.Error("expected layer-count error")
	}
	if err := json.Unmarshal([]byte(`not json`), &n); err == nil {
		t.Error("expected decode error")
	}
}

func TestSplitDeterministicAndComplete(t *testing.T) {
	x := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = []float64{float64(i)}
		y[i] = float64(i)
	}
	tx1, ty1, sx1, sy1, err := Split(x, y, 0.7, 5)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	tx2, _, _, _, err := Split(x, y, 0.7, 5)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(tx1) != 70 || len(sx1) != 30 {
		t.Fatalf("split sizes = %d/%d, want 70/30", len(tx1), len(sx1))
	}
	for i := range tx1 {
		if tx1[i][0] != tx2[i][0] {
			t.Fatal("Split not deterministic")
		}
	}
	seen := map[float64]bool{}
	for i := range ty1 {
		seen[ty1[i]] = true
	}
	for i := range sy1 {
		if seen[sy1[i]] {
			t.Fatal("train/test share a sample")
		}
		seen[sy1[i]] = true
	}
	if len(seen) != 100 {
		t.Fatalf("split lost samples: %d", len(seen))
	}
}

func TestSearchTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := make([][]float64, 120)
	y := make([]float64, 120)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = x[i][0] + x[i][1]*x[i][2] + 0.1*x[i][3]
	}
	best, results, err := SearchTopology(x, y, RegressorConfig{
		Network: Config{InputDim: 4, Activation: Tanh, Seed: 3},
		Train:   TrainConfig{Iterations: 60, LearningRate: 0.02, Optimizer: Adam, BatchSize: 16, Seed: 3},
	})
	if err != nil {
		t.Fatalf("SearchTopology: %v", err)
	}
	if len(results) == 0 {
		t.Fatal("no topologies evaluated")
	}
	// Paper constraints: layer1 in [d, 2d], layer2 in [3, max(3, layer1/2)].
	for _, r := range results {
		if r.Hidden[0] < 4 || r.Hidden[0] > 8 {
			t.Errorf("layer1 = %d out of [4,8]", r.Hidden[0])
		}
		lim := r.Hidden[0] / 2
		if lim < 3 {
			lim = 3
		}
		if r.Hidden[1] < 3 || r.Hidden[1] > lim {
			t.Errorf("layer2 = %d out of [3,%d]", r.Hidden[1], lim)
		}
	}
	if len(best.Hidden) != 2 {
		t.Errorf("best topology %v does not have two layers", best.Hidden)
	}
	// The winner must have the minimal recorded test RMSE.
	min := math.Inf(1)
	for _, r := range results {
		if r.TestRMSE < min {
			min = r.TestRMSE
		}
	}
	for _, r := range results {
		if r.Hidden[0] == best.Hidden[0] && r.Hidden[1] == best.Hidden[1] && r.TestRMSE != min {
			t.Errorf("best topology RMSE %v != min %v", r.TestRMSE, min)
		}
	}
}

func TestSearchTopologyErrors(t *testing.T) {
	if _, _, err := SearchTopology([][]float64{{1}}, []float64{1}, RegressorConfig{Network: Config{InputDim: 1}}); err == nil {
		t.Error("expected error for tiny dataset")
	}
}

// Property: normalizer Out/Inverse round-trips any positive target.
func TestNormalizerRoundTripProperty(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []float64{0.1, 1000}
	nm, err := FitNormalizer(x, y, true)
	if err != nil {
		t.Fatal(err)
	}
	f := func(v float64) bool {
		v = math.Abs(v)
		if v > 1e12 || math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		got := nm.Inverse(nm.Out(v))
		return math.Abs(got-v) <= 1e-6*(1+v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Forward is a pure function — identical inputs give identical
// outputs and the input slice is never modified.
func TestForwardPureProperty(t *testing.T) {
	n, _ := New(Config{InputDim: 3, Hidden: []int{5, 3}, Activation: Tanh, Seed: 99})
	f := func(a, b, c float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		in := []float64{clamp(a), clamp(b), clamp(c)}
		cp := append([]float64(nil), in...)
		o1 := n.Forward(in)
		o2 := n.Forward(in)
		if o1 != o2 {
			return false
		}
		for i := range in {
			if in[i] != cp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// synthData builds a small deterministic dataset with count samples of the
// given width.
func synthData(count, dim int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, count)
	y := make([]float64, count)
	for i := range x {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = 0.4*row[0] + row[1]*row[dim-1]
	}
	return x, y
}

// PredictAll must match per-row Predict bit-for-bit.
func TestPredictAllMatchesPredict(t *testing.T) {
	x, y := synthData(150, 4, 3)
	reg, _, err := TrainRegressor(x, y, RegressorConfig{
		Network:   Config{InputDim: 4, Hidden: []int{8, 4}, Activation: Tanh, Seed: 2},
		Train:     TrainConfig{Iterations: 20, Optimizer: Adam, Seed: 2},
		LogOutput: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := reg.PredictAll(x)
	for i, row := range x {
		if want := reg.Predict(row); got[i] != want {
			t.Fatalf("PredictAll[%d] = %v, Predict = %v", i, got[i], want)
		}
	}
}

func TestSplitGuards(t *testing.T) {
	x, y := synthData(10, 2, 1)
	cases := []struct {
		name    string
		x       [][]float64
		y       []float64
		frac    float64
		wantErr bool
	}{
		{"valid", x, y, 0.7, false},
		{"frac zero", x, y, 0, true},
		{"frac one", x, y, 1, true},
		{"frac negative", x, y, -0.3, true},
		{"frac above one", x, y, 1.5, true},
		{"frac NaN", x, y, math.NaN(), true},
		{"length mismatch", x, y[:5], 0.7, true},
		{"single sample", x[:1], y[:1], 0.7, true},
		{"empty", nil, nil, 0.7, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tx, ty, sx, sy, err := Split(c.x, c.y, c.frac, 3)
			if c.wantErr {
				if err == nil {
					t.Fatal("expected error")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if len(tx) == 0 || len(sx) == 0 || len(tx) != len(ty) || len(sx) != len(sy) {
				t.Fatalf("bad split shapes: %d/%d train, %d/%d test", len(tx), len(ty), len(sx), len(sy))
			}
		})
	}
}

func TestShuffledIndicesGuards(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		wantLen int
		wantErr bool
	}{
		{"negative", -1, 0, true},
		{"very negative", -100, 0, true},
		{"zero", 0, 0, false},
		{"one", 1, 1, false},
		{"many", 17, 17, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			order, err := shuffledIndices(c.n, 9)
			if c.wantErr {
				if err == nil {
					t.Fatal("expected error")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if len(order) != c.wantLen {
				t.Fatalf("len = %d, want %d", len(order), c.wantLen)
			}
			seen := make(map[int]bool, len(order))
			for _, idx := range order {
				if idx < 0 || idx >= c.n || seen[idx] {
					t.Fatalf("order %v is not a permutation of [0,%d)", order, c.n)
				}
				seen[idx] = true
			}
		})
	}
}

// Forward must be safe for concurrent callers (concurrent queries estimate
// against shared models).
func TestForwardConcurrent(t *testing.T) {
	n, _ := New(Config{InputDim: 2, Hidden: []int{5, 3}, Activation: Tanh, Seed: 8})
	in := []float64{0.3, 0.7}
	want := n.Forward(in)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := n.Forward(in); got != want {
					t.Errorf("concurrent Forward = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
