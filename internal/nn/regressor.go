package nn

import (
	"errors"
	"fmt"
	"math"

	"intellisphere/internal/parallel"
	"intellisphere/internal/stats"
)

// Normalizer rescales raw operator dimensions into the [0,1] ranges a tanh
// network trains well on, and (optionally) regresses the target in log space.
// Elapsed execution times span several orders of magnitude across the
// training configurations of Figure 10, so log-space targets substantially
// stabilize training; the ablation bench quantifies this choice.
type Normalizer struct {
	InMin  []float64 `json:"in_min"`
	InMax  []float64 `json:"in_max"`
	OutMin float64   `json:"out_min"`
	OutMax float64   `json:"out_max"`
	LogOut bool      `json:"log_out"`
}

// FitNormalizer learns min/max bounds from the training data. When logOut is
// set, targets pass through log1p before scaling.
func FitNormalizer(x [][]float64, y []float64, logOut bool) (*Normalizer, error) {
	if len(x) == 0 || len(y) == 0 {
		return nil, stats.ErrEmpty
	}
	if len(x) != len(y) {
		return nil, stats.ErrLengthMismatch
	}
	d := len(x[0])
	nm := &Normalizer{
		InMin:  make([]float64, d),
		InMax:  make([]float64, d),
		LogOut: logOut,
	}
	copy(nm.InMin, x[0])
	copy(nm.InMax, x[0])
	for _, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("nn: inconsistent input width %d (want %d)", len(row), d)
		}
		for i, v := range row {
			if v < nm.InMin[i] {
				nm.InMin[i] = v
			}
			if v > nm.InMax[i] {
				nm.InMax[i] = v
			}
		}
	}
	first := nm.target(y[0])
	nm.OutMin, nm.OutMax = first, first
	for _, v := range y[1:] {
		t := nm.target(v)
		if t < nm.OutMin {
			nm.OutMin = t
		}
		if t > nm.OutMax {
			nm.OutMax = t
		}
	}
	return nm, nil
}

func (nm *Normalizer) target(y float64) float64 {
	if nm.LogOut {
		if y < 0 {
			y = 0
		}
		return math.Log1p(y)
	}
	return y
}

func (nm *Normalizer) untarget(t float64) float64 {
	if nm.LogOut {
		return math.Expm1(t)
	}
	return t
}

// In normalizes a raw input vector into [0,1] per dimension. Values beyond
// the learned range extrapolate linearly past the bounds (this is exactly
// the regime where the paper shows raw networks degrade).
func (nm *Normalizer) In(x []float64) []float64 {
	return nm.InTo(make([]float64, 0, len(x)), x)
}

// InTo is the append-into variant of In: normalized values are appended to
// dst (reusing its capacity) and the extended slice is returned. PredictAll
// uses it to normalize every row into one buffer.
func (nm *Normalizer) InTo(dst []float64, x []float64) []float64 {
	for i, v := range x {
		span := nm.InMax[i] - nm.InMin[i]
		if span == 0 {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, (v-nm.InMin[i])/span)
	}
	return dst
}

// Out normalizes a raw target.
func (nm *Normalizer) Out(y float64) float64 {
	span := nm.OutMax - nm.OutMin
	if span == 0 {
		return 0
	}
	return (nm.target(y) - nm.OutMin) / span
}

// Inverse maps a normalized network output back into raw target units.
func (nm *Normalizer) Inverse(t float64) float64 {
	span := nm.OutMax - nm.OutMin
	return nm.untarget(t*span + nm.OutMin)
}

// Regressor couples a trained network with its normalizer so callers predict
// directly in raw units (rows, bytes → seconds).
type Regressor struct {
	Net  *Network    `json:"net"`
	Norm *Normalizer `json:"norm"`
}

// RegressorConfig bundles everything needed to train a Regressor.
type RegressorConfig struct {
	Network   Config
	Train     TrainConfig
	LogOutput bool
}

// TrainRegressor normalizes the dataset, trains a fresh network on it, and
// returns the ready-to-use regressor together with its final training RMSE.
func TrainRegressor(x [][]float64, y []float64, cfg RegressorConfig) (*Regressor, *TrainResult, error) {
	norm, err := FitNormalizer(x, y, cfg.LogOutput)
	if err != nil {
		return nil, nil, err
	}
	net, err := New(cfg.Network)
	if err != nil {
		return nil, nil, err
	}
	nx := make([][]float64, len(x))
	ny := make([]float64, len(y))
	for i := range x {
		nx[i] = norm.In(x[i])
		ny[i] = norm.Out(y[i])
	}
	res, err := net.Train(nx, ny, cfg.Train)
	if err != nil {
		return nil, nil, err
	}
	return &Regressor{Net: net, Norm: norm}, res, nil
}

// Predict returns the regressor's estimate in raw target units.
func (r *Regressor) Predict(x []float64) float64 {
	return r.Norm.Inverse(r.Net.Forward(r.Norm.In(x)))
}

// PredictAll is Predict over every row of a dataset, reusing one normalized
// row so a call allocates only its result.
func (r *Regressor) PredictAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	row := make([]float64, 0, r.Net.cfg.InputDim)
	for i, xi := range x {
		row = r.Norm.InTo(row[:0], xi)
		out[i] = r.Norm.Inverse(r.Net.Forward(row))
	}
	return out
}

// Retrain continues training the existing network on a (typically enlarged)
// dataset — this is the offline tuning step: logged executions are appended
// to the training set and the model re-fits. The normalizer bounds expand to
// cover the new data so previously out-of-range points become in-range. A
// call that returns an error has changed neither the bounds nor the network.
func (r *Regressor) Retrain(x [][]float64, y []float64, tc TrainConfig) (*TrainResult, error) {
	if err := r.Net.validate(x, y, tc); err != nil {
		return nil, err
	}
	for _, row := range x {
		for i, v := range row {
			if v < r.Norm.InMin[i] {
				r.Norm.InMin[i] = v
			}
			if v > r.Norm.InMax[i] {
				r.Norm.InMax[i] = v
			}
		}
	}
	for _, v := range y {
		t := r.Norm.target(v)
		if t < r.Norm.OutMin {
			r.Norm.OutMin = t
		}
		if t > r.Norm.OutMax {
			r.Norm.OutMax = t
		}
	}
	nx := make([][]float64, len(x))
	ny := make([]float64, len(y))
	for i := range x {
		nx[i] = r.Norm.In(x[i])
		ny[i] = r.Norm.Out(y[i])
	}
	return r.Net.Train(nx, ny, tc)
}

// TopologyResult records the cross-validation outcome for one candidate
// hidden-layer configuration.
type TopologyResult struct {
	Hidden   []int
	TestRMSE float64
}

// SearchTopology implements the paper's topology selection: two hidden
// layers, the first sized between the input dimensionality d and 2d, the
// second between 3 and half the first layer's width; each candidate is
// trained on 70% of the data and scored by RMSE on the held-out 30%, and the
// lowest-error topology wins. The split is deterministic given seed.
func SearchTopology(x [][]float64, y []float64, base RegressorConfig) (Config, []TopologyResult, error) {
	if len(x) != len(y) {
		return Config{}, nil, stats.ErrLengthMismatch
	}
	if len(x) < 10 {
		return Config{}, nil, errors.New("nn: topology search needs at least 10 samples")
	}
	d := base.Network.InputDim
	trainX, trainY, testX, testY, err := Split(x, y, 0.7, base.Network.Seed)
	if err != nil {
		return Config{}, nil, err
	}

	// Enumerate every candidate topology first, then train them across the
	// cores: each candidate is an independent training run, and the candidate
	// list is in a fixed order, so the fan-out changes nothing but wall clock.
	var hiddens [][]int
	for h1 := d; h1 <= 2*d; h1++ {
		maxH2 := h1 / 2
		if maxH2 < 3 {
			maxH2 = 3
		}
		for h2 := 3; h2 <= maxH2; h2++ {
			hiddens = append(hiddens, []int{h1, h2})
		}
	}
	results, err := parallel.Map(len(hiddens), func(i int) (TopologyResult, error) {
		cfg := base
		cfg.Network.Hidden = hiddens[i]
		reg, _, err := TrainRegressor(trainX, trainY, cfg)
		if err != nil {
			return TopologyResult{}, err
		}
		rm, err := stats.RMSE(reg.PredictAll(testX), testY)
		if err != nil {
			return TopologyResult{}, err
		}
		return TopologyResult{Hidden: hiddens[i], TestRMSE: rm}, nil
	})
	if err != nil {
		return Config{}, nil, err
	}
	best := Config{}
	bestErr := math.Inf(1)
	for _, r := range results {
		if r.TestRMSE < bestErr {
			bestErr = r.TestRMSE
			best = base.Network
			best.Hidden = r.Hidden
		}
	}
	return best, results, nil
}

// Split partitions a dataset into train/test shares deterministically. frac
// is the training share and must lie strictly inside (0,1); the dataset
// needs at least two samples so both shares end up non-empty.
func Split(x [][]float64, y []float64, frac float64, seed int64) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64, err error) {
	if len(x) != len(y) {
		return nil, nil, nil, nil, stats.ErrLengthMismatch
	}
	if len(x) < 2 {
		return nil, nil, nil, nil, fmt.Errorf("nn: Split needs at least 2 samples, got %d", len(x))
	}
	if !(frac > 0 && frac < 1) {
		return nil, nil, nil, nil, fmt.Errorf("nn: Split frac %v must lie in (0,1)", frac)
	}
	order, err := shuffledIndices(len(x), seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cut := int(frac * float64(len(x)))
	if cut < 1 {
		cut = 1
	}
	if cut >= len(x) {
		cut = len(x) - 1
	}
	for i, idx := range order {
		if i < cut {
			trainX = append(trainX, x[idx])
			trainY = append(trainY, y[idx])
		} else {
			testX = append(testX, x[idx])
			testY = append(testY, y[idx])
		}
	}
	return trainX, trainY, testX, testY, nil
}

func shuffledIndices(n int, seed int64) ([]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("nn: shuffledIndices with negative count %d", n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// xorshift-style deterministic shuffle independent of math/rand to keep
	// the split stable even if the standard library's shuffle changes.
	s := uint64(seed)*2862933555777941757 + 3037000493
	for i := n - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order, nil
}
