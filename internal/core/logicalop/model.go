package logicalop

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"intellisphere/internal/nn"
	"intellisphere/internal/regress"
	"intellisphere/internal/stats"
)

// beta is the out-of-range threshold multiplier (Section 3): a value is
// "way off" when it leaves the trained range by more than beta·stepSize.
const beta = 2

// initialAlpha is the starting NN weight in the remedy combination (paper:
// 0.5).
const initialAlpha = 0.5

// Config tunes one logical-operator model.
type Config struct {
	// NeighborK is the remedy's base neighborhood size: the regression uses
	// the NeighborK pivot-nearest training records per pivot dimension.
	// Defaults to 12.
	NeighborK int
	// NN configures the network and its training run.
	NN nn.RegressorConfig
}

// DefaultConfig returns the paper's settings for an operator with d input
// dimensions: two hidden layers sized (2d, d), tanh activations, Adam,
// log-space targets.
func DefaultConfig(inputDim int, seed int64) Config {
	return Config{
		NeighborK: 12,
		NN: nn.RegressorConfig{
			Network: nn.Config{
				InputDim:   inputDim,
				Hidden:     []int{2 * inputDim, inputDim},
				Activation: nn.Tanh,
				Seed:       seed,
			},
			Train: nn.TrainConfig{
				Iterations:   1500,
				LearningRate: 0.01,
				BatchSize:    64,
				Seed:         seed,
			},
			LogOutput: true,
		},
	}
}

func (c *Config) normalize(inputDim int) error {
	if c.NeighborK <= 1 {
		c.NeighborK = 12
	}
	if c.NN.Network.InputDim == 0 {
		c.NN.Network.InputDim = inputDim
	}
	if c.NN.Network.InputDim != inputDim {
		return fmt.Errorf("logicalop: config input dim %d != operator dim %d", c.NN.Network.InputDim, inputDim)
	}
	if len(c.NN.Network.Hidden) == 0 {
		c.NN.Network.Hidden = []int{2 * inputDim, inputDim}
	}
	if c.NN.Train.Iterations == 0 {
		c.NN.Train.Iterations = 1500
	}
	return nil
}

// Record is one logged execution: the operator's input dimensions, the
// actual elapsed seconds, and — when the online remedy produced the estimate
// — the two component predictions, kept for the α re-fit.
type Record struct {
	X      []float64 `json:"x"`
	Actual float64   `json:"actual"`
	// NNSec/RegSec are the remedy components at estimation time; both zero
	// when the estimate was fully in-range.
	NNSec  float64 `json:"nn_sec,omitempty"`
	RegSec float64 `json:"reg_sec,omitempty"`
}

// Estimate is a logical-op prediction with its remedy provenance.
type Estimate struct {
	Seconds    float64
	OutOfRange bool
	PivotDims  []int   // indexes of dimensions that were way off range
	NNSeconds  float64 // network component (= Seconds when in range)
	RegSeconds float64 // remedy regression component (0 when in range)
}

// Model is one trained logical-operator costing model (one per operator
// kind, e.g. the seven-dimension join model of Figure 2).
type Model struct {
	// mu is reader/writer: the serving path (Estimate and the
	// accessors) shares the read lock — safe because nn.Regressor prediction
	// is concurrency-safe and everything else those paths touch is only
	// written under the exclusive lock, which the mutators (Observe, SeedLog,
	// RefitAlpha, OfflineTune, SetAlpha, SetNeighborK) take. Concurrent estimates on different cores no longer
	// serialize on each other.
	mu       sync.RWMutex
	kind     string
	dimNames []string
	dims     []DimensionMeta
	reg      *nn.Regressor
	alpha    float64
	cfg      Config

	trainX [][]float64
	trainY []float64
	logRec []Record
}

// Train executes the logical-op model-building phase over an already
// collected training dataset (inputs are the operator dimension vectors,
// targets the observed elapsed seconds on the remote system). It derives
// the per-dimension metadata and fits the network with NN.Network as given;
// the result reports the final training RMSE.
func Train(kind string, dimNames []string, x [][]float64, y []float64, cfg Config) (*Model, *nn.TrainResult, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, nil, fmt.Errorf("logicalop: need a non-empty aligned training set (%d inputs, %d targets)", len(x), len(y))
	}
	d := len(dimNames)
	if d == 0 {
		return nil, nil, errors.New("logicalop: dimension names are required")
	}
	for i, row := range x {
		if len(row) != d {
			return nil, nil, fmt.Errorf("logicalop: training row %d has %d dims, want %d", i, len(row), d)
		}
	}
	if err := cfg.normalize(d); err != nil {
		return nil, nil, err
	}

	dims := make([]DimensionMeta, d)
	col := make([]float64, len(x))
	for j := 0; j < d; j++ {
		for i := range x {
			col[i] = x[i][j]
		}
		m, err := NewDimensionMeta(dimNames[j], col)
		if err != nil {
			return nil, nil, err
		}
		dims[j] = m
	}

	reg, res, err := nn.TrainRegressor(x, y, cfg.NN)
	if err != nil {
		return nil, nil, fmt.Errorf("logicalop: train %s model: %w", kind, err)
	}

	m := &Model{
		kind:     kind,
		dimNames: dimNames,
		dims:     dims,
		reg:      reg,
		alpha:    initialAlpha,
		cfg:      cfg,
		trainX:   cloneMatrix(x),
		trainY:   append([]float64(nil), y...),
	}
	return m, res, nil
}

func cloneMatrix(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i := range x {
		out[i] = append([]float64(nil), x[i]...)
	}
	return out
}

// Alpha returns the current remedy combination weight.
func (m *Model) Alpha() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.alpha
}

// SetAlpha overrides the combination weight (the experiments use it to
// reproduce the fixed-α variant of Figure 14). Values outside (0,1) are
// clamped.
func (m *Model) SetAlpha(a float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alpha = clampAlpha(a)
}

// SetNeighborK overrides the remedy's base neighborhood size (ablations).
// Values below 2 are ignored.
func (m *Model) SetNeighborK(k int) {
	if k < 2 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg.NeighborK = k
}

func clampAlpha(a float64) float64 {
	if a < 0.05 {
		return 0.05
	}
	if a > 0.95 {
		return 0.95
	}
	return a
}

// Dimensions returns a copy of the per-dimension metadata.
func (m *Model) Dimensions() []DimensionMeta {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]DimensionMeta(nil), m.dims...)
}

// PendingLog returns the number of logged executions awaiting offline
// tuning.
func (m *Model) PendingLog() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.logRec)
}

// Estimate predicts the cost of an operator instance following the Figure 3
// flowchart: if every input dimension is within (or near) the trained
// range, the network answers alone; otherwise the QueryTime-Remedy procedure
// combines the network with an on-the-fly pivot regression.
func (m *Model) Estimate(x []float64) (Estimate, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(x) != len(m.dims) {
		return Estimate{}, fmt.Errorf("logicalop: %s estimate with %d dims, want %d", m.kind, len(x), len(m.dims))
	}
	pivots := m.pivotDims(x)
	nnSec := m.reg.Predict(x)
	if nnSec < 0 {
		nnSec = 0
	}
	if len(pivots) == 0 {
		return Estimate{Seconds: nnSec, NNSeconds: nnSec}, nil
	}
	regSec, err := m.remedyRegression(x, pivots)
	if err != nil {
		// Remedy could not build a regression (degenerate neighborhood);
		// fall back to the network alone rather than failing the query.
		return Estimate{Seconds: nnSec, OutOfRange: true, PivotDims: pivots, NNSeconds: nnSec}, nil
	}
	if regSec < 0 {
		regSec = 0
	}
	sec := m.alpha*nnSec + (1-m.alpha)*regSec
	return Estimate{
		Seconds:    sec,
		OutOfRange: true,
		PivotDims:  pivots,
		NNSeconds:  nnSec,
		RegSeconds: regSec,
	}, nil
}

// pivotDims returns the dimensions whose value is way off the trained range
// (beyond β·stepSize outside [min,max] and every island). Caller holds m.mu.
func (m *Model) pivotDims(x []float64) []int {
	var out []int
	for j, v := range x {
		if !m.dims[j].InRange(v, beta) {
			out = append(out, j)
		}
	}
	return out
}

// remedyRegression implements QueryTime-Remedy(): select the k training
// records whose pivot values are the nearest predecessors/successors of the
// query's (closeness on the in-range dimensions breaks ties), weight each by
// that in-range closeness, then fit a linear regression over the pivot
// dimensions and extrapolate. Caller holds m.mu.
func (m *Model) remedyRegression(x []float64, pivots []int) (float64, error) {
	isPivot := make([]bool, len(x))
	for _, p := range pivots {
		isPivot[p] = true
	}

	type cand struct {
		idx       int
		inDist    float64 // normalized distance on in-range dims
		pivotDist float64 // distance on pivot dims (prefers closest edge)
	}
	cands := make([]cand, 0, len(m.trainX))
	for i, row := range m.trainX {
		var din, dpv float64
		for j := range row {
			span := m.dims[j].Span()
			if span <= 0 {
				span = 1
			}
			d := (row[j] - x[j]) / span
			if isPivot[j] {
				dpv += d * d
			} else {
				din += d * d
			}
		}
		cands = append(cands, cand{idx: i, inDist: din, pivotDist: dpv})
	}
	// Rank by pivot closeness first (immediate predecessors/successors), then
	// by in-range closeness (match the query's context).
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].pivotDist != cands[b].pivotDist {
			return cands[a].pivotDist < cands[b].pivotDist
		}
		if cands[a].inDist != cands[b].inDist {
			return cands[a].inDist < cands[b].inDist
		}
		return cands[a].idx < cands[b].idx
	})
	// The regression needs spread along every pivot dimension to produce a
	// stable slope, so the neighborhood scales with the pivot count.
	k := m.cfg.NeighborK * len(pivots)
	if k > len(cands) {
		k = len(cands)
	}
	if k < len(pivots)+2 {
		return 0, errors.New("logicalop: not enough training points for remedy regression")
	}
	sel := cands[:k]

	px := make([][]float64, 0, len(sel))
	py := make([]float64, 0, len(sel))
	weights := make([]float64, 0, len(sel))
	maxY := 0.0
	// Bandwidth for the context weighting: the neighborhood's median
	// in-range distance.
	h := sel[len(sel)/2].inDist
	if h <= 0 {
		h = 1e-6
	}
	for _, c := range sel {
		vec := make([]float64, len(pivots))
		for pi, p := range pivots {
			vec[pi] = m.trainX[c.idx][p]
		}
		px = append(px, vec)
		py = append(py, m.trainY[c.idx])
		weights = append(weights, 1/(1+c.inDist/h))
		if m.trainY[c.idx] > maxY {
			maxY = m.trainY[c.idx]
		}
	}
	q := make([]float64, len(pivots))
	for pi, p := range pivots {
		q[pi] = x[p]
	}
	mod, err := regress.FitWeighted(px, py, weights)
	if err == nil {
		pred := mod.Predict(q)
		// Sanity band: an extrapolation below the neighborhood's scale or
		// implausibly far above it means the local plane was noise-fitted.
		if pred > 0.1*maxY && pred < 100*maxY {
			return pred, nil
		}
	}
	return remedyFallback(px, py, q)
}

// remedyFallback extrapolates when the local regression is degenerate or
// produces an implausible value: the neighborhood's mean cost is scaled
// linearly with the total pivot volume (pivot dimensions are cardinalities,
// and operator cost is near-linear in them).
func remedyFallback(px [][]float64, py []float64, q []float64) (float64, error) {
	if len(px) == 0 {
		return 0, errors.New("logicalop: empty remedy neighborhood")
	}
	meanY := 0.0
	meanVol := 0.0
	for i, row := range px {
		meanY += py[i]
		for _, v := range row {
			meanVol += v
		}
	}
	meanY /= float64(len(px))
	meanVol /= float64(len(px))
	if meanVol <= 0 || meanY <= 0 {
		return 0, errors.New("logicalop: degenerate remedy neighborhood")
	}
	qVol := 0.0
	for _, v := range q {
		qVol += v
	}
	return meanY * qVol / meanVol, nil
}

// Observe logs an executed operator (Figure 3's logging phase). When the
// estimate came from the remedy, pass its components so the α re-fit can
// use them; otherwise pass zeros. A record that is not the model's input
// width is dropped: in the log it would fail every OfflineTune until it aged
// out.
func (m *Model) Observe(x []float64, actualSec, nnSec, regSec float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(x) != len(m.dims) {
		return
	}
	m.appendLog(Record{
		X:      append([]float64(nil), x...),
		Actual: actualSec,
		NNSec:  nnSec,
		RegSec: regSec,
	})
}

// maxLogRecords bounds the pending execution log. Only OfflineTune empties
// it, so on a server whose tuner is off, or whose candidates keep being
// rejected, it would otherwise grow by one record per executed step for ever
// (and every TuneCandidate deep-copies all of it). Far above what a tune
// needs (the tuner asks for tens of records) or an experiment logs (45).
const maxLogRecords = 4096

// appendLog adds one record, dropping the oldest at the bound: the holdout
// and the α re-fit want the newest. Caller holds m.mu. Slicing the head off
// costs nothing per record; append moves the live records to a fresh array
// when this one runs out, which also lets go of the dropped ones.
func (m *Model) appendLog(r Record) {
	if len(m.logRec) >= maxLogRecords {
		m.logRec = m.logRec[1:]
	}
	m.logRec = append(m.logRec, r)
}

// LogRecords returns a deep copy of the pending execution log. The tuner
// uses it to carry the live model's log into a candidate clone (the model
// JSON wire format deliberately excludes the log, so a serialized clone
// starts empty) and to hold out the most recent records for shadow scoring.
func (m *Model) LogRecords() []Record {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Record, len(m.logRec))
	for i, r := range m.logRec {
		out[i] = r
		out[i].X = append([]float64(nil), r.X...)
	}
	return out
}

// SeedLog appends records to the pending execution log (deep-copied), so a
// candidate clone can be tuned from another model's logged executions. The
// records are taken as that model's Observe already took them; OfflineTune
// still refuses a log that holds one of the wrong width.
func (m *Model) SeedLog(recs []Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		r.X = append([]float64(nil), r.X...)
		m.appendLog(r)
	}
}

// RefitAlpha recomputes α from the remedy-produced log records, minimizing
// the squared error of α·c1 + (1-α)·c2 against the observed costs (the
// closed-form least-squares solution, clamped to [0.05, 0.95]). Returns the
// new α and the number of records used.
func (m *Model) RefitAlpha() (float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var num, den float64
	n := 0
	for _, r := range m.logRec {
		if r.NNSec == 0 && r.RegSec == 0 {
			continue // in-range execution: no remedy components
		}
		d := r.NNSec - r.RegSec
		num += (r.Actual - r.RegSec) * d
		den += d * d
		n++
	}
	if n == 0 || den == 0 {
		return m.alpha, 0
	}
	m.alpha = clampAlpha(num / den)
	return m.alpha, n
}

// OfflineTune folds the execution log into the model (Section 3's offline
// batch tuning): the logged records join the training set, the network
// retrains on everything, and each dimension's metadata absorbs the new
// values under the continuity rule. The log is cleared on success; a call
// that returns an error has changed nothing, so it can simply be retried.
func (m *Model) OfflineTune(tc nn.TrainConfig) (*nn.TrainResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.logRec) == 0 {
		return nil, errors.New("logicalop: no logged executions to tune on")
	}
	// The combined set is built beside the model's own (clipped, so append
	// copies) and committed only once Retrain, which validates before it
	// touches anything, has taken it.
	n := len(m.trainX)
	allX, allY := slices.Clip(m.trainX), slices.Clip(m.trainY)
	for _, r := range m.logRec {
		allX = append(allX, slices.Clone(r.X))
		allY = append(allY, r.Actual)
	}
	if _, err := m.reg.Retrain(allX, allY, tc); err != nil {
		return nil, fmt.Errorf("logicalop: offline tune: %w", err)
	}
	m.trainX, m.trainY = allX, allY
	newX := allX[n:]
	col := make([]float64, len(newX))
	for j := range m.dims {
		for i := range newX {
			col[i] = newX[i][j]
		}
		m.dims[j].Absorb(col, beta)
	}
	m.logRec = nil
	// Retrain on the combined set; report final RMSE on it.
	pred := m.reg.PredictAll(m.trainX)
	rm, err := stats.RMSE(pred, m.trainY)
	if err != nil {
		rm = math.NaN()
	}
	return &nn.TrainResult{FinalRMSE: rm}, nil
}
