package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"intellisphere/internal/stats"
)

// TrainConfig controls a training run. An "iteration" is one pass over the
// training set (the unit the paper's convergence plots use on their x axis).
type TrainConfig struct {
	Iterations   int     // number of epochs; must be positive
	LearningRate float64 // Adam step size; defaults to 0.01 if zero
	BatchSize    int     // mini-batch size; 0 means full batch; negative is an error
	Seed         int64   // shuffling seed
}

// TrainResult summarizes a completed run.
type TrainResult struct {
	FinalRMSE float64
}

// gradients holds one flat buffer per layer, mirroring the network's slabs.
type gradients struct {
	w [][]float64 // per layer, [out*in]
	b [][]float64 // per layer, [out]
}

func newGradients(n *Network) *gradients {
	g := &gradients{
		w: make([][]float64, len(n.layers)),
		b: make([][]float64, len(n.layers)),
	}
	for li := range n.layers {
		g.w[li] = make([]float64, len(n.layers[li].w))
		g.b[li] = make([]float64, len(n.layers[li].b))
	}
	return g
}

func (g *gradients) zero() {
	for li := range g.w {
		clear(g.w[li])
		clear(g.b[li])
	}
}

// validate is the one check Train and Regressor.Retrain both run before
// either changes anything, so a rejected call leaves the network and the
// regressor's normalizer as they were.
func (n *Network) validate(x [][]float64, y []float64, tc TrainConfig) error {
	if len(x) != len(y) {
		return stats.ErrLengthMismatch
	}
	if len(x) == 0 {
		return stats.ErrEmpty
	}
	if tc.Iterations <= 0 {
		return errors.New("nn: Iterations must be positive")
	}
	if tc.BatchSize < 0 {
		return fmt.Errorf("nn: BatchSize %d must be non-negative (0 selects full batch)", tc.BatchSize)
	}
	for i, row := range x {
		if len(row) != n.cfg.InputDim {
			return fmt.Errorf("nn: sample %d has %d dims, network wants %d", i, len(row), n.cfg.InputDim)
		}
	}
	return nil
}

// Train fits the network on (x, y) with mean-squared-error loss and Adam
// updates, one per mini-batch. Inputs are expected to be normalized already
// (see Normalizer); Train does not scale.
//
// Each mini-batch accumulates its gradients one sample at a time, in shuffle
// order, into one buffer on the calling goroutine: the models are ≈ 150
// parameters and every production batch is 32 or 64 samples, which is too
// little work to hand to a second core (DESIGN.md §6). Training is therefore
// deterministic for a fixed seed, with nothing to configure.
func (n *Network) Train(x [][]float64, y []float64, tc TrainConfig) (*TrainResult, error) {
	if err := n.validate(x, y, tc); err != nil {
		return nil, err
	}
	lr := tc.LearningRate
	if lr == 0 {
		lr = 0.01
	}
	batch := tc.BatchSize
	if batch == 0 || batch > len(x) {
		batch = len(x)
	}

	rng := rand.New(rand.NewSource(tc.Seed))
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}

	grads := newGradients(n)
	sc := newActivations(n)
	// Adam's moment estimates, shaped like the gradients.
	adamM := newGradients(n)
	adamV := newGradients(n)
	adamT := 0

	for iter := 1; iter <= tc.Iterations; iter++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			grads.zero()
			for _, idx := range order[start:end] {
				n.accumulate(x[idx], y[idx], sc, grads)
			}
			adamT++
			n.stepAdam(grads, adamM, adamV, adamT, lr, 1/float64(end-start))
		}
	}
	return &TrainResult{FinalRMSE: n.rmse(x, y)}, nil
}

// accumulate adds the gradient of the squared error at (xi, yi) into grads.
func (n *Network) accumulate(xi []float64, yi float64, sc *activations, grads *gradients) {
	out := n.forwardStore(xi, sc.acts)
	last := len(n.layers) - 1

	// Output layer delta: d(0.5*(out-y)²)/d(pre-act) with identity output.
	sc.deltas[last][0] = out - yi

	// Backpropagate through hidden layers.
	for li := last - 1; li >= 0; li-- {
		next := &n.layers[li+1]
		act := n.layers[li].act
		cur := sc.deltas[li]
		nextDeltas := sc.deltas[li+1]
		for o := range cur {
			s := 0.0
			for no := 0; no < next.out; no++ {
				s += next.w[no*next.in+o] * nextDeltas[no]
			}
			cur[o] = s * act.derivative(sc.acts[li][o])
		}
	}

	// Accumulate weight/bias gradients.
	for li := range n.layers {
		l := &n.layers[li]
		in := xi
		if li > 0 {
			in = sc.acts[li-1]
		}
		dW := grads.w[li]
		dB := grads.b[li]
		deltas := sc.deltas[li]
		for o := 0; o < l.out; o++ {
			d := deltas[o]
			dB[o] += d
			row := dW[o*l.in : (o+1)*l.in]
			for i, v := range in {
				row[i] += d * v
			}
		}
	}
}

func (n *Network) stepAdam(grads, m, v *gradients, t int, lr, scale float64) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	bc1 := 1 - math.Pow(beta1, float64(t))
	bc2 := 1 - math.Pow(beta2, float64(t))
	for li := range n.layers {
		l := &n.layers[li]
		mw, vw, gw := m.w[li], v.w[li], grads.w[li]
		for i := range l.w {
			g := gw[i] * scale
			mw[i] = beta1*mw[i] + (1-beta1)*g
			vw[i] = beta2*vw[i] + (1-beta2)*g*g
			l.w[i] -= lr * (mw[i] / bc1) / (math.Sqrt(vw[i]/bc2) + eps)
		}
		mb, vb, gb := m.b[li], v.b[li], grads.b[li]
		for o := range l.b {
			g := gb[o] * scale
			mb[o] = beta1*mb[o] + (1-beta1)*g
			vb[o] = beta2*vb[o] + (1-beta2)*g*g
			l.b[o] -= lr * (mb[o] / bc1) / (math.Sqrt(vb[o]/bc2) + eps)
		}
	}
}

// rmse computes the network's RMSE over a normalized dataset.
func (n *Network) rmse(x [][]float64, y []float64) float64 {
	ss := 0.0
	for i, row := range x {
		d := n.Forward(row) - y[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(x)))
}
