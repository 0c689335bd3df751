// Package nn implements the small feed-forward neural networks the paper's
// logical-operator costing approach trains per SQL operator (Section 3).
// The networks are deliberately modest — the paper fixes two hidden layers
// and sizes them by cross validation between the input dimensionality d and
// 2d — so everything here is plain stdlib Go: dense layers, tanh/ReLU/
// sigmoid activations, an Adam trainer, min-max (and optionally log-space)
// normalization, and the cross-validation topology search described in the
// paper.
//
// Weights live in one contiguous row-major slab per layer, so the forward
// and backward passes are tight index loops with no per-sample allocations,
// and Forward is safe for concurrent use (scratch activations come from a
// pool). The layered [][]float64 view survives only in the JSON form, so
// serialized models stay byte-compatible with earlier versions.
package nn

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Tanh Activation = iota
	ReLU
	Sigmoid
	Identity
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Identity:
		return "identity"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x > 0 {
			return x
		}
		return 0
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

// derivative computes the activation derivative given the activation OUTPUT
// value (cheaper than recomputing from the pre-activation).
func (a Activation) derivative(out float64) float64 {
	switch a {
	case Tanh:
		return 1 - out*out
	case ReLU:
		if out > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return out * (1 - out)
	default:
		return 1
	}
}

// Config describes a network: input width, hidden layer sizes, and the
// hidden-layer activation. The output layer is a single linear neuron, as
// the models regress one value (the elapsed execution time).
type Config struct {
	InputDim   int        `json:"input_dim"`
	Hidden     []int      `json:"hidden"`
	Activation Activation `json:"activation"`
	Seed       int64      `json:"seed"`
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.InputDim <= 0 {
		return fmt.Errorf("nn: input dimension %d must be positive", c.InputDim)
	}
	if len(c.Hidden) == 0 {
		return errors.New("nn: at least one hidden layer is required")
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("nn: hidden layer %d has non-positive width %d", i, h)
		}
	}
	return nil
}

// layer is one dense layer, out = act(W·in + b), with W stored as a single
// row-major slab: W[o][i] lives at w[o*in+i].
type layer struct {
	in, out int
	w       []float64 // [out*in], row-major
	b       []float64 // [out]
	act     Activation
}

func newLayer(in, out int, act Activation, rng *rand.Rand) layer {
	l := layer{
		in:  in,
		out: out,
		w:   make([]float64, out*in),
		b:   make([]float64, out),
		act: act,
	}
	// Xavier/Glorot uniform initialization keeps tiny tanh networks trainable.
	// Row-major fill preserves the draw order of the historical [][]float64
	// layout, so a given seed still produces the same network.
	limit := math.Sqrt(6 / float64(in+out))
	for i := range l.w {
		l.w[i] = (rng.Float64()*2 - 1) * limit
	}
	return l
}

func (l *layer) forward(in []float64, out []float64) {
	for o := 0; o < l.out; o++ {
		s := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, v := range in {
			s += row[i] * v
		}
		out[o] = l.act.apply(s)
	}
}

// Network is a feed-forward regression network with one linear output.
type Network struct {
	cfg      Config
	layers   []layer
	maxWidth int
	// scratch pools forward-pass activation buffers so Forward allocates
	// nothing in steady state yet stays safe under concurrent callers.
	scratch sync.Pool
}

// New constructs a network with randomly initialized weights drawn from the
// seeded generator in cfg.Seed, so construction is fully deterministic.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{cfg: cfg}
	prev := cfg.InputDim
	for _, h := range cfg.Hidden {
		n.layers = append(n.layers, newLayer(prev, h, cfg.Activation, rng))
		prev = h
	}
	n.layers = append(n.layers, newLayer(prev, 1, Identity, rng))
	n.initScratch()
	return n, nil
}

func (n *Network) initScratch() {
	n.maxWidth = 0
	for i := range n.layers {
		if w := n.layers[i].out; w > n.maxWidth {
			n.maxWidth = w
		}
	}
	width := n.maxWidth
	n.scratch.New = func() any {
		buf := make([]float64, 2*width)
		return &buf
	}
}

// Forward runs inference on a single (already normalized) input vector and
// returns the raw network output. It is safe for concurrent use.
func (n *Network) Forward(x []float64) float64 {
	if len(x) != n.cfg.InputDim {
		panic(fmt.Sprintf("nn: Forward with %d inputs on a %d-input network", len(x), n.cfg.InputDim))
	}
	bufp := n.scratch.Get().(*[]float64)
	buf := *bufp
	in := x
	cur, next := buf[:n.maxWidth], buf[n.maxWidth:]
	for i := range n.layers {
		l := &n.layers[i]
		l.forward(in, cur[:l.out])
		in = cur[:l.out]
		cur, next = next, cur
	}
	res := in[0]
	n.scratch.Put(bufp)
	return res
}

// ForwardBatch is Forward over each row of xs, written into dst (allocated
// when nil). Nothing in this module calls it: it stays only because
// bench/layers.go (nn.forward_batch_us_per_row) compiles against it and a
// non-benchmark change may not edit bench/. Retiring that ledger row lets
// this go too.
func (n *Network) ForwardBatch(xs [][]float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(xs))
	}
	for i, row := range xs {
		dst[i] = n.Forward(row)
	}
	return dst
}

// activations is one training run's forward/backward scratch area: one flat
// slab holding every layer's activation and delta vectors.
type activations struct {
	acts   [][]float64
	deltas [][]float64
}

func newActivations(n *Network) *activations {
	a := &activations{
		acts:   make([][]float64, len(n.layers)),
		deltas: make([][]float64, len(n.layers)),
	}
	total := 0
	for i := range n.layers {
		total += n.layers[i].out
	}
	slab := make([]float64, 2*total)
	off := 0
	for i := range n.layers {
		w := n.layers[i].out
		a.acts[i] = slab[off : off+w : off+w]
		off += w
		a.deltas[i] = slab[off : off+w : off+w]
		off += w
	}
	return a
}

// forwardStore runs a forward pass writing the activations of every layer
// into dst and returns the output.
func (n *Network) forwardStore(x []float64, dst [][]float64) float64 {
	in := x
	for i := range n.layers {
		n.layers[i].forward(in, dst[i])
		in = dst[i]
	}
	return in[0]
}

// snapshot is the serializable form of a network.
type snapshot struct {
	Config Config      `json:"config"`
	Layers []layerSnap `json:"layers"`
}

type layerSnap struct {
	W   [][]float64 `json:"w"`
	B   []float64   `json:"b"`
	Act Activation  `json:"act"`
}

// MarshalJSON serializes the full network (topology + weights) so trained
// models can be stored inside a remote system's costing profile. The wire
// format keeps the historical nested-row layout.
func (n *Network) MarshalJSON() ([]byte, error) {
	s := snapshot{Config: n.cfg}
	for li := range n.layers {
		l := &n.layers[li]
		rows := make([][]float64, l.out)
		for o := 0; o < l.out; o++ {
			rows[o] = append([]float64(nil), l.w[o*l.in:(o+1)*l.in]...)
		}
		s.Layers = append(s.Layers, layerSnap{W: rows, B: append([]float64(nil), l.b...), Act: l.act})
	}
	return json.Marshal(s)
}

// UnmarshalJSON restores a network serialized by MarshalJSON.
func (n *Network) UnmarshalJSON(data []byte) error {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("nn: decode network: %w", err)
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if len(s.Layers) != len(s.Config.Hidden)+1 {
		return fmt.Errorf("nn: snapshot has %d layers, config wants %d", len(s.Layers), len(s.Config.Hidden)+1)
	}
	n.cfg = s.Config
	n.layers = nil
	prev := s.Config.InputDim
	for li, ls := range s.Layers {
		out := len(ls.W)
		if out == 0 || len(ls.B) != out {
			return fmt.Errorf("nn: snapshot layer %d has %d weight rows and %d biases", li, out, len(ls.B))
		}
		l := layer{in: prev, out: out, w: make([]float64, out*prev), b: append([]float64(nil), ls.B...), act: ls.Act}
		for o, row := range ls.W {
			if len(row) != prev {
				return fmt.Errorf("nn: snapshot layer %d row %d has %d weights, want %d", li, o, len(row), prev)
			}
			copy(l.w[o*prev:(o+1)*prev], row)
		}
		n.layers = append(n.layers, l)
		prev = out
	}
	n.initScratch()
	return nil
}
