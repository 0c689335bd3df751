package mix

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"intellisphere/internal/demo"
	"intellisphere/internal/engine"
)

// zipfMix mirrors the benchmark's headline workload.
var zipfMix = Config{Seed: 1, Shapes: 2048, ZipfS: 1.1, Distinct: 0.2, Local: 0.005}

func streamHash(cfg Config, n int) string {
	g := New(cfg)
	h := sha256.New()
	for i := 0; i < n; i++ {
		h.Write([]byte(g.Next()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameStream(t *testing.T) {
	// Pinned: a change to the generator changes what every workload sends,
	// so it must show up here and be re-baselined on purpose.
	const want = "a1f0db50693f18a7b0ef3c79ae0e6918329bc99a129b3c1d299396d834ef190b"
	got := streamHash(zipfMix, 20000)
	if got != streamHash(zipfMix, 20000) {
		t.Fatal("same seed produced two different streams")
	}
	if got != want {
		t.Fatalf("stream hash for seed 1 = %s, pinned %s", got, want)
	}
	other := zipfMix
	other.Seed = 2
	if streamHash(other, 20000) == got {
		t.Fatal("seeds 1 and 2 produced the same stream")
	}
}

func TestDistinctDial(t *testing.T) {
	const n = 200000
	for _, dial := range []float64{0, 0.2, 1} {
		cfg := zipfMix
		cfg.Distinct = dial
		g := New(cfg)
		recurring := map[string]bool{}
		for _, s := range g.Shapes() {
			recurring[s] = true
		}
		for _, s := range g.local {
			recurring[s.sql(s.lit)] = true
		}
		seen := make(map[string]bool, n)
		fresh := 0
		for i := 0; i < n; i++ {
			s := g.Next()
			if !recurring[s] {
				if seen[s] {
					t.Fatalf("dial %v: never-seen statement repeated: %s", dial, s)
				}
				fresh++
			}
			seen[s] = true
		}
		if got := float64(fresh) / n; math.Abs(got-dial) > 0.01 {
			t.Errorf("dial %v: %.4f of the stream was never-seen", dial, got)
		}
	}
}

func TestShapesAreDistinctAndRoundRobin(t *testing.T) {
	g := New(Config{Seed: 3, Shapes: 64})
	shapes := g.Shapes()
	seen := map[string]bool{}
	for _, s := range shapes {
		if seen[s] {
			t.Fatalf("duplicate shape %q", s)
		}
		seen[s] = true
	}
	for i := 0; i < 3*len(shapes); i++ {
		if got := g.Next(); got != shapes[i%len(shapes)] {
			t.Fatalf("statement %d = %q, want shape %d", i, got, i%len(shapes))
		}
	}
}

func demoEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng, err := demo.Build(demo.Config{Seed: 1, LogicalRemote: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEveryStatementPlans covers the whole shape grid, the local pool and
// never-seen literals against the federation cmd/serve boots.
func TestEveryStatementPlans(t *testing.T) {
	eng := demoEngine(t)
	cfg := zipfMix
	cfg.Local = 0.05
	g := New(cfg)
	stmts := g.Shapes()
	for i := 0; i < 5000; i++ {
		stmts = append(stmts, g.Next())
	}
	for _, s := range stmts {
		if _, err := eng.Explain(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

// TestLocalStatementsReturnRows pins that the local pool really reaches the
// row engine, and that nothing else does.
func TestLocalStatementsReturnRows(t *testing.T) {
	eng := demoEngine(t)
	g := New(Config{Seed: 1, Shapes: 64})
	for _, s := range g.local {
		res, err := eng.Query(s.sql(s.lit))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows == nil || len(res.Rows.Rows) == 0 {
			t.Fatalf("%s returned no rows", s.sql(s.lit))
		}
	}
	for _, s := range g.Shapes() {
		res, err := eng.Query(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != nil {
			t.Fatalf("%s reached the row engine", s)
		}
	}
}
