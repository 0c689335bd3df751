// Package mix generates the benchmark's seeded statement streams: three
// templates (filtered scan, group-by, two-table join) over the demo
// federation's hive / spark / presto / flink / master tables, crossed with
// literal distributions, a Zipf popularity table, and a dial for the share of
// statements that carry a literal the server has never seen.
//
// The shape grid (which template, tables, columns and selectivity band a
// popularity rank gets) is fixed by the rank, not by the seed: a workload
// keeps its character from seed to seed, so metrics that average over the
// answers (estimator q-error, plan cost) are comparable across seeds. The
// seed drives everything else: each shape's literal, the order statements
// are drawn in, and which draws get a never-seen literal. The server only
// ever sees the generated SQL text.
package mix

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Config selects one stream.
type Config struct {
	// Seed drives every random choice; the same seed yields a byte-identical
	// stream.
	Seed int64
	// Shapes is the number of distinct recurring statements.
	Shapes int
	// ZipfS is the Zipf popularity exponent over the shapes (must exceed 1).
	// Zero replays the shapes round-robin instead.
	ZipfS float64
	// Distinct is the share of statements sent with a never-seen literal:
	// text no earlier statement of the stream had, so every server-side
	// cache keyed on statement text misses.
	Distinct float64
	// Local is the share of statements over the materialized table, which
	// the server answers with real rows from its row engine.
	Local float64
}

// table is one demo-federation table the generator may reference.
type table struct {
	name string
	rows float64
}

// systems lists, per owning system, the tables of
// demo.BuildFederation{LogicalRemote: true} that are not materialized. The
// generator test plans every template against that federation, so a drift
// between this list and the demo fails there.
var systems = [][]table{
	{ // hive, sizes interleaved so a short shape list still spans them
		{"t1000000_100", 1e6}, {"t10000_250", 1e4}, {"t80000000_250", 8e7},
		{"t100000_1000", 1e5}, {"t10000000_100", 1e7}, {"t1000000_1000", 1e6},
		{"t10000_1000", 1e4}, {"t80000000_100", 8e7}, {"t100000_250", 1e5},
		{"t10000000_1000", 1e7}, {"t1000000_250", 1e6}, {"t80000000_1000", 8e7},
		{"t10000000_250", 1e7},
	},
	{{"events", 2e6}, {"users", 2e5}},              // spark
	{{"warehouse", 5e6}},                           // presto
	{{"t80000000_500", 8e7}, {"t500000_250", 5e5}}, // flink
	{{"dim_local", 5e4}},                           // master
}

// localTable is materialized in the demo: statements over it return rows.
var localTable = table{"t10000_100", 1e4}

// localShapes is the size of the recurring pool of local statements.
const localShapes = 16

var (
	filterCols = []string{"a1", "a2", "a5", "a10"}
	groupCols  = []string{"a100", "a50", "a20", "a10", "a5", "a2"}
	aggs       = []string{"COUNT(*)", "SUM(a1)", "SUM(a1), COUNT(*)", "MAX(a2)"}
	// selectivities are the bands a filter keeps; the seed jitters each
	// shape's literal by up to ±10 % around its band.
	selectivities = []float64{0.001, 0.01, 0.05, 0.2, 0.0003, 0.5, 0.003, 0.1}
)

// dup is the duplication factor of a Figure 10 column a<dup>: a column's
// values span [0, rows/dup).
func dup(col string) float64 {
	d, _ := strconv.Atoi(col[1:])
	return float64(d)
}

// shape is one recurring statement, split around its literal so a draw can
// substitute a never-seen one.
type shape struct {
	head, tail string
	lit        float64
}

func (s shape) sql(lit float64) string {
	return s.head + strconv.FormatFloat(lit, 'f', -1, 64) + s.tail
}

// buildShape derives shape k of the grid: template, system, table, column
// and selectivity band all follow from k; only the literal's jitter comes
// from rng.
func buildShape(k int, rng *rand.Rand) shape {
	cell := 3 * len(systems)
	tmpl, sys := k%3, (k/3)%len(systems)
	v := k / cell // variant counter within one (template, system) cell
	tabs := systems[sys]
	t := tabs[v%len(tabs)]
	col := filterCols[(v/len(tabs))%len(filterCols)]
	sel := selectivities[(v+k%cell)%len(selectivities)]
	lit := math.Max(1, math.Round(sel*t.rows/dup(col)*(0.9+0.2*rng.Float64())))
	switch tmpl {
	case 0:
		return shape{head: fmt.Sprintf("SELECT a1, %s FROM %s WHERE %s < ", col, t.name, col), lit: lit}
	case 1:
		g := groupCols[v%len(groupCols)]
		return shape{
			head: fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s < ", g, aggs[(v/2)%len(aggs)], t.name, col),
			tail: " GROUP BY " + g, lit: lit,
		}
	default:
		// The partner comes from the next system over, so most joins span
		// two systems and the optimizer has transfers to price.
		ptabs := systems[(sys+1+v%(len(systems)-1))%len(systems)]
		p := ptabs[(v/2)%len(ptabs)]
		return shape{
			head: fmt.Sprintf("SELECT r.a1, s.a2 FROM %s r JOIN %s s ON r.a1 = s.a1 WHERE r.%s < ", t.name, p.name, col),
			lit:  lit,
		}
	}
}

// buildLocal derives local shape k: a selective scan or a small group-by
// over the materialized table (both make the row engine read all its rows).
// How many rows the filter keeps follows from k, within the same ±10 % of
// jitter as every other shape: what a local statement costs the row engine
// grows with the rows kept, so a wider draw would make one seed's stream
// dearer than another's.
func buildLocal(k int, rng *rand.Rand) shape {
	jitter := 0.9 + 0.2*rng.Float64()
	if k%2 == 0 {
		return shape{
			head: "SELECT a1 FROM " + localTable.name + " WHERE a1 < ",
			lit:  math.Round(float64(25*(k/2+1)) * jitter),
		}
	}
	return shape{
		head: "SELECT a100, COUNT(*) FROM " + localTable.name + " WHERE a1 < ",
		tail: " GROUP BY a100",
		lit:  math.Round(float64(1000+500*(k/2)) * jitter),
	}
}

// Generator yields one workload's statement stream.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	zipf   *rand.Zipf
	shapes []shape
	local  []shape
	next   int    // round-robin cursor when ZipfS is zero
	fresh  uint64 // never-seen literals issued so far
}

// New builds the generator for cfg. It panics on a configuration no workload
// of the benchmark uses (no shapes, or a Zipf exponent at or below 1).
func New(cfg Config) *Generator {
	if cfg.Shapes <= 0 {
		panic("mix: Shapes must be positive")
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	seen := make(map[string]bool, cfg.Shapes)
	for k := 0; k < cfg.Shapes; k++ {
		s := buildShape(k, g.rng)
		// Small tables leave little room for jitter; nudge the literal until
		// the statement is distinct so Shapes is exact.
		for seen[s.sql(s.lit)] {
			s.lit++
		}
		seen[s.sql(s.lit)] = true
		g.shapes = append(g.shapes, s)
	}
	for k := 0; k < localShapes; k++ {
		g.local = append(g.local, buildLocal(k, g.rng))
	}
	if cfg.ZipfS != 0 {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(cfg.Shapes-1))
		if g.zipf == nil {
			panic("mix: ZipfS must exceed 1")
		}
	}
	return g
}

// Shapes returns the recurring statements in popularity order.
func (g *Generator) Shapes() []string {
	out := make([]string, len(g.shapes))
	for i, s := range g.shapes {
		out[i] = s.sql(s.lit)
	}
	return out
}

// Next returns the stream's next statement.
func (g *Generator) Next() string {
	var s shape
	switch {
	case g.cfg.Local > 0 && g.rng.Float64() < g.cfg.Local:
		s = g.local[g.rng.Intn(len(g.local))]
	case g.zipf != nil:
		s = g.shapes[g.zipf.Uint64()]
	default:
		s = g.shapes[g.next]
		g.next = (g.next + 1) % len(g.shapes)
	}
	if g.cfg.Distinct > 0 && g.rng.Float64() < g.cfg.Distinct {
		// Shape literals are integral, so a strictly growing offset that
		// stays below one (for ten million draws, far beyond any run) yields
		// text no earlier statement had, at the shape's own selectivity.
		g.fresh++
		return s.sql(s.lit + float64(g.fresh)*1e-7)
	}
	return s.sql(s.lit)
}
