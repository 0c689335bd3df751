package remote

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"intellisphere/internal/plan"
)

// TestNoiseKeyMatchesSprintf pins the append-based key builder and inline
// hash against the original fmt.Sprintf construction, byte for byte and bit
// for bit. The simulators' outputs are deterministic functions of these
// keys, so any drift here silently changes every simulated timing.
func TestNoiseKeyMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rf := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Int63n(1_000_000_000)) // integral, the common case
		case 1:
			return rng.Float64() // (0,1) selectivities
		case 2:
			return rng.Float64() * 1e12 // large fractional
		default:
			return rng.Float64() * 1e-8 // tiny — exercises e-notation
		}
	}
	for i := 0; i < 2000; i++ {
		join := plan.JoinSpec{
			Left:       plan.TableSide{Rows: rf(), RowSize: rf(), ProjectedSize: rf()},
			Right:      plan.TableSide{Rows: rf(), RowSize: rf(), ProjectedSize: rf()},
			OutputRows: rf(),
		}
		agg := plan.AggSpec{InputRows: rf(), InputRowSize: rf(), OutputRows: rf(), OutputRowSize: rf()}
		scan := plan.ScanSpec{InputRows: rf(), InputRowSize: rf(), Selectivity: rng.Float64(), OutputRowSize: rf()}
		probe := Probe{Target: AllSubOps()[rng.Intn(len(AllSubOps()))], Records: rf(), RecordSize: rf(), BuildBytes: rf()}
		alg := JoinAlgorithm(fmt.Sprintf("sys.alg_%d", rng.Intn(8)))

		// Each case gets a fresh buffer: noiseKey aliases its backing array,
		// so sharing one across cases would overwrite earlier keys.
		kb := func() []byte { return make([]byte, 256) }
		cases := []struct {
			name string
			want string
			got  noiseKey
		}{
			{"rdbms-join", fmt.Sprintf("rdbms-join|%s|%v", alg, join.Dims()),
				newNoiseKey(kb(), "rdbms-join|").str(string(alg)).sep().joinDims(join)},
			{"rdbms-agg", fmt.Sprintf("rdbms-agg|%v", agg.Dims()),
				newNoiseKey(kb(), "rdbms-agg|").aggDims(agg)},
			{"rdbms-scan", fmt.Sprintf("rdbms-scan|%v|%v|%v", scan.InputRows, scan.InputRowSize, scan.Selectivity),
				newNoiseKey(kb(), "rdbms-scan|").float(scan.InputRows).sep().float(scan.InputRowSize).sep().float(scan.Selectivity)},
			{"rdbms-probe", fmt.Sprintf("rdbms-probe|%v|%v|%v", probe.Target, probe.Records, probe.RecordSize),
				newNoiseKey(kb(), "rdbms-probe|").str(probe.Target.String()).sep().float(probe.Records).sep().float(probe.RecordSize)},
			{"join", fmt.Sprintf("join|%s|%v", alg, join.Dims()),
				newNoiseKey(kb(), "join|").str(string(alg)).sep().joinDims(join)},
			{"agg", fmt.Sprintf("agg|%v", agg.Dims()),
				newNoiseKey(kb(), "agg|").aggDims(agg)},
			{"scan", fmt.Sprintf("scan|%v|%v|%v|%v", scan.InputRows, scan.InputRowSize, scan.Selectivity, scan.OutputRowSize),
				newNoiseKey(kb(), "scan|").float(scan.InputRows).sep().float(scan.InputRowSize).sep().float(scan.Selectivity).sep().float(scan.OutputRowSize)},
			{"probe", fmt.Sprintf("probe|%v|%v|%v|%v", probe.Target, probe.Records, probe.RecordSize, probe.BuildBytes),
				newNoiseKey(kb(), "probe|").str(probe.Target.String()).sep().float(probe.Records).sep().float(probe.RecordSize).sep().float(probe.BuildBytes)},
		}
		for _, c := range cases {
			if string(c.got) != c.want {
				t.Fatalf("%s key drift:\n got %q\nwant %q", c.name, c.got, c.want)
			}
			seed := rng.Int63() - rng.Int63() // exercise negative seeds too
			amp := 0.03
			nb := noiseBytes(c.got, seed, amp)
			ns := noise(c.want, seed, amp)
			if nb != ns {
				t.Fatalf("%s noise drift: bytes=%v string=%v (seed %d)", c.name, nb, ns, seed)
			}
			if math.Abs(nb-1) > amp {
				t.Fatalf("%s noise %v outside 1±%v", c.name, nb, amp)
			}
		}
	}
	// Amplitude 0 must short-circuit to exactly 1 on both paths.
	if noiseBytes([]byte("x"), 1, 0) != 1 || noise("x", 1, 0) != 1 {
		t.Fatal("zero amplitude must yield factor 1")
	}
}

// TestNoiseKeyZeroAlloc pins the steady-state allocation count of the hot
// simulator entry points: key construction plus hashing must not allocate.
func TestNoiseKeyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	spec := plan.ScanSpec{InputRows: 1e6, InputRowSize: 100, Selectivity: 0.25, OutputRowSize: 40}
	allocs := testing.AllocsPerRun(100, func() {
		var kb [160]byte
		key := newNoiseKey(kb[:], "scan|").
			float(spec.InputRows).sep().float(spec.InputRowSize).sep().
			float(spec.Selectivity).sep().float(spec.OutputRowSize)
		if noiseBytes(key, 7, 0.03) == 0 {
			t.Fatal("impossible")
		}
	})
	if allocs != 0 {
		t.Fatalf("noise key path allocates %v/op, want 0", allocs)
	}
}

// TestExecuteZeroAlloc pins the whole simulator entry points, not just the
// key builder: every operator on both simulator types computes its
// Execution without allocating, on specs it has never seen (each run bumps a
// cardinality, so nothing could be answered from a remembered result).
func TestExecuteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pg, err := NewRDBMS("pg", newHiveT(t).Cluster(), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []System{newHiveT(t), newSparkT(t), pg} {
		n := 0.0
		ops := []struct {
			name string
			run  func() (Execution, error)
		}{
			{"scan", func() (Execution, error) {
				return sys.ExecuteScan(plan.ScanSpec{InputRows: 1e6 + n, InputRowSize: 100, Selectivity: 0.25, OutputRowSize: 40})
			}},
			{"agg", func() (Execution, error) {
				return sys.ExecuteAgg(plan.AggSpec{InputRows: 1e6 + n, InputRowSize: 100, OutputRows: 50, OutputRowSize: 16, NumAggregates: 2})
			}},
			{"join", func() (Execution, error) {
				j := bigJoin()
				j.OutputRows += n
				return sys.ExecuteJoin(j)
			}},
			{"probe", func() (Execution, error) {
				return sys.ExecuteProbe(Probe{Target: HashBuild, Records: 1e6 + n, RecordSize: 100})
			}},
		}
		for _, op := range ops {
			allocs := testing.AllocsPerRun(200, func() {
				n++
				if ex, err := op.run(); err != nil || ex.ElapsedSec <= 0 {
					t.Fatalf("%s %s: %+v, %v", sys.Name(), op.name, ex, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s %s allocates %v/op on a never-seen spec, want 0", sys.Name(), op.name, allocs)
			}
		}
	}
}
