package remote

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"intellisphere/internal/cluster"
	"intellisphere/internal/plan"
)

func newHiveT(t *testing.T) *Distributed {
	t.Helper()
	h, err := NewHive("hive", cluster.DefaultHive(), Options{Seed: 1})
	if err != nil {
		t.Fatalf("NewHive: %v", err)
	}
	return h
}

func newSparkT(t *testing.T) *Distributed {
	t.Helper()
	s, err := NewSpark("spark", cluster.DefaultHive(), Options{Seed: 2})
	if err != nil {
		t.Fatalf("NewSpark: %v", err)
	}
	return s
}

func smallJoin() plan.JoinSpec {
	return plan.JoinSpec{
		Left:       plan.TableSide{Rows: 4e6, RowSize: 250, ProjectedSize: 100, KeyNDV: 4e6},
		Right:      plan.TableSide{Rows: 1e5, RowSize: 100, ProjectedSize: 50, KeyNDV: 1e5},
		OutputRows: 1e5,
	}
}

func bigJoin() plan.JoinSpec {
	return plan.JoinSpec{
		Left:       plan.TableSide{Rows: 4e7, RowSize: 500, ProjectedSize: 200, KeyNDV: 4e7},
		Right:      plan.TableSide{Rows: 2e7, RowSize: 500, ProjectedSize: 200, KeyNDV: 2e7},
		OutputRows: 2e7,
	}
}

func TestSubOpNames(t *testing.T) {
	if len(AllSubOps()) != 11 {
		t.Fatalf("expected 11 sub-ops, got %d", len(AllSubOps()))
	}
	if len(BasicSubOps()) != 8 || len(SpecificSubOps()) != 3 {
		t.Error("basic/specific partition sizes wrong")
	}
	wantSym := map[SubOp]string{ReadDFS: "rD", WriteDFS: "wD", Shuffle: "f", Broadcast: "b",
		Sort: "o", Scan: "c", HashBuild: "hI", HashProbe: "hP", RecMerge: "m",
		ReadLocal: "rL", WriteLocal: "wL"}
	for op, sym := range wantSym {
		if op.Symbol() != sym {
			t.Errorf("%v symbol = %q, want %q", op, op.Symbol(), sym)
		}
		if op.String() == "" || strings.HasPrefix(op.String(), "SubOp(") {
			t.Errorf("%v missing name", op)
		}
	}
	if SubOp(99).String() != "SubOp(99)" || SubOp(99).Symbol() != "?" {
		t.Error("fallback names wrong")
	}
}

func TestDefaultHiveCostsMatchPaper(t *testing.T) {
	c := DefaultHiveCosts()
	if c.Costs[ReadDFS].Slope != 0.0041 || c.Costs[ReadDFS].Intercept != 0.6323 {
		t.Error("ReadDFS ground truth should match Figure 7(b)")
	}
	if c.Costs[WriteDFS].Slope != 0.0314 {
		t.Error("WriteDFS ground truth should match Figure 13(c)")
	}
	if c.Costs[Shuffle].Intercept != 5.2551 {
		t.Error("Shuffle ground truth should match Figure 13(d)")
	}
	if c.HashSpill.Slope != 0.1821 {
		t.Error("HashBuild spill truth should match Figure 13(f)")
	}
}

func TestSubOpCostsHashRegimes(t *testing.T) {
	c := DefaultHiveCosts()
	inMem := c.At(HashBuild, 1000, true)
	spill := c.At(HashBuild, 1000, false)
	if spill <= inMem {
		t.Errorf("spill cost %v should exceed in-memory %v at 1000 B", spill, inMem)
	}
	// At small record sizes the raw spill line is negative; the floor must hold.
	if got := c.At(HashBuild, 40, false); got < c.At(HashBuild, 40, true) {
		t.Errorf("spill floor violated: %v", got)
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	a := noise("k1", 7, 0.03)
	b := noise("k1", 7, 0.03)
	if a != b {
		t.Error("noise not deterministic")
	}
	if noise("k1", 8, 0.03) == a {
		t.Error("seed change should alter noise")
	}
	if noise("k2", 7, 0.03) == a {
		t.Error("key change should alter noise")
	}
	if noise("k", 7, 0) != 1 {
		t.Error("zero amplitude should disable noise")
	}
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		v := noise(key, 3, 0.05)
		if v < 0.95 || v > 1.05 {
			t.Errorf("noise %v out of ±5%%", v)
		}
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewHive("", cluster.DefaultHive(), Options{}); err == nil {
		t.Error("empty name accepted")
	}
	bad := cluster.DefaultHive()
	bad.DataNodes = 0
	if _, err := NewHive("h", bad, Options{}); err == nil {
		t.Error("invalid cluster accepted")
	}
	if _, err := NewRDBMS("", cluster.DefaultHive(), Options{}); err == nil {
		t.Error("empty RDBMS name accepted")
	}
}

func TestHiveSelectBroadcastJoin(t *testing.T) {
	h := newHiveT(t)
	if alg := h.SelectJoinAlgorithm(smallJoin()); alg != HiveBroadcastJoin {
		t.Errorf("small-side join picked %v, want broadcast", alg)
	}
}

func TestHiveSelectShuffleJoin(t *testing.T) {
	h := newHiveT(t)
	if alg := h.SelectJoinAlgorithm(bigJoin()); alg != HiveShuffleJoin {
		t.Errorf("big join picked %v, want shuffle", alg)
	}
}

func TestHiveSelectBucketedJoins(t *testing.T) {
	h := newHiveT(t)
	j := bigJoin()
	j.Left.PartitionedOn = true
	j.Right.PartitionedOn = true
	if alg := h.SelectJoinAlgorithm(j); alg != HiveBucketMapJoin {
		t.Errorf("bucketed join picked %v, want bucket map", alg)
	}
	j.Left.SortedOn = true
	j.Right.SortedOn = true
	if alg := h.SelectJoinAlgorithm(j); alg != HiveSortMergeBucketJoin {
		t.Errorf("bucketed+sorted join picked %v, want SMB", alg)
	}
}

func TestHiveSelectSkewJoin(t *testing.T) {
	h := newHiveT(t)
	j := bigJoin()
	j.Left.KeyNDV = 100 // 4e7 rows / 100 keys: extreme skew
	if alg := h.SelectJoinAlgorithm(j); alg != HiveSkewJoin {
		t.Errorf("skewed join picked %v, want skew join", alg)
	}
}

func TestSparkSelection(t *testing.T) {
	s := newSparkT(t)
	if alg := s.SelectJoinAlgorithm(smallJoin()); alg != SparkBroadcastHashJoin {
		t.Errorf("small join picked %v, want broadcast hash", alg)
	}
	if alg := s.SelectJoinAlgorithm(bigJoin()); alg != SparkSortMergeJoin {
		t.Errorf("big join picked %v, want sort-merge", alg)
	}
	cart := smallJoin()
	cart.Cartesian = true
	if alg := s.SelectJoinAlgorithm(cart); alg != SparkBroadcastNLJoin {
		t.Errorf("small cartesian picked %v, want broadcast NL", alg)
	}
	cart = bigJoin()
	cart.Cartesian = true
	if alg := s.SelectJoinAlgorithm(cart); alg != SparkCartesianJoin {
		t.Errorf("big cartesian picked %v, want cartesian product", alg)
	}
	// Skewed shuffle-hash case: one side much smaller but not broadcastable.
	j := bigJoin()
	j.Right.Rows = 4e6
	if alg := s.SelectJoinAlgorithm(j); alg != SparkShuffleHashJoin {
		t.Errorf("asymmetric join picked %v, want shuffle hash", alg)
	}
}

func TestExecuteJoinPositiveAndDeterministic(t *testing.T) {
	h := newHiveT(t)
	e1, err := h.ExecuteJoin(smallJoin())
	if err != nil {
		t.Fatalf("ExecuteJoin: %v", err)
	}
	if e1.ElapsedSec <= 0 {
		t.Errorf("elapsed = %v, want > 0", e1.ElapsedSec)
	}
	if e1.Algorithm != string(HiveBroadcastJoin) {
		t.Errorf("algorithm = %q", e1.Algorithm)
	}
	e2, _ := h.ExecuteJoin(smallJoin())
	if e1.ElapsedSec != e2.ElapsedSec {
		t.Error("simulator not deterministic for identical specs")
	}
}

func TestExecuteJoinInvalid(t *testing.T) {
	h := newHiveT(t)
	if _, err := h.ExecuteJoin(plan.JoinSpec{}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := h.ExecuteJoinWith(smallJoin(), JoinAlgorithm("nope")); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := h.ExecuteJoinWith(plan.JoinSpec{}, HiveShuffleJoin); err == nil {
		t.Error("invalid spec accepted by ExecuteJoinWith")
	}
}

// TestExecuteJoinInvalidFromBothEntryPoints: the spec is checked once,
// behind both public entry points, and the error keeps the system prefix.
func TestExecuteJoinInvalidFromBothEntryPoints(t *testing.T) {
	h := newHiveT(t)
	negative := smallJoin()
	negative.OutputRows = -1
	noRows := smallJoin()
	noRows.Left.Rows = 0
	for _, tc := range []struct {
		name string
		spec plan.JoinSpec
	}{
		{"zero spec", plan.JoinSpec{}},
		{"negative output", negative},
		{"empty left side", noRows},
	} {
		want := tc.spec.Validate()
		if want == nil {
			t.Fatalf("%s: spec is valid, test is vacuous", tc.name)
		}
		wantText := `remote "hive": ` + want.Error()
		_, viaOwn := h.ExecuteJoin(tc.spec)
		_, viaWith := h.ExecuteJoinWith(tc.spec, HiveShuffleJoin)
		for entry, err := range map[string]error{"ExecuteJoin": viaOwn, "ExecuteJoinWith": viaWith} {
			if err == nil || err.Error() != wantText {
				t.Errorf("%s via %s: error %v, want %q", tc.name, entry, err, wantText)
			}
		}
	}
}

func TestJoinCostGrowsWithInput(t *testing.T) {
	h := newHiveT(t)
	small, err := h.ExecuteJoinWith(smallJoin(), HiveShuffleJoin)
	if err != nil {
		t.Fatal(err)
	}
	big, err := h.ExecuteJoinWith(bigJoin(), HiveShuffleJoin)
	if err != nil {
		t.Fatal(err)
	}
	if big.ElapsedSec <= small.ElapsedSec {
		t.Errorf("bigger join (%v s) should cost more than smaller (%v s)", big.ElapsedSec, small.ElapsedSec)
	}
}

func TestBroadcastBeatsShuffleForSmallSide(t *testing.T) {
	h := newHiveT(t)
	j := smallJoin()
	bc, _ := h.ExecuteJoinWith(j, HiveBroadcastJoin)
	sh, _ := h.ExecuteJoinWith(j, HiveShuffleJoin)
	if bc.ElapsedSec >= sh.ElapsedSec {
		t.Errorf("broadcast (%v) should beat shuffle (%v) when S is tiny", bc.ElapsedSec, sh.ElapsedSec)
	}
}

func TestSMBCheapestWhenApplicable(t *testing.T) {
	h := newHiveT(t)
	j := bigJoin()
	j.Left.PartitionedOn, j.Left.SortedOn = true, true
	j.Right.PartitionedOn, j.Right.SortedOn = true, true
	smb, _ := h.ExecuteJoinWith(j, HiveSortMergeBucketJoin)
	sh, _ := h.ExecuteJoinWith(j, HiveShuffleJoin)
	if smb.ElapsedSec >= sh.ElapsedSec {
		t.Errorf("SMB (%v) should beat shuffle (%v): no shuffle, no sort", smb.ElapsedSec, sh.ElapsedSec)
	}
}

func TestExecuteAgg(t *testing.T) {
	h := newHiveT(t)
	spec := plan.AggSpec{InputRows: 1e6, InputRowSize: 250, OutputRows: 1e4, OutputRowSize: 24, NumAggregates: 2}
	e, err := h.ExecuteAgg(spec)
	if err != nil {
		t.Fatalf("ExecuteAgg: %v", err)
	}
	if e.ElapsedSec <= 0 {
		t.Error("agg elapsed must be positive")
	}
	// More aggregates cost more.
	spec5 := spec
	spec5.NumAggregates = 5
	e5, _ := h.ExecuteAgg(spec5)
	if e5.ElapsedSec <= e.ElapsedSec {
		t.Errorf("5 aggregates (%v) should cost more than 2 (%v)", e5.ElapsedSec, e.ElapsedSec)
	}
	if _, err := h.ExecuteAgg(plan.AggSpec{}); err == nil {
		t.Error("invalid agg accepted")
	}
}

func TestExecuteScan(t *testing.T) {
	h := newHiveT(t)
	spec := plan.ScanSpec{InputRows: 1e6, InputRowSize: 100, Selectivity: 0.5, OutputRowSize: 40}
	e, err := h.ExecuteScan(spec)
	if err != nil {
		t.Fatalf("ExecuteScan: %v", err)
	}
	if e.ElapsedSec <= 0 {
		t.Error("scan elapsed must be positive")
	}
	if _, err := h.ExecuteScan(plan.ScanSpec{}); err == nil {
		t.Error("invalid scan accepted")
	}
}

func TestExecuteProbeAllTargets(t *testing.T) {
	h := newHiveT(t)
	for _, op := range AllSubOps() {
		p := Probe{Target: op, Records: 1e6, RecordSize: 500}
		e, err := h.ExecuteProbe(p)
		if err != nil {
			t.Fatalf("probe %v: %v", op, err)
		}
		if e.ElapsedSec <= 0 {
			t.Errorf("probe %v elapsed = %v", op, e.ElapsedSec)
		}
		// Every non-ReadDFS probe must cost at least as much as reading alone
		// (same record count, extra work). Compare noise-free systems.
	}
	if _, err := h.ExecuteProbe(Probe{Target: SubOp(99), Records: 1, RecordSize: 1}); err == nil {
		t.Error("unknown probe target accepted")
	}
	if _, err := h.ExecuteProbe(Probe{Target: ReadDFS}); err == nil {
		t.Error("invalid probe accepted")
	}
}

func TestProbeCompositePrinciple(t *testing.T) {
	h, err := NewHive("h", cluster.DefaultHive(), Options{NoiseAmp: -1})
	if err != nil {
		t.Fatal(err)
	}
	read, _ := h.ExecuteProbe(Probe{Target: ReadDFS, Records: 4e6, RecordSize: 500})
	write, _ := h.ExecuteProbe(Probe{Target: WriteDFS, Records: 4e6, RecordSize: 500})
	if write.ElapsedSec <= read.ElapsedSec {
		t.Errorf("read+write probe (%v) must exceed read probe (%v)", write.ElapsedSec, read.ElapsedSec)
	}
}

func TestHashBuildProbeRegimes(t *testing.T) {
	h, err := NewHive("h", cluster.DefaultHive(), Options{NoiseAmp: -1})
	if err != nil {
		t.Fatal(err)
	}
	inMem, _ := h.ExecuteProbe(Probe{Target: HashBuild, Records: 1e6, RecordSize: 800, BuildBytes: 1 << 20})
	spill, _ := h.ExecuteProbe(Probe{Target: HashBuild, Records: 1e6, RecordSize: 800, BuildBytes: 1 << 40})
	if spill.ElapsedSec <= inMem.ElapsedSec {
		t.Errorf("spill probe (%v) must exceed in-memory probe (%v)", spill.ElapsedSec, inMem.ElapsedSec)
	}
}

func TestSparkFasterThanHive(t *testing.T) {
	h, _ := NewHive("h", cluster.DefaultHive(), Options{NoiseAmp: -1})
	s, _ := NewSpark("s", cluster.DefaultHive(), Options{NoiseAmp: -1})
	j := bigJoin()
	he, _ := h.ExecuteJoinWith(j, HiveShuffleJoin)
	se, _ := s.ExecuteJoinWith(j, SparkSortMergeJoin)
	if se.ElapsedSec >= he.ElapsedSec {
		t.Errorf("spark (%v) should beat hive (%v) on the same join", se.ElapsedSec, he.ElapsedSec)
	}
}

func TestRDBMSExecution(t *testing.T) {
	cfg := cluster.Config{Name: "pg", Nodes: 1, DataNodes: 1, CoresPerNode: 8,
		MemoryPerNode: 32 << 30, DFSBlockBytes: 8 << 20, Replication: 1, MemoryFraction: 0.5}
	r, err := NewRDBMS("pg", cfg, Options{NoiseAmp: -1})
	if err != nil {
		t.Fatalf("NewRDBMS: %v", err)
	}
	if r.Name() != "pg" || !r.Capabilities().Join {
		t.Error("identity/capabilities wrong")
	}
	j := smallJoin()
	e, err := r.ExecuteJoin(j)
	if err != nil {
		t.Fatalf("ExecuteJoin: %v", err)
	}
	if e.Algorithm != string(RDBMSHashJoin) || e.ElapsedSec <= 0 {
		t.Errorf("execution = %+v", e)
	}
	j.Left.SortedOn, j.Right.SortedOn = true, true
	e, _ = r.ExecuteJoin(j)
	if e.Algorithm != string(RDBMSMergeJoin) {
		t.Errorf("sorted join algorithm = %q, want merge", e.Algorithm)
	}
	j.Cartesian = true
	e, _ = r.ExecuteJoin(j)
	if e.Algorithm != string(RDBMSNestedLoopJoin) {
		t.Errorf("cartesian algorithm = %q, want NL", e.Algorithm)
	}
	if _, err := r.ExecuteJoin(plan.JoinSpec{}); err == nil {
		t.Error("invalid join accepted")
	}
	if _, err := r.ExecuteAgg(plan.AggSpec{InputRows: 1e5, InputRowSize: 100, OutputRows: 10, OutputRowSize: 16}); err != nil {
		t.Errorf("ExecuteAgg: %v", err)
	}
	if _, err := r.ExecuteScan(plan.ScanSpec{InputRows: 1e5, InputRowSize: 100, Selectivity: 1, OutputRowSize: 100}); err != nil {
		t.Errorf("ExecuteScan: %v", err)
	}
	for _, op := range AllSubOps() {
		if _, err := r.ExecuteProbe(Probe{Target: op, Records: 1e5, RecordSize: 100}); err != nil {
			t.Errorf("probe %v: %v", op, err)
		}
	}
	if _, err := r.ExecuteAgg(plan.AggSpec{}); err == nil {
		t.Error("invalid agg accepted")
	}
	if _, err := r.ExecuteScan(plan.ScanSpec{}); err == nil {
		t.Error("invalid scan accepted")
	}
	if _, err := r.ExecuteProbe(Probe{}); err == nil {
		t.Error("invalid probe accepted")
	}
}

func TestEngineKindString(t *testing.T) {
	if EngineHive.String() != "hive" || EngineSpark.String() != "spark" {
		t.Error("engine kind names wrong")
	}
}

// Property: elapsed time is always positive, finite, and at least the job
// startup latency. (Monotonicity in records does NOT hold in general: more
// records can split into more parallel tasks and finish sooner — the wave
// nonlinearity the logical-op NN has to learn — so we don't assert it.)
func TestBroadcastJoinBoundsProperty(t *testing.T) {
	h, err := NewHive("h", cluster.DefaultHive(), Options{NoiseAmp: -1})
	if err != nil {
		t.Fatal(err)
	}
	startup := DefaultHiveOverheads().JobStartupSec
	f := func(a uint32) bool {
		rows := float64(a%10000000) + 1000
		spec := plan.JoinSpec{
			Left:       plan.TableSide{Rows: rows, RowSize: 200, ProjectedSize: 100, KeyNDV: rows},
			Right:      plan.TableSide{Rows: 1000, RowSize: 100, ProjectedSize: 50, KeyNDV: 1000},
			OutputRows: 1000,
		}
		e, err := h.ExecuteJoinWith(spec, HiveBroadcastJoin)
		if err != nil {
			return false
		}
		return e.ElapsedSec >= startup && !math.IsNaN(e.ElapsedSec) && !math.IsInf(e.ElapsedSec, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with noise disabled, probes at wave-aligned record counts (full
// multiples of the slot-saturated block payload) are monotone in records —
// the wave effect only perturbs counts between alignment points.
func TestProbeMonotoneAtWaveAlignmentProperty(t *testing.T) {
	h, err := NewHive("h", cluster.DefaultHive(), Options{NoiseAmp: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultHive()
	f := func(n1, n2 uint8, sizeSel uint8) bool {
		sizes := []float64{40, 100, 500, 1000}
		size := sizes[int(sizeSel)%len(sizes)]
		perWave := cfg.RecordsPerBlock(size) * float64(cfg.Slots())
		w1 := float64(n1%20) + 1
		w2 := float64(n2%20) + 1
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		e1, err1 := h.ExecuteProbe(Probe{Target: ReadDFS, Records: w1 * perWave, RecordSize: size})
		e2, err2 := h.ExecuteProbe(Probe{Target: ReadDFS, Records: w2 * perWave, RecordSize: size})
		if err1 != nil || err2 != nil {
			return false
		}
		return e1.ElapsedSec <= e2.ElapsedSec+1e-9 && !math.IsNaN(e1.ElapsedSec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrestoSelection(t *testing.T) {
	p, err := NewPresto("presto", cluster.DefaultHive(), Options{Seed: 5})
	if err != nil {
		t.Fatalf("NewPresto: %v", err)
	}
	if p.Kind() != EnginePresto || p.Kind().String() != "presto" {
		t.Errorf("kind = %v", p.Kind())
	}
	if alg := p.SelectJoinAlgorithm(smallJoin()); alg != PrestoReplicatedJoin {
		t.Errorf("small join picked %v, want replicated", alg)
	}
	if alg := p.SelectJoinAlgorithm(bigJoin()); alg != PrestoPartitionedJoin {
		t.Errorf("big join picked %v, want partitioned", alg)
	}
	cart := smallJoin()
	cart.Cartesian = true
	if alg := p.SelectJoinAlgorithm(cart); alg != PrestoCrossJoin {
		t.Errorf("cartesian picked %v, want cross", alg)
	}
	if len(PrestoJoinAlgorithms()) != 3 {
		t.Error("presto algorithm list wrong")
	}
}

func TestPrestoExecutionAndSpeed(t *testing.T) {
	p, _ := NewPresto("presto", cluster.DefaultHive(), Options{NoiseAmp: -1})
	h, _ := NewHive("hive", cluster.DefaultHive(), Options{NoiseAmp: -1})
	for _, spec := range []plan.JoinSpec{smallJoin(), bigJoin()} {
		pe, err := p.ExecuteJoin(spec)
		if err != nil {
			t.Fatalf("presto ExecuteJoin: %v", err)
		}
		he, err := h.ExecuteJoin(spec)
		if err != nil {
			t.Fatalf("hive ExecuteJoin: %v", err)
		}
		if pe.ElapsedSec <= 0 {
			t.Errorf("presto elapsed = %v", pe.ElapsedSec)
		}
		// The MPP engine should beat the batch engine on the same work.
		if pe.ElapsedSec >= he.ElapsedSec {
			t.Errorf("presto (%v) not faster than hive (%v)", pe.ElapsedSec, he.ElapsedSec)
		}
	}
	// All operator kinds and probes work.
	if _, err := p.ExecuteAgg(plan.AggSpec{InputRows: 1e6, InputRowSize: 100, OutputRows: 1e4, OutputRowSize: 12}); err != nil {
		t.Errorf("ExecuteAgg: %v", err)
	}
	if _, err := p.ExecuteScan(plan.ScanSpec{InputRows: 1e6, InputRowSize: 100, Selectivity: 0.5, OutputRowSize: 40}); err != nil {
		t.Errorf("ExecuteScan: %v", err)
	}
	for _, op := range AllSubOps() {
		if _, err := p.ExecuteProbe(Probe{Target: op, Records: 1e6, RecordSize: 250}); err != nil {
			t.Errorf("probe %v: %v", op, err)
		}
	}
}
