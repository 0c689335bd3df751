package remote

import (
	"fmt"
	"strings"
	"testing"

	"intellisphere/internal/cluster"
	"intellisphere/internal/plan"
)

// pinnedRun is one simulator call of the pinned table.
type pinnedRun struct {
	name string
	exec func() (Execution, error)
}

// pinnedRuns lists scan / agg / every join algorithm the system's own
// planner can pick / every probe target, on one Distributed per engine kind
// and one RDBMS, all with default noise so the noise keys are pinned too.
func pinnedRuns(t *testing.T) []pinnedRun {
	t.Helper()
	must := func(s System, err error) System {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pg := cluster.Config{Name: "pg", Nodes: 1, DataNodes: 1, CoresPerNode: 8,
		MemoryPerNode: 32 << 30, DFSBlockBytes: 8 << 20, Replication: 1, MemoryFraction: 0.5}
	systems := []System{
		must(NewHive("hive", cluster.DefaultHive(), Options{Seed: 1})),
		must(NewSpark("spark", cluster.DefaultHive(), Options{Seed: 2})),
		must(NewPresto("presto", cluster.DefaultHive(), Options{Seed: 3})),
		must(NewRDBMS("pg", pg, Options{Seed: 4})),
	}
	with := func(j plan.JoinSpec, edit func(*plan.JoinSpec)) plan.JoinSpec {
		edit(&j)
		return j
	}
	// Between them these specs reach every branch of both
	// SelectJoinAlgorithm implementations; the pinned Algorithm column
	// proves which one each landed on.
	joins := []struct {
		name string
		spec plan.JoinSpec
	}{
		{"small", smallJoin()},
		{"big", bigJoin()},
		{"big-bucketed", with(bigJoin(), func(j *plan.JoinSpec) {
			j.Left.PartitionedOn, j.Right.PartitionedOn = true, true
		})},
		{"big-bucketed-sorted", with(bigJoin(), func(j *plan.JoinSpec) {
			j.Left.PartitionedOn, j.Right.PartitionedOn = true, true
			j.Left.SortedOn, j.Right.SortedOn = true, true
		})},
		{"big-skewed", with(bigJoin(), func(j *plan.JoinSpec) { j.Left.KeyNDV = 100 })},
		{"big-asymmetric", with(bigJoin(), func(j *plan.JoinSpec) { j.Right.Rows = 4e6 })},
		{"small-cartesian", with(smallJoin(), func(j *plan.JoinSpec) { j.Cartesian = true })},
		{"big-cartesian", with(bigJoin(), func(j *plan.JoinSpec) { j.Cartesian = true })},
	}
	scan := plan.ScanSpec{InputRows: 3e6, InputRowSize: 220, Selectivity: 0.125, OutputRowSize: 48}
	agg := plan.AggSpec{InputRows: 5e6, InputRowSize: 180, OutputRows: 2500, OutputRowSize: 24, NumAggregates: 3}
	var runs []pinnedRun
	for _, s := range systems {
		runs = append(runs,
			pinnedRun{s.Name() + "/scan", func() (Execution, error) { return s.ExecuteScan(scan) }},
			pinnedRun{s.Name() + "/agg", func() (Execution, error) { return s.ExecuteAgg(agg) }})
		for _, j := range joins {
			runs = append(runs, pinnedRun{s.Name() + "/join/" + j.name,
				func() (Execution, error) { return s.ExecuteJoin(j.spec) }})
		}
		for _, op := range AllSubOps() {
			p := Probe{Target: op, Records: 2e6, RecordSize: 120, BuildBytes: 1 << 20}
			runs = append(runs, pinnedRun{s.Name() + "/probe/" + op.String(),
				func() (Execution, error) { return s.ExecuteProbe(p) }})
		}
	}
	return runs
}

// TestPinnedExecutions compares every run with the Execution the simulators
// returned at the commit before the exec memos were deleted (the literals
// below were printed there by this same function: `go test -run
// TestPinnedExecutions` logs a replacement table on any mismatch).
// Each run executes twice — at that commit the second call was a memo hit —
// and both must match, bit for bit.
func TestPinnedExecutions(t *testing.T) {
	runs := pinnedRuns(t)
	want := map[string]Execution{}
	for _, p := range pinnedExecutions {
		want[p.name] = Execution{ElapsedSec: p.sec, Algorithm: p.alg}
	}
	if len(want) != len(runs) {
		t.Errorf("pinned table has %d rows, %d runs", len(want), len(runs))
	}
	algs := map[string]bool{}
	bad := false
	for _, r := range runs {
		for pass := 0; pass < 2; pass++ {
			got, err := r.exec()
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			algs[got.Algorithm] = true
			if got != want[r.name] {
				bad = true
				t.Errorf("%s (call %d) = %+v, pinned %+v", r.name, pass+1, got, want[r.name])
			}
		}
	}
	for _, a := range []JoinAlgorithm{
		HiveShuffleJoin, HiveBroadcastJoin, HiveBucketMapJoin, HiveSortMergeBucketJoin, HiveSkewJoin,
		SparkBroadcastHashJoin, SparkShuffleHashJoin, SparkSortMergeJoin, SparkBroadcastNLJoin, SparkCartesianJoin,
		PrestoPartitionedJoin, PrestoReplicatedJoin, PrestoCrossJoin,
		RDBMSHashJoin, RDBMSMergeJoin, RDBMSNestedLoopJoin,
	} {
		if !algs[string(a)] {
			t.Errorf("no pinned run reaches join algorithm %s", a)
		}
	}
	if bad {
		var table strings.Builder
		for _, r := range runs {
			got, _ := r.exec()
			fmt.Fprintf(&table, "\t{%q, %v, %q},\n", r.name, got.ElapsedSec, got.Algorithm)
		}
		t.Logf("replacement table:\n%s", table.String())
	}
}

var pinnedExecutions = []struct {
	name string
	sec  float64
	alg  string
}{
	{"hive/scan", 4.010860957446394, "scan"},
	{"hive/agg", 14.344106991800606, "hash_aggregation"},
	{"hive/join/small", 10.747262675092866, "hive.broadcast_join"},
	{"hive/join/big", 360.738178209242, "hive.shuffle_join"},
	{"hive/join/big-bucketed", 2520.08081711694, "hive.bucket_map_join"},
	{"hive/join/big-bucketed-sorted", 179.56347877282704, "hive.sort_merge_bucket_join"},
	{"hive/join/big-skewed", 423.142274476924, "hive.skew_join"},
	{"hive/join/big-asymmetric", 315.1239873989233, "hive.shuffle_join"},
	{"hive/join/small-cartesian", 18.37089253438871, "hive.shuffle_join"},
	{"hive/join/big-cartesian", 360.738178209242, "hive.shuffle_join"},
	{"hive/probe/ReadDFS", 4.159245071041344, "probe:ReadDFS"},
	{"hive/probe/WriteDFS", 8.739150650683444, "probe:WriteDFS"},
	{"hive/probe/ReadLocal", 4.76729927437146, "probe:ReadLocal"},
	{"hive/probe/WriteLocal", 6.5956758094272905, "probe:WriteLocal"},
	{"hive/probe/Shuffle", 10.890853266626483, "probe:Shuffle"},
	{"hive/probe/Broadcast", 16.97506782016346, "probe:Broadcast"},
	{"hive/probe/Sort", 8.74404510036164, "probe:Sort"},
	{"hive/probe/Scan", 4.56775052453598, "probe:Scan"},
	{"hive/probe/HashBuild", 25.29631444203779, "probe:HashBuild"},
	{"hive/probe/HashProbe", 6.529402204165196, "probe:HashProbe"},
	{"hive/probe/RecMerge", 45.66518443435955, "probe:RecMerge"},
	{"spark/scan", 1.5520722431039968, "scan"},
	{"spark/agg", 6.908051337232313, "hash_aggregation"},
	{"spark/join/small", 4.853792032274822, "spark.broadcast_hash_join"},
	{"spark/join/big", 205.74732030552497, "spark.sort_merge_join"},
	{"spark/join/big-bucketed", 205.74732030552497, "spark.sort_merge_join"},
	{"spark/join/big-bucketed-sorted", 205.74732030552497, "spark.sort_merge_join"},
	{"spark/join/big-skewed", 205.74732030552497, "spark.sort_merge_join"},
	{"spark/join/big-asymmetric", 169.6730088219939, "spark.shuffle_hash_join"},
	{"spark/join/small-cartesian", 7887.531414520035, "spark.broadcast_nested_loop_join"},
	{"spark/join/big-cartesian", 3.304588796941483e+07, "spark.cartesian_product_join"},
	{"spark/probe/ReadDFS", 1.7116219081624255, "probe:ReadDFS"},
	{"spark/probe/WriteDFS", 5.018114666990174, "probe:WriteDFS"},
	{"spark/probe/ReadLocal", 1.9136262002680806, "probe:ReadLocal"},
	{"spark/probe/WriteLocal", 2.636748689194606, "probe:WriteLocal"},
	{"spark/probe/Shuffle", 4.676889093200236, "probe:Shuffle"},
	{"spark/probe/Broadcast", 7.400602765940781, "probe:Broadcast"},
	{"spark/probe/Sort", 4.3759509896938225, "probe:Sort"},
	{"spark/probe/Scan", 1.7410191507925141, "probe:Scan"},
	{"spark/probe/HashBuild", 12.407117190006732, "probe:HashBuild"},
	{"spark/probe/HashProbe", 3.1108932189806047, "probe:HashProbe"},
	{"spark/probe/RecMerge", 20.641566651577634, "probe:RecMerge"},
	{"presto/scan", 0.7787494476009011, "scan"},
	{"presto/agg", 5.008359447951189, "hash_aggregation"},
	{"presto/join/small", 4.031959733179508, "presto.replicated_join"},
	{"presto/join/big", 232.9088838610904, "presto.partitioned_join"},
	{"presto/join/big-bucketed", 232.9088838610904, "presto.partitioned_join"},
	{"presto/join/big-bucketed-sorted", 232.9088838610904, "presto.partitioned_join"},
	{"presto/join/big-skewed", 232.9088838610904, "presto.partitioned_join"},
	{"presto/join/big-asymmetric", 144.30107306694575, "presto.partitioned_join"},
	{"presto/join/small-cartesian", 6152.419422934475, "presto.cross_join"},
	{"presto/join/big-cartesian", 2.7131255094460588e+07, "presto.cross_join"},
	{"presto/probe/ReadDFS", 0.9291959574569415, "probe:ReadDFS"},
	{"presto/probe/WriteDFS", 3.8454477411298997, "probe:WriteDFS"},
	{"presto/probe/ReadLocal", 1.110985499534209, "probe:ReadLocal"},
	{"presto/probe/WriteLocal", 1.7103129196636486, "probe:WriteLocal"},
	{"presto/probe/Shuffle", 3.1844674228473275, "probe:Shuffle"},
	{"presto/probe/Broadcast", 5.594140186432547, "probe:Broadcast"},
	{"presto/probe/Sort", 3.305194180047551, "probe:Sort"},
	{"presto/probe/Scan", 1.0489615123608749, "probe:Scan"},
	{"presto/probe/HashBuild", 10.177018842300619, "probe:HashBuild"},
	{"presto/probe/HashProbe", 2.0760749306551407, "probe:HashProbe"},
	{"presto/probe/RecMerge", 17.014922284555652, "probe:RecMerge"},
	{"pg/scan", 0.4299742293871546, "scan"},
	{"pg/agg", 2.04905509906521, "hash_aggregation"},
	{"pg/join/small", 1.4353539225591316, "rdbms.hash_join"},
	{"pg/join/big", 133.50149294343862, "rdbms.hash_join"},
	{"pg/join/big-bucketed", 133.50149294343862, "rdbms.hash_join"},
	{"pg/join/big-bucketed-sorted", 59.37766451915922, "rdbms.merge_join"},
	{"pg/join/big-skewed", 133.50149294343862, "rdbms.hash_join"},
	{"pg/join/big-asymmetric", 73.46828446164388, "rdbms.hash_join"},
	{"pg/join/small-cartesian", 6284.1703496483, "rdbms.nested_loop_join"},
	{"pg/join/big-cartesian", 3.835155753287634e+07, "rdbms.nested_loop_join"},
	{"pg/probe/ReadDFS", 0.21439009978573373, "probe:ReadDFS"},
	{"pg/probe/WriteDFS", 0.9466212141843614, "probe:WriteDFS"},
	{"pg/probe/ReadLocal", 0.31213115182831097, "probe:ReadLocal"},
	{"pg/probe/WriteLocal", 0.5677222593599716, "probe:WriteLocal"},
	{"pg/probe/Shuffle", 0.21890269136069343, "probe:Shuffle"},
	{"pg/probe/Broadcast", 0.2109806930811388, "probe:Broadcast"},
	{"pg/probe/Sort", 0.8739003674928338, "probe:Sort"},
	{"pg/probe/Scan", 0.26501511211888285, "probe:Scan"},
	{"pg/probe/HashBuild", 2.3079676115320953, "probe:HashBuild"},
	{"pg/probe/HashProbe", 0.5550236545177684, "probe:HashProbe"},
	{"pg/probe/RecMerge", 3.669967878452571, "probe:RecMerge"},
}
