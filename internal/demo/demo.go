// Package demo stands up the demo federation shared by the interactive
// shell (cmd/intellisphere) and the HTTP server (cmd/serve): a master engine
// with three simulated remote systems (Hive-like, Spark-like, and
// Presto-like clusters), the Figure 10 synthetic tables spread across them,
// sub-op-trained cost models, and two small materialized tables so queries
// over them return real rows.
package demo

import (
	"intellisphere/internal/cluster"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/engine"
	"intellisphere/internal/faults"
	"intellisphere/internal/remote"
	"intellisphere/internal/resilience"
)

// Config tunes the demo federation.
type Config struct {
	// Seed drives every simulator's noise (remotes derive their own seeds
	// from it deterministically). Zero selects 1.
	Seed int64
	// PlanCacheSize passes through to the engine configuration.
	PlanCacheSize int
	// Breaker passes through to the engine's resilience layer; the zero
	// value selects the resilience defaults.
	Breaker resilience.BreakerConfig
	// LogicalRemote additionally stands up a fourth, blackbox remote
	// ("flink") whose cost models are logical-op neural networks trained by
	// executing the Figure 10 workloads — the only model family the
	// feedback/tuning loop can retrain, which is what the drift-tuner smoke
	// needs. Off by default: training executes real workload queries at
	// build time, and the default federation's outputs must stay
	// byte-identical with the option off.
	LogicalRemote bool
}

// Federation is the built demo plus the chaos controls over it: every
// remote sits behind a fault injector keyed by system name. The injectors
// start disarmed, a pure passthrough, so every output stays byte-identical
// to an injection-free build until rates are dialed in (POST /faults). Each
// has its own draw seed — hive 0, spark 1, presto 2, flink 3 — so dialed
// faults de-correlate across systems.
type Federation struct {
	Engine    *engine.Engine
	Injectors map[string]*faults.Injector
}

// Statements returns a representative statement mix over the demo tables —
// scans, an aggregation, and joins spanning systems. cmd/serve pre-plans it
// with -warm so the plan cache is hot before the first client arrives, and
// it doubles as a ready-made POST /query/batch payload.
func Statements() []string {
	return []string{
		"SELECT a1 FROM t10000_100 WHERE a1 < 100",
		"SELECT a1 FROM t80000000_1000 WHERE a1 < 60000000",
		"SELECT a2, COUNT(*) FROM t1000000_100 GROUP BY a2",
		"SELECT t1000000_100.a1 FROM t1000000_100 JOIN t100000_100 ON t1000000_100.a1 = t100000_100.a1",
		"SELECT users.a1 FROM users JOIN events ON users.a1 = events.a1",
		"SELECT warehouse.a1 FROM warehouse JOIN t10000000_250 ON warehouse.a1 = t10000000_250.a1",
		"SELECT a1 FROM dim_local",
	}
}

// Build constructs the demo federation, discarding the injector handles.
func Build(cfg Config) (*engine.Engine, error) {
	fed, err := BuildFederation(cfg)
	if err != nil {
		return nil, err
	}
	return fed.Engine, nil
}

// BuildFederation constructs the demo federation: hive owns the bulk of the
// Figure 10 tables, spark owns a handful, presto one warehouse, the master
// one local dimension table, and two small hive tables are materialized.
// The hive and spark tables are cross-replicated (and the warehouse
// replicated onto hive): the optimizer costs every copy, and degraded
// re-planning has somewhere to go when a remote fails. Every remote is registered behind a disarmed fault injector.
func BuildFederation(cfg Config) (*Federation, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	eng, err := engine.New(engine.Config{
		Seed: cfg.Seed, PlanCacheSize: cfg.PlanCacheSize,
		Breaker: cfg.Breaker,
	})
	if err != nil {
		return nil, err
	}
	injectors := map[string]*faults.Injector{}
	hive, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	injectors["hive"] = faults.Wrap(hive, faults.Config{Seed: 0})
	if _, _, err := eng.RegisterRemoteSubOp(injectors["hive"], remote.EngineHive, subop.InHouseComparable); err != nil {
		return nil, err
	}
	sparkCluster := cluster.DefaultHive()
	sparkCluster.Name = "spark-vm"
	spark, err := remote.NewSpark("spark", sparkCluster, remote.Options{Seed: cfg.Seed + 2})
	if err != nil {
		return nil, err
	}
	injectors["spark"] = faults.Wrap(spark, faults.Config{Seed: 1})
	if _, _, err := eng.RegisterRemoteSubOp(injectors["spark"], remote.EngineSpark, subop.InHouseComparable); err != nil {
		return nil, err
	}
	prestoCluster := cluster.DefaultHive()
	prestoCluster.Name = "presto-vm"
	presto, err := remote.NewPresto("presto", prestoCluster, remote.Options{Seed: cfg.Seed + 3})
	if err != nil {
		return nil, err
	}
	injectors["presto"] = faults.Wrap(presto, faults.Config{Seed: 2})
	if _, _, err := eng.RegisterRemoteSubOp(injectors["presto"], remote.EnginePresto, subop.InHouseComparable); err != nil {
		return nil, err
	}

	// Every copy is a placement candidate: an operator over a hive table
	// may run on its spark copy, and a table ships from whichever copy has
	// the cheapest link. The copies also give degraded re-planning a place
	// to go when a remote fails or open-circuits.
	for _, rows := range []int64{10000, 100000, 1000000, 10000000, 80000000} {
		for _, size := range []int{100, 250, 1000} {
			tb, err := datagen.Table(rows, size, "hive")
			if err != nil {
				return nil, err
			}
			tb.Replicas = []string{"spark"}
			if err := eng.RegisterTable(tb); err != nil {
				return nil, err
			}
		}
	}
	for _, spec := range []struct {
		rows int64
		size int
		name string
	}{
		{2000000, 100, "events"},
		{200000, 100, "users"},
	} {
		tb, err := datagen.Table(spec.rows, spec.size, "spark")
		if err != nil {
			return nil, err
		}
		tb.Name = spec.name
		tb.Replicas = []string{"hive"}
		if err := eng.RegisterTable(tb); err != nil {
			return nil, err
		}
	}
	warehouse, err := datagen.Table(5000000, 250, "presto")
	if err != nil {
		return nil, err
	}
	warehouse.Name = "warehouse"
	warehouse.Replicas = []string{"hive"}
	if err := eng.RegisterTable(warehouse); err != nil {
		return nil, err
	}
	local, err := datagen.Table(50000, 100, "")
	if err != nil {
		return nil, err
	}
	local.Name = "dim_local"
	if err := eng.RegisterTable(local); err != nil {
		return nil, err
	}
	for _, name := range []string{"t10000_100", "t100000_100"} {
		if err := eng.Materialize(name); err != nil {
			return nil, err
		}
	}
	if cfg.LogicalRemote {
		if err := addLogicalRemote(eng, injectors, cfg.Seed); err != nil {
			return nil, err
		}
	}
	return &Federation{Engine: eng, Injectors: injectors}, nil
}

// addLogicalRemote stands up the blackbox "flink" remote: two tables of its
// own and logical-op models trained by executing the join/aggregation/scan
// workloads against it (trimmed sizes — the point is a tunable model, not
// the paper's full training budget). Its tables register straight into the
// catalog before the system exists, the same bootstrap the training tests
// use, because logical-op training discovers its workload from the catalog.
func addLogicalRemote(eng *engine.Engine, injectors map[string]*faults.Injector, seed int64) error {
	flinkCluster := cluster.DefaultHive()
	flinkCluster.Name = "flink-vm"
	flink, err := remote.NewSpark("flink", flinkCluster, remote.Options{Seed: seed + 4})
	if err != nil {
		return err
	}
	inj := faults.Wrap(flink, faults.Config{Seed: 3})
	injectors["flink"] = inj
	// The big table matters: at 40 GB, shipping it over QueryGrid dwarfs any
	// local operator, so the optimizer keeps flink's aggregations on flink —
	// which is what feeds the logical models' execution logs.
	for _, spec := range []struct {
		rows int64
		size int
	}{
		{80000000, 500},
		{500000, 250},
	} {
		tb, err := datagen.Table(spec.rows, spec.size, "flink")
		if err != nil {
			return err
		}
		if err := eng.Catalog().Register(tb); err != nil {
			return err
		}
	}
	lcfg := func(dim int, s int64) logicalop.Config {
		c := logicalop.DefaultConfig(dim, s)
		c.NN.Train.Iterations = 200
		c.NN.Train.BatchSize = 32
		return c
	}
	_, _, err = eng.RegisterRemoteLogicalOp(inj, remote.EngineSpark, engine.LogicalTrainOptions{
		JoinPairs: 24,
		TrainScan: true,
		Join:      lcfg(7, seed+42),
		Agg:       lcfg(4, seed+43),
		Scan:      lcfg(4, seed+44),
		Seed:      seed + 4,
	})
	return err
}
