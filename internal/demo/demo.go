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
	// Faults configures fault injection on every remote (the master is
	// never injected). The zero value disables injection entirely, and a
	// disabled injector is a pure passthrough, so every output stays
	// byte-identical to an injection-free build. Each remote derives its
	// own draw seed from Faults.Seed so faults de-correlate across systems.
	Faults faults.Config
	// Breaker and Retry pass through to the engine's resilience layer;
	// zero values select the resilience defaults.
	Breaker resilience.BreakerConfig
	Retry   resilience.RetryPolicy
	// TraceBuffer passes through to the engine's trace ring (0 = default
	// size, negative disables).
	TraceBuffer int
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
// remote sits behind a fault injector keyed by system name.
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
// replicated onto hive), so degraded re-planning has somewhere to go when a
// remote fails. Every remote is registered behind a fault injector; the
// injector stays fault-free during sub-op training (trained models match an
// injection-free build) and takes cfg.Faults only after the build finishes.
func BuildFederation(cfg Config) (*Federation, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	eng, err := engine.New(engine.Config{
		Seed: cfg.Seed, PlanCacheSize: cfg.PlanCacheSize,
		Breaker: cfg.Breaker, Retry: cfg.Retry, TraceBuffer: cfg.TraceBuffer,
	})
	if err != nil {
		return nil, err
	}
	injectors := map[string]*faults.Injector{}
	hive, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	injectors["hive"] = faults.Wrap(hive, faults.Config{})
	if _, _, err := eng.RegisterRemoteSubOp(injectors["hive"], remote.EngineHive, subop.InHouseComparable); err != nil {
		return nil, err
	}
	sparkCluster := cluster.DefaultHive()
	sparkCluster.Name = "spark-vm"
	spark, err := remote.NewSpark("spark", sparkCluster, remote.Options{Seed: cfg.Seed + 2})
	if err != nil {
		return nil, err
	}
	injectors["spark"] = faults.Wrap(spark, faults.Config{})
	if _, _, err := eng.RegisterRemoteSubOp(injectors["spark"], remote.EngineSpark, subop.InHouseComparable); err != nil {
		return nil, err
	}
	prestoCluster := cluster.DefaultHive()
	prestoCluster.Name = "presto-vm"
	presto, err := remote.NewPresto("presto", prestoCluster, remote.Options{Seed: cfg.Seed + 3})
	if err != nil {
		return nil, err
	}
	injectors["presto"] = faults.Wrap(presto, faults.Config{})
	if _, _, err := eng.RegisterRemoteSubOp(injectors["presto"], remote.EnginePresto, subop.InHouseComparable); err != nil {
		return nil, err
	}

	// Replicas change nothing while the owner is healthy (the optimizer
	// always prefers the primary), but give degraded re-planning a place
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
	armed := []string{"hive", "spark", "presto"}
	if cfg.LogicalRemote {
		if err := addLogicalRemote(eng, injectors, cfg.Seed); err != nil {
			return nil, err
		}
		armed = append(armed, "flink")
	}
	// Arm the injectors only now, after training, with a per-remote draw
	// seed so the systems' fault sequences de-correlate.
	for i, name := range armed {
		c := cfg.Faults
		c.Seed = cfg.Faults.Seed + int64(i)
		injectors[name].Configure(c)
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
	inj := faults.Wrap(flink, faults.Config{})
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
