// Package intellisphere is the public facade of the IntelliSphere
// reproduction: a federated SQL layer whose master engine costs every
// operator placement on heterogeneous remote systems with the paper's
// remote-system cost estimation module (EDBT 2020, "Cost Estimation Across
// Heterogeneous SQL-Based Big Data Infrastructures in Teradata
// IntelliSphere").
//
// The typical flow mirrors the paper's architecture (Figure 1):
//
//	eng, _ := intellisphere.NewEngine(intellisphere.EngineConfig{})
//	hive, _ := intellisphere.NewHiveSystem("hive", intellisphere.DefaultHiveCluster(), intellisphere.SystemOptions{})
//	eng.RegisterRemoteSubOp(hive, intellisphere.EngineHive, intellisphere.InHouseComparable) // openbox: probe training
//	eng.RegisterTable(...)                                                                   // foreign tables
//	res, _ := eng.Query("SELECT r.a1 FROM big r JOIN small s ON r.a1 = s.a1")
//
// Blackbox remotes train per-operator neural models instead
// (Engine.RegisterRemoteLogicalOp), and hybrid costing profiles choose
// between the approaches per system or per operator (package
// internal/core/hybrid, reachable through the engine).
package intellisphere

import (
	"intellisphere/internal/cluster"
	"intellisphere/internal/core"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/engine"
	"intellisphere/internal/plan"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/remote"
)

// Engine is the master ("Teradata") engine: catalog, optimizer, training
// orchestration, and federated query execution.
type Engine = engine.Engine

// EngineConfig tunes the master engine.
type EngineConfig = engine.Config

// QueryResult is one executed federated query: the chosen plan, simulated
// actual times, and (for materialized tables) real result rows.
type QueryResult = engine.QueryResult

// LogicalTrainOptions controls blackbox (logical-op) training.
type LogicalTrainOptions = engine.LogicalTrainOptions

// NewEngine builds a master engine and calibrates its own cost model.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// ClusterConfig describes a remote system's cluster shape.
type ClusterConfig = cluster.Config

// DefaultHiveCluster returns the paper's 4-node Hive VM cluster shape.
func DefaultHiveCluster() ClusterConfig { return cluster.DefaultHive() }

// RemoteSystem is a simulated remote engine with a SQL-like interface.
type RemoteSystem = remote.System

// SystemOptions tunes a simulated remote system.
type SystemOptions = remote.Options

// EngineKind distinguishes Hive-like and Spark-like execution models.
type EngineKind = remote.EngineKind

// Engine kinds.
const (
	EngineHive   = remote.EngineHive
	EngineSpark  = remote.EngineSpark
	EnginePresto = remote.EnginePresto
)

// NewHiveSystem builds a Hive-like remote system simulator.
func NewHiveSystem(name string, cfg ClusterConfig, opts SystemOptions) (*remote.Distributed, error) {
	return remote.NewHive(name, cfg, opts)
}

// NewSparkSystem builds a Spark-like remote system simulator.
func NewSparkSystem(name string, cfg ClusterConfig, opts SystemOptions) (*remote.Distributed, error) {
	return remote.NewSpark(name, cfg, opts)
}

// NewPrestoSystem builds a Presto-like MPP remote system simulator.
func NewPrestoSystem(name string, cfg ClusterConfig, opts SystemOptions) (*remote.Distributed, error) {
	return remote.NewPresto(name, cfg, opts)
}

// NewRDBMSSystem builds a single-node RDBMS remote system simulator.
func NewRDBMSSystem(name string, cfg ClusterConfig, opts SystemOptions) (*remote.RDBMS, error) {
	return remote.NewRDBMS(name, cfg, opts)
}

// ChoicePolicy resolves physical-algorithm ambiguity in sub-op costing.
type ChoicePolicy = subop.ChoicePolicy

// Choice policies (Section 4).
const (
	WorstCase         = subop.WorstCase
	AverageCase       = subop.AverageCase
	InHouseComparable = subop.InHouseComparable
)

// Approach names one of the paper's costing approaches.
type Approach = core.Approach

// The three costing approaches.
const (
	LogicalOp = core.LogicalOp
	SubOp     = core.SubOp
	Hybrid    = core.Hybrid
)

// Estimate is a cost prediction with its provenance.
type Estimate = core.Estimate

// Estimator predicts remote operator costs.
type Estimator = core.Estimator

// CostingProfile is a remote system's persisted costing configuration
// (Figure 9's "CP"). Figure 9's staged switch from sub-op to logical-op
// costing at t1 is two profiles, the second built once the logical-op
// models are trained.
type CostingProfile = hybrid.Profile

// HybridEstimator routes estimates through a costing profile. It is fixed
// when built: to cost a system differently, build a new one from a new
// profile.
type HybridEstimator = hybrid.Estimator

// NewHybridEstimator builds an estimator from a costing profile, which it
// takes over: do not change the profile afterwards.
func NewHybridEstimator(p *CostingProfile) (*HybridEstimator, error) {
	return hybrid.NewEstimator(p)
}

// JoinSpec, AggSpec, and ScanSpec describe operators for direct estimation.
type (
	JoinSpec  = plan.JoinSpec
	AggSpec   = plan.AggSpec
	ScanSpec  = plan.ScanSpec
	TableSide = plan.TableSide
)

// LogicalModel is a trained logical-operator costing model.
type LogicalModel = logicalop.Model

// LogicalConfig tunes logical-op training.
type LogicalConfig = logicalop.Config

// DefaultLogicalConfig returns the paper's logical-op settings for an
// operator with the given input dimensionality.
func DefaultLogicalConfig(inputDim int, seed int64) LogicalConfig {
	return logicalop.DefaultConfig(inputDim, seed)
}

// SubOpModels is a learned set of per-sub-operator cost models.
type SubOpModels = subop.ModelSet

// TrainSubOp learns a remote system's sub-operator models from probe
// queries (openbox costing, Section 4).
func TrainSubOp(sys RemoteSystem) (*SubOpModels, *subop.Report, error) {
	return subop.Train(sys, subop.TrainConfig{})
}

// Master is the reserved name of the master engine in plans and transfers.
const Master = querygrid.Master
