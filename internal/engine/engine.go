// Package engine implements the master ("Teradata") engine of the
// IntelliSphere architecture (Section 2): it owns the catalog of local and
// foreign tables, registers remote systems with their costing profiles,
// orchestrates the training phases (sub-op probing, logical-op workload
// execution), plans every SQL query with the cost-based federated
// optimizer, executes the chosen plan against the remote-system simulators,
// feeds actual execution times back to the learning estimators (Figure 3's
// logging phase), and — when the referenced tables are materialized —
// computes real result rows with the row engine.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"intellisphere/internal/catalog"
	"intellisphere/internal/cluster"
	"intellisphere/internal/core"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/metrics"
	"intellisphere/internal/modelver"
	"intellisphere/internal/nn"
	"intellisphere/internal/obs"
	"intellisphere/internal/optimizer"
	"intellisphere/internal/plan"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/registry"
	"intellisphere/internal/remote"
	"intellisphere/internal/resilience"
	"intellisphere/internal/rowengine"
	"intellisphere/internal/sqlparse"
	"intellisphere/internal/trace"
	"intellisphere/internal/workload"
)

// Config tunes the master engine.
type Config struct {
	// Seed drives the master's own simulator noise.
	Seed int64
	// PlanCacheSize bounds the statement cache (CLOCK eviction): one entry
	// per statement text, holding its parse and its latest plan. 0 selects
	// the default (256 statements); negative disables caching entirely.
	PlanCacheSize int
	// Retry governs the retry loop around every remote plan-step call.
	// The zero value selects the resilience defaults (3 attempts, 25ms
	// base backoff doubling to 1s, deterministic ±20% jitter).
	Retry resilience.RetryPolicy
	// Breaker configures the per-remote circuit breakers. The zero value
	// selects the resilience defaults (open after 5 consecutive
	// infrastructural failures, half-open probe after 10s).
	Breaker resilience.BreakerConfig
}

// Engine is the master engine. The remote-system, estimator, and
// materialized-table registries are read-mostly copy-on-write maps, so the
// serving path (Query/Explain from many goroutines) never takes a lock to
// look one up; registration and materialization are the only writers.
type Engine struct {
	cat          *catalog.Catalog
	grid         *querygrid.Grid
	master       remote.System
	remotes      *registry.Map[remote.System]
	estimators   *registry.Map[core.Estimator]
	materialized *registry.Map[*rowengine.Table]
	opt          *optimizer.Optimizer
	// stmts is the read path's one cache, raw statement text → cachedStmt (nil
	// when caching is disabled); sighted is its admission filter (admit); the
	// counters are the verdicts of plan's epoch compare.
	stmts                           *optimizer.Cache[*cachedStmt]
	sighted                         []atomic.Uint32
	planHits, planMisses, planStale metrics.Counter

	breakers *resilience.Group
	retry    resilience.RetryPolicy

	traces *trace.Ring
	// events is the optional wide-event recorder (see internal/obs). nil —
	// the default — keeps the serving path identical to an uninstrumented
	// build: one atomic load per query, no clock reads, no allocations.
	events atomic.Pointer[obs.Recorder]
	// driftQ is the mean q-error above which an accuracy window reads
	// drifting, as math.Float64bits (zero: metrics.DefaultDriftQError).
	driftQ atomic.Uint64
	// stepStates is the per-(system, operator kind) table: the state
	// executeStep touches on every step, the pair's accuracy window among it,
	// behind an atomic snapshot so a step builds no string key. Writers
	// (first execution of a pair, or a rebuild after a registry change)
	// serialize on stepMu and install a copied map, mirroring the
	// registry.Map idiom.
	stepStates atomic.Pointer[map[stepKey]*stepState]
	stepMu     sync.Mutex

	// versions archives serialized costing profiles per system — the model
	// lifecycle behind candidate promotion and rollback.
	versions *modelver.Store
	// dur is the attached durability sink (nil until OpenDurability): every
	// registry mutation is WAL-logged through it before its caller is acked.
	dur atomic.Pointer[Durability]
	// mutMu serializes the non-model registry mutations (table registration,
	// link changes, materialization) so their WAL append order matches their
	// apply order. Model mutations serialize under tuneMu instead; snapshot
	// capture holds both.
	mutMu sync.Mutex
	// tuneMu serializes candidate tuning, promotion, and rollback for the
	// whole engine: the tuner, /models POSTs, and tests may race, and two
	// concurrent promotions for one system would corrupt the version
	// lineage.
	tuneMu sync.Mutex

	queries        metrics.Counter
	queryErrors    metrics.Counter
	retries        metrics.Counter
	fallbacks      metrics.Counter
	degraded       metrics.Counter
	tuneAttempts   metrics.Counter
	tunePromotions metrics.Counter
	tuneRejections metrics.Counter
	tuneRollbacks  metrics.Counter
	parseHist      *metrics.Histogram
	planHist       *metrics.Histogram
	executeHist    *metrics.Histogram
}

// New builds a master engine, spins up its own execution simulator, and
// calibrates the master's cost model with a sub-op probe run (Teradata's
// own costing "is based on the sub-op costing approach", Section 4). The
// master is a 2-node, 8-core parallel database; the default QueryGrid link
// runs at 1 Gbit/s.
func New(cfg Config) (*Engine, error) {
	masterCluster := cluster.Config{
		Name: querygrid.Master, Nodes: 2, DataNodes: 2, CoresPerNode: 8,
		MemoryPerNode: 64 << 30, DFSBlockBytes: 64 << 20, Replication: 1, MemoryFraction: 0.5,
	}
	master, err := remote.NewRDBMS(querygrid.Master, masterCluster, remote.Options{Seed: cfg.Seed, NoiseAmp: 0.02})
	if err != nil {
		return nil, fmt.Errorf("engine: build master simulator: %w", err)
	}
	grid, err := querygrid.New(querygrid.DefaultLink())
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cat:          catalog.New(),
		grid:         grid,
		master:       master,
		remotes:      registry.New[remote.System](),
		estimators:   registry.New[core.Estimator](),
		materialized: registry.New[*rowengine.Table](),
		versions:     modelver.NewStore(modelver.DefaultHistory),
		breakers:     resilience.NewGroup(cfg.Breaker),
		retry:        cfg.Retry,
		traces:       trace.NewRing(trace.DefaultRingSize),
		parseHist:    metrics.NewLatencyHistogram(),
		planHist:     metrics.NewLatencyHistogram(),
		executeHist:  metrics.NewLatencyHistogram(),
	}
	e.remotes.Set(querygrid.Master, master)
	ms, _, err := subop.Train(master, subop.TrainConfig{})
	if err != nil {
		return nil, fmt.Errorf("engine: calibrate master cost model: %w", err)
	}
	selfEst, err := subop.NewEstimator(ms, remote.EngineHive, subop.InHouseComparable)
	if err != nil {
		return nil, err
	}
	e.installEstimator(querygrid.Master, selfEst)
	if cfg.PlanCacheSize >= 0 {
		e.stmts = optimizer.NewCache[*cachedStmt](cfg.PlanCacheSize)
		e.sighted = make([]atomic.Uint32, sightingsPerEntry*e.stmts.Stats().Capacity)
	}
	e.opt = &optimizer.Optimizer{Catalog: e.cat, Grid: e.grid, Estimators: e.estimators}
	return e, nil
}

// PlanCacheStats is the statement cache's effectiveness: its own size,
// capacity and evictions, and the verdicts of the engine's epoch compare — a
// hit is a statement answered with a cached plan, a miss one that was planned
// (not resident, or resident with a plan from an earlier epoch, which also
// counts as stale).
type PlanCacheStats struct {
	optimizer.CacheStats
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Stale  uint64 `json:"stale"`
}

// PlanCacheStats reports the statement cache's effectiveness (zero when
// caching is disabled).
func (e *Engine) PlanCacheStats() PlanCacheStats {
	if e.stmts == nil {
		return PlanCacheStats{}
	}
	return PlanCacheStats{CacheStats: e.stmts.Stats(), Hits: e.planHits.Value(), Misses: e.planMisses.Value(), Stale: e.planStale.Value()}
}

// Stats is a point-in-time snapshot of serving health: query counts, the
// per-stage latency histograms (wall clock of the serving process, not
// simulated time), plan-cache effectiveness, resilience, tuning and
// estimator accuracy.
type Stats struct {
	Queries     uint64                    `json:"queries"`
	QueryErrors uint64                    `json:"query_errors"`
	Parse       metrics.HistogramSnapshot `json:"parse"`
	Plan        metrics.HistogramSnapshot `json:"plan"`
	Execute     metrics.HistogramSnapshot `json:"execute"`
	PlanCache   PlanCacheStats            `json:"plan_cache"`
	Resilience  ResilienceStats           `json:"resilience"`
	// Tuning summarizes the model-lifecycle loop: drift-triggered candidate
	// tunes and their outcomes.
	Tuning TuningStats `json:"tuning"`
	// Accuracy reports each estimator's rolling prediction accuracy per
	// (system, operator): how well predicted step costs track the observed
	// execution times.
	Accuracy []AccuracyStat `json:"accuracy,omitempty"`
	// Traces counts traced queries recorded into the trace ring.
	Traces uint64 `json:"traces"`
}

// TuningStats counts model-lifecycle events: candidate tune attempts and
// how each resolved (promotion after holdout improvement, rejection
// otherwise), plus operator-driven rollbacks.
type TuningStats struct {
	Attempts   uint64 `json:"attempts"`
	Promotions uint64 `json:"promotions"`
	Rejections uint64 `json:"rejections"`
	Rollbacks  uint64 `json:"rollbacks"`
}

// TuningStats snapshots the model-lifecycle counters.
func (e *Engine) TuningStats() TuningStats {
	return TuningStats{
		Attempts:   e.tuneAttempts.Value(),
		Promotions: e.tunePromotions.Value(),
		Rejections: e.tuneRejections.Value(),
		Rollbacks:  e.tuneRollbacks.Value(),
	}
}

// ResilienceStats summarizes the fault-tolerance layer: remote-call
// retries, degraded re-plans, and per-remote circuit-breaker state.
type ResilienceStats struct {
	// Retries counts remote plan-step calls repeated after a transient
	// failure.
	Retries uint64 `json:"retries"`
	// Fallbacks counts degraded re-plans (one per excluded system).
	Fallbacks uint64 `json:"fallbacks"`
	// DegradedQueries counts queries answered by a fallback plan.
	DegradedQueries uint64 `json:"degraded_queries"`
	// Breakers snapshots every per-remote circuit breaker by system name.
	Breakers map[string]resilience.BreakerSnapshot `json:"breakers"`
}

// Stats snapshots the engine's serving metrics.
func (e *Engine) Stats() Stats {
	return Stats{
		Queries:     e.queries.Value(),
		QueryErrors: e.queryErrors.Value(),
		Parse:       e.parseHist.Snapshot(),
		Plan:        e.planHist.Snapshot(),
		Execute:     e.executeHist.Snapshot(),
		PlanCache:   e.PlanCacheStats(),
		Resilience:  e.ResilienceStats(),
		Tuning:      e.TuningStats(),
		Accuracy:    e.AccuracyStats(),
		Traces:      e.traces.Count(),
	}
}

// AccuracyStat is one (system, operator) estimator-accuracy window as the
// engine reports it.
type AccuracyStat struct {
	System   string `json:"system"`
	Operator string `json:"operator"`
	metrics.AccuracySnapshot
	// Drifting reports the window's mean q-error exceeds the engine's drift
	// threshold — the signal an offline retune should pick this model up.
	// It is the only drift decision: Stats, /metrics/prom and the tuner all
	// read it.
	Drifting bool `json:"drifting"`
}

// AccuracyStats snapshots every per-(system, operator) estimator-accuracy
// window, sorted by system and then operator.
func (e *Engine) AccuracyStats() []AccuracyStat {
	m := e.stepStates.Load()
	if m == nil {
		return nil
	}
	driftQ := math.Float64frombits(e.driftQ.Load())
	if driftQ <= 0 {
		driftQ = metrics.DefaultDriftQError
	}
	out := make([]AccuracyStat, 0, len(*m))
	for k, st := range *m {
		s := st.acc.Snapshot()
		out = append(out, AccuracyStat{System: k.system, Operator: k.kind, AccuracySnapshot: s, Drifting: s.MeanQError > driftQ})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].System != out[j].System {
			return out[i].System < out[j].System
		}
		return out[i].Operator < out[j].Operator
	})
	return out
}

// resetAccuracy empties every accuracy window belonging to a system. The
// engine calls it whenever the system's model changes — candidate
// promotion or rollback — because the
// retained samples scored the old model; leaving them in
// the window would keep the drift flag latched (and immediately re-fire
// the tuner) long after the model change fixed the calibration. The windows
// reset in place, so step-table entries built before the change share them.
func (e *Engine) resetAccuracy(system string) {
	if m := e.stepStates.Load(); m != nil {
		for k, st := range *m {
			if k.system == system {
				st.acc.Reset()
			}
		}
	}
}

// ErrUnknownSystem tags failures caused by a request or plan naming a
// system that is not registered, so the serving layer can classify them
// (errors.Is) without string matching.
var ErrUnknownSystem = errors.New("unknown system")

// unknownSystemError keeps the exact historical message text while
// supporting errors.Is(err, ErrUnknownSystem).
type unknownSystemError struct{ msg string }

func (e *unknownSystemError) Error() string        { return e.msg }
func (e *unknownSystemError) Is(target error) bool { return target == ErrUnknownSystem }

// stepKey identifies one (system, operator kind) pair without the string
// concatenation a combined key would cost on every lookup.
type stepKey struct{ system, kind string }

// stepState is the per-(system, kind) state executeStep touches on every
// step: the retry salt, the accuracy window, and the per-system lookups —
// remote handle, estimator, breaker. The first two are created once per pair
// and carried into every rebuild; sys and est come from mutable registries,
// so the entry records the registry generations it observed and is rebuilt
// when either registry changes.
type stepState struct {
	salt string
	acc  *metrics.Accuracy
	br   *resilience.Breaker
	sys  remote.System
	est  core.Estimator
	rgen uint64 // remotes generation at capture
	egen uint64 // estimators generation at capture
}

// stepStateFor returns the cached hot-path state for one (system, kind)
// pair, creating and installing it on first execution and rebuilding it
// when the remote or estimator registry has changed. The fast path is two
// atomic generation loads plus a struct-keyed map lookup — no allocation,
// no string concatenation. A rebuilt entry keeps its predecessor's salt and
// window, and the first entry of a pair creates them under stepMu, so
// concurrent first executions share one window. An unknown system returns an
// error before any side effect (no accuracy window or breaker is created for
// it).
func (e *Engine) stepStateFor(system, kind string) (*stepState, error) {
	k := stepKey{system, kind}
	rgen, egen := e.remotes.Generation(), e.estimators.Generation()
	if m := e.stepStates.Load(); m != nil {
		if st, ok := (*m)[k]; ok && st.rgen == rgen && st.egen == egen {
			return st, nil
		}
	}
	sys, ok := e.remotes.Get(system)
	if !ok {
		return nil, &unknownSystemError{msg: fmt.Sprintf("engine: plan step targets unknown system %q", system)}
	}
	est, _ := e.estimators.Get(system)
	st := &stepState{
		br:   e.breakers.For(system),
		sys:  sys,
		est:  est,
		rgen: rgen,
		egen: egen,
	}
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	next := make(map[stepKey]*stepState, 8)
	if old := e.stepStates.Load(); old != nil {
		for ok, ov := range *old {
			next[ok] = ov
		}
	}
	if prev, ok := next[k]; ok {
		st.salt, st.acc = prev.salt, prev.acc
	} else {
		st.salt, st.acc = system+"/"+kind, metrics.NewAccuracy(0)
	}
	next[k] = st
	e.stepStates.Store(&next)
	return st, nil
}

// ResilienceStats snapshots retry/fallback counters and breaker states.
func (e *Engine) ResilienceStats() ResilienceStats {
	return ResilienceStats{
		Retries:         e.retries.Value(),
		Fallbacks:       e.fallbacks.Value(),
		DegradedQueries: e.degraded.Value(),
		Breakers:        e.breakers.Snapshot(),
	}
}

// Health is the engine's liveness verdict for /health: ok while every
// circuit breaker is closed, degraded otherwise.
type Health struct {
	Status     string          `json:"status"` // "ok" or "degraded"
	OpenCount  int             `json:"open_breakers"`
	Resilience ResilienceStats `json:"resilience"`
}

// Health reports whether the federation is fully available.
func (e *Engine) Health() Health {
	h := Health{Status: "ok", OpenCount: e.breakers.OpenCount(), Resilience: e.ResilienceStats()}
	if h.OpenCount > 0 {
		h.Status = "degraded"
	}
	return h
}

// Breaker exposes the circuit breaker guarding a system, creating it closed
// on first use (tests and operational tooling flip or inspect it directly).
func (e *Engine) Breaker(system string) *resilience.Breaker {
	return e.breakers.For(system)
}

// Catalog exposes the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Grid exposes the QueryGrid model.
func (e *Engine) Grid() *querygrid.Grid { return e.grid }

// Remote returns a registered remote system. The lookup is lock-free.
func (e *Engine) Remote(name string) (remote.System, error) {
	sys, ok := e.remotes.Get(name)
	if !ok {
		return nil, &unknownSystemError{msg: fmt.Sprintf("engine: unknown remote system %q", name)}
	}
	return sys, nil
}

// Estimator returns the cost estimator registered for a system. The lookup
// is lock-free.
func (e *Engine) Estimator(name string) (core.Estimator, error) {
	est, ok := e.estimators.Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: no estimator for system %q", name)
	}
	return est, nil
}

// Systems lists registered system names (master included), sorted.
func (e *Engine) Systems() []string { return e.remotes.Names() }

// RegisterRemote adds a remote system with an already built estimator
// (typically a hybrid.Estimator wrapping its costing profile).
func (e *Engine) RegisterRemote(sys remote.System, est core.Estimator) error {
	if sys == nil || est == nil {
		return fmt.Errorf("engine: remote system and estimator are required")
	}
	name := sys.Name()
	if name == querygrid.Master {
		return fmt.Errorf("engine: %q is reserved for the master", name)
	}
	if !e.remotes.SetIfAbsent(name, sys) {
		return fmt.Errorf("engine: remote %q already registered", name)
	}
	e.installEstimator(name, est)
	return nil
}

// installEstimator is the one place an estimator enters the registry, and
// so the one way a remote's costing changes: registration, snapshot restore,
// WAL replay, promotion and rollback all come through here. The Set advances
// the registry's generation — part of the optimizer's epoch, so plans costed
// by the replaced estimator go stale, and what stepStateFor watches to
// rebuild onto the new one. A hybrid estimator never changes what it
// predicts after it is built, so nothing else has to move the epoch.
func (e *Engine) installEstimator(system string, est core.Estimator) {
	e.estimators.Set(system, est)
}

// RegisterRemoteSubOp registers an openbox remote, running the sub-op probe
// training and wrapping the learned models in a costing profile.
func (e *Engine) RegisterRemoteSubOp(sys remote.System, kind remote.EngineKind, policy subop.ChoicePolicy) (*hybrid.Estimator, *subop.Report, error) {
	ms, rep, err := subop.Train(sys, subop.TrainConfig{})
	if err != nil {
		return nil, nil, fmt.Errorf("engine: sub-op training for %q: %w", sys.Name(), err)
	}
	prof := &hybrid.Profile{
		SystemName: sys.Name(), Engine: kind, Active: core.SubOp,
		Policy: policy, SubOpModels: ms,
	}
	est, err := hybrid.NewEstimator(prof)
	if err != nil {
		return nil, nil, err
	}
	if err := e.RegisterRemote(sys, est); err != nil {
		return nil, nil, err
	}
	return est, rep, nil
}

// LogicalTrainOptions controls blackbox training.
type LogicalTrainOptions struct {
	// JoinPairs caps the join training pairs (default 250; the paper used
	// 1000, which works too but takes proportionally longer).
	JoinPairs int
	// TrainScan additionally trains a scan (filter/project) model — the
	// paper trains join and aggregation; scans are a cheap extension of the
	// same methodology.
	TrainScan bool
	// Config overrides the per-model logical-op configuration; zero value
	// uses DefaultConfig for each operator's dimensionality.
	Join, Agg, Scan logicalop.Config
	// Seed drives workload sampling and network initialization.
	Seed int64
}

// LogicalTrainReport summarizes a blackbox training run.
type LogicalTrainReport struct {
	JoinQueries, AggQueries, ScanQueries    int
	JoinTrainSec, AggTrainSec, ScanTrainSec float64 // simulated remote time spent
	JoinResult, AggResult, ScanResult       *nn.TrainResult
}

// RegisterRemoteLogicalOp registers a blackbox remote: it generates the
// Figure 10 training workloads over the system's registered tables,
// executes them on the remote (expensive — this is the paper's point),
// trains the per-operator neural models, and wraps them in a profile.
func (e *Engine) RegisterRemoteLogicalOp(sys remote.System, kind remote.EngineKind, opts LogicalTrainOptions) (*hybrid.Estimator, *LogicalTrainReport, error) {
	tables := e.cat.BySystem(sys.Name())
	if len(tables) < 2 {
		return nil, nil, fmt.Errorf("engine: logical-op training needs at least 2 tables registered for %q, have %d", sys.Name(), len(tables))
	}
	if opts.JoinPairs <= 0 {
		opts.JoinPairs = 250
	}
	rep := &LogicalTrainReport{}

	aggQs, err := workload.AggTrainingSet(tables)
	if err != nil {
		return nil, nil, err
	}
	aggRun, err := workload.RunAggSet(sys, aggQs)
	if err != nil {
		return nil, nil, err
	}
	rep.AggQueries = len(aggQs)
	rep.AggTrainSec = aggRun.TotalSec
	aggCfg := opts.Agg
	if aggCfg.NN.Network.InputDim == 0 {
		aggCfg = logicalop.DefaultConfig(4, opts.Seed+1)
	}
	aggModel, aggRes, err := logicalop.Train("aggregation", plan.AggDimNames(), aggRun.X, aggRun.Y, aggCfg)
	if err != nil {
		return nil, nil, err
	}
	rep.AggResult = aggRes

	joinQs, err := workload.JoinTrainingSet(tables, opts.JoinPairs, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	joinRun, err := workload.RunJoinSet(sys, joinQs)
	if err != nil {
		return nil, nil, err
	}
	rep.JoinQueries = len(joinQs)
	rep.JoinTrainSec = joinRun.TotalSec
	joinCfg := opts.Join
	if joinCfg.NN.Network.InputDim == 0 {
		joinCfg = logicalop.DefaultConfig(7, opts.Seed+2)
	}
	joinModel, joinRes, err := logicalop.Train("join", plan.JoinDimNames(), joinRun.X, joinRun.Y, joinCfg)
	if err != nil {
		return nil, nil, err
	}
	rep.JoinResult = joinRes

	prof := &hybrid.Profile{
		SystemName: sys.Name(), Engine: kind, Active: core.LogicalOp,
		LogicalJoin: joinModel, LogicalAgg: aggModel,
	}

	if opts.TrainScan {
		scanQs, err := workload.ScanTrainingSet(tables)
		if err != nil {
			return nil, nil, err
		}
		scanRun, err := workload.RunScanSet(sys, scanQs)
		if err != nil {
			return nil, nil, err
		}
		rep.ScanQueries = len(scanQs)
		rep.ScanTrainSec = scanRun.TotalSec
		scanCfg := opts.Scan
		if scanCfg.NN.Network.InputDim == 0 {
			scanCfg = logicalop.DefaultConfig(4, opts.Seed+3)
		}
		scanModel, scanRes, err := logicalop.Train("scan", logicalop.ScanDimNames(), scanRun.X, scanRun.Y, scanCfg)
		if err != nil {
			return nil, nil, err
		}
		rep.ScanResult = scanRes
		prof.LogicalScan = scanModel
	}
	est, err := hybrid.NewEstimator(prof)
	if err != nil {
		return nil, nil, err
	}
	if err := e.RegisterRemote(sys, est); err != nil {
		return nil, nil, err
	}
	return est, rep, nil
}

// RegisterTable adds a table (local or foreign) to the catalog. Foreign
// tables must name a registered remote system, as must every replica link.
// With durability attached the registration is WAL-logged before returning.
func (e *Engine) RegisterTable(t *catalog.Table) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	return e.mutate("register_table", &registerTable{*t})
}

// SetLink overrides the QueryGrid link characteristics for one registered
// remote system, WAL-logged when durability is attached.
func (e *Engine) SetLink(system string, cfg querygrid.LinkConfig) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	return e.mutate("set_link", &setLink{System: system, Link: cfg})
}

// Materialize generates actual rows for a registered table so queries over
// it return results, not just costs. Limited to small tables. WAL-logged
// when durability is attached.
func (e *Engine) Materialize(name string) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	return e.mutate("materialize", &materialize{Table: name})
}

// QueryResult is one executed federated query.
type QueryResult struct {
	Plan *optimizer.Plan
	// ActualSec is the total simulated execution time (operators plus
	// transfers).
	ActualSec float64
	// StepActuals aligns with Plan.Steps.
	StepActuals []float64
	// CacheHit reports the plan was served from the statement cache.
	CacheHit bool
	// Retries counts remote step attempts beyond the first across the
	// plan that produced this result (the final plan, for degraded
	// queries that re-planned).
	Retries int
	// Rows holds real results when every referenced table is materialized;
	// nil otherwise (statistics-only execution).
	Rows *rowengine.Result
	// Degraded reports the answer came from a fallback plan after one or
	// more remotes failed or were open-circuited mid-query; Plan.Excluded
	// lists the systems it avoided.
	Degraded bool
	// Trace is the query's span tree when it ran through QueryTraced; nil
	// for untraced queries.
	Trace *trace.Trace

	stmtHash   obs.Hash   // the entry's, for the wide event: a hit does not hash again
	actualsBuf [4]float64 // backs StepActuals for a plan of up to four steps
	// recycle is Plan when it was built for this result alone — neither
	// resident nor admitted, not a re-plan and not traced — and Done has not
	// given it back yet.
	recycle *optimizer.Plan
}

// Done ends the caller's use of a result it has encoded: a plan built for
// this result alone goes back for the planner to build on, and res.Plan is
// nil from then on. A plan the statement cache holds, a degraded re-plan and
// a traced result's plan stay as they are, and so does every result nobody
// calls Done on. Calling it again, or on nil, does nothing.
func (e *Engine) Done(res *QueryResult) {
	if res == nil || res.recycle == nil {
		return
	}
	p := res.recycle
	res.recycle, res.Plan = nil, nil
	optimizer.Release(p)
}

// Explain plans a query and renders the plan without executing it. Repeats of
// a resident statement are served its cached plan and render byte-identical
// output.
func (e *Engine) Explain(sql string) (string, error) {
	clk := stageClock{start: time.Now()}
	_, p, _, _, err := e.prepare(context.Background(), &clk, sql)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// stageClock times one statement: the clock is read when the statement
// arrives and once at the end of every stage that ran, and that reading is
// also the next stage's start. The stage histograms, the wide event's
// latency and its timestamp all come from those readings, so the stages of a
// statement sum to its latency by construction, and a statement costs four
// clock reads (three when the statement cache answered the parse), each after
// the first a monotonic-only time.Since.
type stageClock struct {
	start                time.Time
	parse, plan, execute time.Duration
}

// total is start → the end of the latest stage: the statement's latency once
// the last stage has ended.
func (c *stageClock) total() time.Duration { return c.parse + c.plan + c.execute }

// lap ends a stage: *stage, one of the clock's own and not yet set, becomes
// the time since the stage before it ended.
func (c *stageClock) lap(stage *time.Duration) time.Duration {
	*stage = time.Since(c.start) - c.total()
	return *stage
}

// stmtPool holds the statements of first sightings whose query ended, for
// parse to parse the next statement it does not find resident into.
var stmtPool = sync.Pool{New: func() any { return new(sqlparse.SelectStmt) }}

// cachedStmt is the statement cache's entry for one statement text: the parse,
// which cannot go stale, and the latest plan, which can. A lookup that misses
// builds one to serve the statement at hand; admit decides whether it stays.
type cachedStmt struct {
	stmt *sqlparse.SelectStmt
	hash obs.Hash // of the text
	// plan is replaced, not cleared, when a sighting finds it stale.
	plan atomic.Pointer[optimizer.StampedPlan]
}

// sightingsPerEntry sizes the admission filter: one bucket of eight
// fingerprints per cache entry, 8 KiB at the default capacity.
const sightingsPerEntry = 8

// admit reports whether a statement that missed the cache was sighted before,
// and records this sighting: the cache admits on second sight, so a statement
// sent once costs no insert, evicts nothing that will be read again and
// leaves nothing for the collector to mark, and the third sighting is the
// first hit. The hash's low half picks a bucket of sighted, the high half is
// the fingerprint; a new one enters at the front and pushes the oldest out,
// so a sighting is remembered until eight other statements have missed into
// its bucket — one slot a statement would let two hot statements that share
// it overwrite each other for ever. Never reset, atomics only: a race, or a
// zero fingerprint in an unwritten slot, moves one admission a sighting
// earlier or later and can do nothing else (DESIGN.md §12).
func (e *Engine) admit(hash uint64) bool {
	buckets := uint32(len(e.sighted) / sightingsPerEntry)
	b := e.sighted[uint32(hash)%buckets*sightingsPerEntry:][:sightingsPerEntry]
	fp := uint32(hash >> 32)
	for i := range b {
		if b[i].Load() == fp {
			return true
		}
	}
	for i := len(b) - 1; i > 0; i-- {
		b[i].Store(b[i-1].Load())
	}
	b[0].Store(fp)
	return false
}

// prepare resolves a statement to its parse and a current plan, for Explain
// and Query alike, and reports whether the plan came from the cache: one Get
// in parse, and at most one Put, of a statement that missed, on second sight.
// A fresh plan is kept only by an entry that stays, stamped with the epoch read
// before planning: a second read could pass a mutation that made it stale.
// owned reports a first sighting, an entry that neither was nor became
// resident: nothing else holds its statement or its plan, and the caller may
// give them back when it is done with them.
func (e *Engine) prepare(ctx context.Context, clk *stageClock, sql string) (ent *cachedStmt, p *optimizer.Plan, hit, owned bool, err error) {
	ent, resident, err := e.parse(ctx, clk, sql)
	if err != nil {
		return nil, nil, false, false, err
	}
	p, hit, epoch, err := e.plan(ctx, clk, ent)
	if err != nil {
		return nil, nil, false, false, err
	}
	admitted := !resident && e.stmts != nil && e.admit(uint64(ent.hash))
	if !hit && (resident || admitted) {
		ent.plan.Store(&optimizer.StampedPlan{Plan: p, Epoch: epoch})
	}
	if admitted {
		e.stmts.Put(sql, ent)
	}
	return ent, p, hit, !resident && !admitted, nil
}

// parse looks the statement up by its raw text, reporting whether it was
// resident; when it is not, it is parsed into a pooled statement held by a
// fresh entry, timed into the parse-stage histogram. A parse depends on the
// text alone and never goes stale.
func (e *Engine) parse(ctx context.Context, clk *stageClock, sql string) (*cachedStmt, bool, error) {
	// A resident statement skips the parse histogram and the clock: nothing
	// was parsed, and the lookup's time is the start of the plan stage.
	if e.stmts != nil {
		if ent, ok := e.stmts.Get(sql); ok {
			if _, sp := trace.Start(ctx, "parse"); sp != nil {
				sp.SetAttr("cache", "hit")
				sp.End()
			}
			return ent, true, nil
		}
	}
	_, sp := trace.Start(ctx, "parse")
	stmt := stmtPool.Get().(*sqlparse.SelectStmt)
	err := sqlparse.ParseInto(stmt, sql)
	e.parseHist.ObserveExemplar(clk.lap(&clk.parse), sp.TraceID())
	sp.EndErr(err)
	if err != nil {
		return nil, false, err
	}
	return &cachedStmt{stmt: stmt, hash: obs.StatementHash(sql)}, false, nil
}

// plan times planning (cache hits included) into the plan-stage histogram
// and reports whether the entry's plan was current: built at the epoch read
// here, which it returns. Else it plans; prepare decides who keeps the plan.
func (e *Engine) plan(ctx context.Context, clk *stageClock, ent *cachedStmt) (p *optimizer.Plan, hit bool, epoch uint64, err error) {
	ctx, sp := trace.Start(ctx, "plan")
	epoch = e.opt.Epoch()
	switch cur := ent.plan.Load(); {
	case cur != nil && cur.Epoch == epoch:
		p, hit = cur.Plan, true
		e.planHits.Inc()
		sp.SetAttr("cache", "hit")
	case e.stmts == nil:
		p, err = e.opt.PlanCtx(ctx, ent.stmt)
	default:
		if cur != nil {
			e.planStale.Inc()
		}
		e.planMisses.Inc()
		sp.SetAttr("cache", "miss")
		p, err = e.opt.PlanCtx(ctx, ent.stmt)
	}
	e.planHist.ObserveExemplar(clk.lap(&clk.plan), sp.TraceID())
	if sp != nil && err == nil {
		sp.SetInt("steps", len(p.Steps))
		sp.SetFloat("estimated_sec", p.EstimatedSec)
	}
	sp.EndErr(err)
	return p, hit, epoch, err
}

// Query plans and executes a SQL statement across the federation. It is safe
// for concurrent use: plans come from the mutex-guarded statement cache,
// step execution only reads registry snapshots, and each executed operator's
// actual cost is in its estimator's log by the time Query returns.
func (e *Engine) Query(sql string) (*QueryResult, error) {
	return e.QueryContext(context.Background(), sql)
}

// QueryContext is Query with deadline/cancellation plumbing: the context is
// checked before every plan step and between retry attempts, so a serving
// timeout cancels in-flight remote work instead of letting it run to
// completion behind an abandoned request.
func (e *Engine) QueryContext(ctx context.Context, sql string) (*QueryResult, error) {
	return e.serve(ctx, "query", sql, nil)
}

// QueryBatched is QueryContext for one statement of a batch request: the same
// path — its own parse, plan, execution, counters and stage timings — with the
// wide event marked kind "batch".
func (e *Engine) QueryBatched(ctx context.Context, sql string) (*QueryResult, error) {
	return e.serve(ctx, "batch", sql, nil)
}

// QueryTraced is QueryContext with span-tree tracing enabled: the whole
// pipeline (parse → plan with per-candidate costing spans → execute with
// per-step and per-attempt spans) records into a trace that is attached to
// the result and published to the engine's trace ring — the serving stack's
// EXPLAIN ANALYZE. Failed queries are traced too (the trace lands in the
// ring with the error recorded), so slow failures stay diagnosable.
func (e *Engine) QueryTraced(ctx context.Context, sql string) (*QueryResult, *trace.Trace, error) {
	// The trace ID is claimed before the query runs (NewTrace), so the
	// histogram exemplars and the wide event emitted along the way carry
	// the ID the trace is retrievable under once published.
	tr := e.traces.NewTrace(sql)
	res, err := e.serve(trace.ContextWithSpan(ctx, tr.Root), "query", sql, tr)
	return res, tr, err
}

// serve runs one statement end to end and is the one place a query is
// counted: every entry point (Query, QueryContext, QueryTraced, QueryBatched)
// moves the query and error counters, and — when a recorder is attached —
// reports the statement's whole parse + plan + execute latency, off the
// statement's one stageClock, as a wide event of the given kind. A non-nil tr
// is the trace ctx records into: it is finished, published to the ring and
// attached to the result before the event that carries its ID is emitted.
func (e *Engine) serve(ctx context.Context, kind, sql string, tr *trace.Trace) (*QueryResult, error) {
	clk := stageClock{start: time.Now()}
	e.queries.Inc()
	res, err := e.query(ctx, &clk, sql)
	if err != nil {
		e.queryErrors.Inc()
	}
	var traceID uint64
	if tr != nil {
		tr.Finish(err)
		e.traces.Record(tr)
		if res != nil {
			res.Trace, res.recycle = tr, nil
		}
		traceID = tr.ID
	}
	if rec := e.events.Load(); rec != nil {
		e.emitEvent(rec, kind, sql, res, err, &clk, traceID)
	}
	return res, err
}

// RecentTraces returns up to n of the most recently recorded traces, newest
// first.
func (e *Engine) RecentTraces(n int) []*trace.Trace { return e.traces.Recent(n) }

// stepFailure wraps a plan-step execution error with the system it failed
// on, so the fallback loop knows which remote to plan around.
type stepFailure struct {
	system string
	kind   string
	err    error
}

func (f *stepFailure) Error() string {
	return fmt.Sprintf("engine: execute %s on %q: %v", f.kind, f.system, f.err)
}

func (f *stepFailure) Unwrap() error { return f.err }

// fallbackEligible reports whether a query error warrants degraded
// re-planning: an infrastructural failure (transient exhausted, outage,
// open breaker) on a non-master system. Semantic errors propagate — they
// would fail identically on every replica.
func fallbackEligible(err error) (string, bool) {
	var sf *stepFailure
	if !errors.As(err, &sf) || sf.system == querygrid.Master {
		return "", false
	}
	return sf.system, resilience.Infrastructural(sf.err)
}

// query prepares and runs one statement. A first sighting's statement goes
// back to the pool when the statement ends; its plan, when the answer came
// from it, goes with the result to Done.
func (e *Engine) query(ctx context.Context, clk *stageClock, sql string) (*QueryResult, error) {
	ent, p, hit, owned, err := e.prepare(ctx, clk, sql)
	if err != nil {
		return nil, err
	}
	res, err := e.run(ctx, clk, ent.stmt, p)
	if owned {
		stmtPool.Put(ent.stmt)
	}
	if res != nil {
		res.CacheHit = hit
		res.stmtHash = ent.hash
		if owned && res.Plan == p {
			res.recycle = p
		}
	}
	return res, err
}

// run executes an already built plan for a statement: execute-stage timing,
// and on an infrastructural failure the degraded re-planning loop (whose
// re-plans are also plan-stage observations of their own).
func (e *Engine) run(ctx context.Context, clk *stageClock, stmt *sqlparse.SelectStmt, p *optimizer.Plan) (*QueryResult, error) {
	defer func() {
		e.executeHist.ObserveExemplar(clk.lap(&clk.execute), trace.SpanFromContext(ctx).TraceID())
	}()
	res, err := e.execute(ctx, stmt, p)
	if err == nil {
		return res, err
	}
	// Degraded re-planning: exclude each failed system in turn and retry
	// with a fallback plan, as long as failures keep naming new systems.
	// The exclusion set only grows, so the loop is bounded by the number
	// of registered remotes.
	excluded := map[string]bool{}
	for {
		system, ok := fallbackEligible(err)
		if !ok || excluded[system] {
			return nil, err
		}
		excluded[system] = true
		e.fallbacks.Inc()
		planStart := time.Now()
		rctx, rsp := trace.Start(ctx, "replan")
		rsp.SetAttr("excluded", system)
		p2, perr := e.opt.PlanExcludingCtx(rctx, stmt, excluded)
		rsp.EndErr(perr)
		e.planHist.Observe(time.Since(planStart))
		if perr != nil {
			return nil, fmt.Errorf("engine: no fallback plan after %w (re-plan: %v)", err, perr)
		}
		res, err = e.execute(ctx, stmt, p2)
		if err == nil {
			res.Degraded = true
			e.degraded.Inc()
			return res, nil
		}
	}
}

// execute runs every step of one plan, then computes row-level answers when
// every referenced table is materialized.
func (e *Engine) execute(ctx context.Context, stmt *sqlparse.SelectStmt, p *optimizer.Plan) (_ *QueryResult, err error) {
	ctx, sp := trace.Start(ctx, "execute")
	defer func() { sp.EndErr(err) }()
	res := &QueryResult{Plan: p}
	res.StepActuals = res.actualsBuf[:0]
	for i := range p.Steps {
		if err = ctx.Err(); err != nil {
			return nil, err
		}
		var actual float64
		if actual, err = e.executeStep(ctx, &p.Steps[i], res); err != nil {
			return nil, err
		}
		res.StepActuals = append(res.StepActuals, actual)
		res.ActualSec += actual
	}
	if sp != nil {
		sp.SetFloat("simulated_sec", res.ActualSec)
	}
	// Row-level answers when every referenced table is materialized.
	if rows, ok := e.materializedFor(stmt); ok {
		_, rsp := trace.Start(ctx, "rows")
		out, rerr := rowengine.ExecuteContext(ctx, stmt, rows)
		if rerr != nil {
			rsp.EndErr(rerr)
			err = fmt.Errorf("engine: row execution: %w", rerr)
			return nil, err
		}
		rsp.SetInt("rows_out", len(out.Rows))
		rsp.End()
		res.Rows = out
	}
	return res, nil
}

// executeStep runs one plan step on the simulators — behind the target
// system's circuit breaker and the retry policy — feeds the (predicted,
// observed) pair into the per-(system, operator) accuracy window, and hands
// the actual cost to the estimator with the estimate the step was priced with
// (the logging phase of Figure 3: a logical-op model appends both to its log
// under its write lock, a sub-op one ignores them).
func (e *Engine) executeStep(ctx context.Context, step *optimizer.Step, res *QueryResult) (actual float64, err error) {
	ctx, sp := trace.Start(ctx, step.Kind)
	if sp != nil {
		sp.SetSystem(step.System)
		sp.SetFloat("estimated_sec", step.EstimatedSec)
	}
	defer func() { sp.EndErr(err) }()
	if step.Kind == "transfer" {
		// Network behaviour is learned elsewhere (Section 2's scope); the
		// grid estimate doubles as the simulated actual. The endpoints
		// still matter: a transfer cannot move data out of (or into) a
		// downed or open-circuited system.
		sp.SetAttr("from", step.From)
		for _, end := range []string{step.From, step.System} {
			if cerr := e.checkEndpoint(end); cerr != nil {
				err = &stepFailure{system: end, kind: step.Kind, err: cerr}
				return 0, err
			}
		}
		return step.EstimatedSec, nil
	}
	// The unknown-system check must precede any estimator work: a plan
	// step targeting an unregistered system is a planning bug, not a
	// costing concern. stepStateFor preserves that ordering — it resolves
	// the system handle before creating any per-pair state.
	st, serr := e.stepStateFor(step.System, step.Kind)
	if serr != nil {
		err = serr
		return 0, err
	}
	est, br := st.est, st.br
	sys := st.sys
	var ex remote.Execution
	attempts, rerr := resilience.Retry(ctx, e.retry, st.salt, func(actx context.Context) error {
		_, asp := trace.Start(actx, "attempt")
		if aerr := br.Allow(); aerr != nil {
			asp.EndErr(aerr)
			return aerr
		}
		var aerr error
		ex, aerr = e.dispatchStep(sys, step)
		br.Record(aerr)
		asp.EndErr(aerr)
		return aerr
	})
	if attempts > 1 {
		e.retries.Add(uint64(attempts - 1))
		sp.SetInt("retries", attempts-1)
		res.Retries += attempts - 1
	}
	if rerr != nil {
		err = &stepFailure{system: step.System, kind: step.Kind, err: rerr}
		return 0, err
	}
	// The estimate-vs-observed loop: every executed operator scores its
	// estimator's prediction (transfers are excluded above — the grid
	// estimate doubles as the actual, so the comparison is vacuous).
	st.acc.Observe(step.EstimatedSec, ex.ElapsedSec)
	sp.SetFloat("actual_sec", ex.ElapsedSec)
	if fb, ok := est.(core.Feedback); ok {
		switch step.Kind {
		case "join":
			fb.ObserveJoin(*step.Join, step.Estimate, ex.ElapsedSec)
		case "aggregation":
			fb.ObserveAgg(*step.Agg, step.Estimate, ex.ElapsedSec)
		case "scan":
			fb.ObserveScan(*step.Scan, step.Estimate, ex.ElapsedSec)
		}
	}
	return ex.ElapsedSec, nil
}

// checkEndpoint verifies one transfer endpoint is usable: its breaker must
// admit the call and, when the registered system reports its own
// availability (the fault injector does), it must be up. The check goes
// through the breaker so outages observed on transfers open the circuit
// like operator failures do.
func (e *Engine) checkEndpoint(system string) error {
	if system == "" || system == querygrid.Master {
		return nil
	}
	sys, ok := e.remotes.Get(system)
	if !ok {
		return nil // unknown endpoints are caught by operator steps
	}
	av, ok := sys.(interface{ Available(op string) error })
	if !ok {
		return nil // plain simulators are always reachable
	}
	br := e.breakers.For(system)
	if err := br.Allow(); err != nil {
		return err
	}
	err := av.Available("transfer")
	br.Record(err)
	return err
}

// dispatchStep issues one operator execution against a system.
func (e *Engine) dispatchStep(sys remote.System, step *optimizer.Step) (remote.Execution, error) {
	switch step.Kind {
	case "join":
		return sys.ExecuteJoin(*step.Join)
	case "aggregation":
		return sys.ExecuteAgg(*step.Agg)
	case "scan":
		return sys.ExecuteScan(*step.Scan)
	case "sort":
		// The final ORDER BY runs where the result landed; a sort probe
		// (read + sort of the result shape) is exactly that work.
		rows, size := step.Rows, step.RowSize
		if rows < 1 {
			rows = 1
		}
		if size < 1 {
			size = 1
		}
		return sys.ExecuteProbe(remote.Probe{Target: remote.Sort, Records: rows, RecordSize: size})
	default:
		return remote.Execution{}, fmt.Errorf("engine: unknown step kind %q", step.Kind)
	}
}

// materializedFor collects the materialized tables a statement references;
// ok is false if any is missing.
func (e *Engine) materializedFor(stmt *sqlparse.SelectStmt) (map[string]*rowengine.Table, bool) {
	// Probe the FROM table before allocating anything: most statements in a
	// high-QPS stream reference at least one non-materialized table, and the
	// serving path calls this on every query.
	from, ok := e.materialized.Get(stmt.From.Name)
	if !ok {
		return nil, false
	}
	out := make(map[string]*rowengine.Table, 1+len(stmt.Joins))
	out[stmt.From.Name] = from
	for i := range stmt.Joins {
		n := stmt.Joins[i].Table.Name
		t, ok := e.materialized.Get(n)
		if !ok {
			return nil, false
		}
		out[n] = t
	}
	return out, true
}
