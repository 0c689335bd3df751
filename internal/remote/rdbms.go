package remote

import (
	"fmt"

	"intellisphere/internal/cluster"
	"intellisphere/internal/plan"
)

// RDBMS simulates a single-node relational database remote system. The
// paper's "in-house comparable" choice policy assumes such systems pick the
// same physical algorithm Teradata would; this simulator's planner is a
// classic System-R style chooser among hash, merge, and nested-loop joins.
type RDBMS struct {
	name  string
	cfg   cluster.Config
	costs *SubOpCosts
	over  Overheads
	noise float64
	seed  int64
}

var _ System = (*RDBMS)(nil)

// NewRDBMS builds an RDBMS-like system. The cluster config should describe
// a single data node; its core count models intra-query parallelism.
func NewRDBMS(name string, cfg cluster.Config, opts Options) (*RDBMS, error) {
	if name == "" {
		return nil, fmt.Errorf("remote: system name is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &RDBMS{name: name, cfg: cfg, seed: opts.Seed}
	r.costs = opts.Costs
	if r.costs == nil {
		r.costs = DefaultRDBMSCosts()
	}
	if opts.Overheads != nil {
		r.over = *opts.Overheads
	} else {
		r.over = DefaultRDBMSOverheads()
	}
	switch {
	case opts.NoiseAmp < 0:
		r.noise = 0
	case opts.NoiseAmp == 0:
		r.noise = 0.03
	default:
		r.noise = opts.NoiseAmp
	}
	return r, nil
}

// Name implements System.
func (r *RDBMS) Name() string { return r.name }

// Capabilities implements System.
func (r *RDBMS) Capabilities() Capabilities {
	return Capabilities{Join: true, Aggregation: true, Scan: true}
}

// Cluster implements System.
func (r *RDBMS) Cluster() cluster.Config { return r.cfg }

// streams returns the degree of intra-query parallelism.
func (r *RDBMS) streams() float64 {
	s := float64(r.cfg.Slots())
	if s < 1 {
		return 1
	}
	return s
}

// SelectJoinAlgorithm mimics a cost-based single-node planner: hash join by
// default, merge join when both inputs arrive sorted, nested loop for
// cartesian products or tiny inners.
func (r *RDBMS) SelectJoinAlgorithm(spec plan.JoinSpec) JoinAlgorithm {
	if spec.Cartesian {
		return RDBMSNestedLoopJoin
	}
	if spec.Left.SortedOn && spec.Right.SortedOn {
		return RDBMSMergeJoin
	}
	return RDBMSHashJoin
}

// ExecuteJoin implements System.
func (r *RDBMS) ExecuteJoin(spec plan.JoinSpec) (Execution, error) {
	if err := spec.Validate(); err != nil {
		return Execution{}, fmt.Errorf("remote %q: %w", r.name, err)
	}
	alg := r.SelectJoinAlgorithm(spec)
	outSize := spec.OutputRowSize()
	s, _ := spec.SmallSide()
	big := spec.BigSide()
	var workUS float64
	switch alg {
	case RDBMSHashJoin:
		inMem := r.cfg.FitsInMemory(s.Bytes())
		workUS = s.Rows*(r.costs.At(ReadDFS, s.RowSize, true)+r.costs.At(HashBuild, s.RowSize, inMem)) +
			big.Rows*(r.costs.At(ReadDFS, big.RowSize, true)+r.costs.At(HashProbe, big.RowSize, true)) +
			spec.OutputRows*(r.costs.At(RecMerge, outSize, true)+r.costs.At(WriteDFS, outSize, true))
	case RDBMSMergeJoin:
		workUS = s.Rows*r.costs.At(ReadDFS, s.RowSize, true) +
			big.Rows*r.costs.At(ReadDFS, big.RowSize, true) +
			spec.OutputRows*(r.costs.At(RecMerge, outSize, true)+r.costs.At(WriteDFS, outSize, true))
	default: // nested loop
		workUS = big.Rows*r.costs.At(ReadDFS, big.RowSize, true) +
			big.Rows*s.Rows*r.costs.At(Scan, s.RowSize, true) +
			spec.OutputRows*(r.costs.At(RecMerge, outSize, true)+r.costs.At(WriteDFS, outSize, true))
	}
	workUS *= r.over.PipelineFactor
	sec := r.over.JobStartupSec + workUS/r.streams()/1e6
	var kb [256]byte
	key := newNoiseKey(kb[:], "rdbms-join|").str(string(alg)).sep().joinDims(spec)
	sec *= noiseBytes(key, r.seed, r.noise)
	return Execution{ElapsedSec: sec, Algorithm: string(alg)}, nil
}

// ExecuteAgg implements System with a single-stage hash aggregation.
func (r *RDBMS) ExecuteAgg(spec plan.AggSpec) (Execution, error) {
	if err := spec.Validate(); err != nil {
		return Execution{}, fmt.Errorf("remote %q: %w", r.name, err)
	}
	aggFactor := 1 + 0.15*float64(spec.NumAggregates)
	inMem := r.cfg.FitsInMemory(spec.OutputRows * spec.OutputRowSize)
	workUS := spec.InputRows*(r.costs.At(ReadDFS, spec.InputRowSize, true)+
		r.costs.At(Scan, spec.InputRowSize, true)*aggFactor+
		r.costs.At(HashBuild, spec.InputRowSize, inMem)*0.35) +
		spec.OutputRows*r.costs.At(WriteDFS, spec.OutputRowSize, true)
	workUS *= r.over.PipelineFactor
	sec := r.over.JobStartupSec + workUS/r.streams()/1e6
	var kb [160]byte
	key := newNoiseKey(kb[:], "rdbms-agg|").aggDims(spec)
	sec *= noiseBytes(key, r.seed, r.noise)
	return Execution{ElapsedSec: sec, Algorithm: "hash_aggregation"}, nil
}

// ExecuteScan implements System.
func (r *RDBMS) ExecuteScan(spec plan.ScanSpec) (Execution, error) {
	if err := spec.Validate(); err != nil {
		return Execution{}, fmt.Errorf("remote %q: %w", r.name, err)
	}
	workUS := spec.InputRows*(r.costs.At(ReadDFS, spec.InputRowSize, true)+r.costs.At(Scan, spec.InputRowSize, true)) +
		spec.OutputRows()*r.costs.At(WriteDFS, spec.OutputRowSize, true)
	workUS *= r.over.PipelineFactor
	sec := r.over.JobStartupSec + workUS/r.streams()/1e6
	var kb [128]byte
	key := newNoiseKey(kb[:], "rdbms-scan|").
		float(spec.InputRows).sep().float(spec.InputRowSize).sep().float(spec.Selectivity)
	sec *= noiseBytes(key, r.seed, r.noise)
	return Execution{ElapsedSec: sec, Algorithm: "scan"}, nil
}

// ExecuteProbe implements System; single-node probes have no task waves.
func (r *RDBMS) ExecuteProbe(p Probe) (Execution, error) {
	if err := p.Validate(); err != nil {
		return Execution{}, fmt.Errorf("remote %q: %w", r.name, err)
	}
	read := r.costs.At(ReadDFS, p.RecordSize, true)
	var extra float64
	switch p.Target {
	case ReadDFS:
	case WriteDFS:
		extra = r.costs.At(WriteDFS, p.RecordSize, true)
	case ReadLocal:
		extra = r.costs.At(ReadLocal, p.RecordSize, true)
	case WriteLocal:
		extra = r.costs.At(WriteLocal, p.RecordSize, true)
	case Shuffle, Broadcast:
		// Single node: redistribution is free but still a valid probe.
	case Sort:
		extra = sortUnit(r.costs, p.RecordSize, p.Records/r.streams())
	case Scan:
		extra = r.costs.At(Scan, p.RecordSize, true)
	case HashBuild:
		build := p.BuildBytes
		if build == 0 {
			build = p.Records * p.RecordSize
		}
		extra = r.costs.At(HashBuild, p.RecordSize, r.cfg.FitsInMemory(build))
	case HashProbe:
		extra = r.costs.At(HashProbe, p.RecordSize, true)
	case RecMerge:
		extra = r.costs.At(RecMerge, p.RecordSize, true)
	default:
		return Execution{}, fmt.Errorf("remote %q: unknown probe target %v", r.name, p.Target)
	}
	// Parallelism follows the cluster abstraction (tasks per block, waves
	// per slot) so openbox calibration reads the same geometry it assumes.
	tasks := r.cfg.NumTasks(p.Records * p.RecordSize)
	waves := r.cfg.TaskWaves(tasks)
	perTaskUS := p.Records / float64(tasks) * (read + extra)
	sec := r.over.JobStartupSec + float64(waves)*perTaskUS/1e6
	var kb [128]byte
	key := newNoiseKey(kb[:], "rdbms-probe|").
		str(p.Target.String()).sep().float(p.Records).sep().float(p.RecordSize)
	sec *= noiseBytes(key, r.seed, r.noise)
	return Execution{ElapsedSec: sec, Algorithm: probeLabels[p.Target]}, nil
}
