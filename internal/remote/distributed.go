package remote

import (
	"fmt"

	"intellisphere/internal/cluster"
	"intellisphere/internal/plan"
)

// EngineKind distinguishes the execution model of a distributed system.
type EngineKind int

// Supported distributed engine kinds.
const (
	EngineHive   EngineKind = iota // MapReduce-style staged execution
	EngineSpark                    // in-memory DAG execution
	EnginePresto                   // MPP, fully pipelined in-memory execution
)

// String returns the engine kind's name.
func (k EngineKind) String() string {
	switch k {
	case EngineSpark:
		return "spark"
	case EnginePresto:
		return "presto"
	default:
		return "hive"
	}
}

// Options tunes a simulated system. Zero values select sensible defaults
// for the chosen engine kind.
type Options struct {
	Costs     *SubOpCosts // ground-truth sub-op costs; nil picks the engine default
	Overheads *Overheads  // framework latencies; nil picks the engine default
	NoiseAmp  float64     // multiplicative noise amplitude; negative disables, 0 means default 3%
	Seed      int64       // noise seed
	// SkewThreshold is the average duplicates-per-key beyond which Hive
	// switches to its skew join. 0 means default (50 000).
	SkewThreshold float64
}

// Distributed simulates a shared-nothing distributed SQL engine (Hive-like
// or Spark-like) executing operators over table statistics.
type Distributed struct {
	name  string
	kind  EngineKind
	cfg   cluster.Config
	costs *SubOpCosts
	over  Overheads
	noise float64
	seed  int64
	skew  float64
}

var _ System = (*Distributed)(nil)

// NewHive builds a Hive-like system on the given cluster.
func NewHive(name string, cfg cluster.Config, opts Options) (*Distributed, error) {
	return newDistributed(name, EngineHive, cfg, opts)
}

// NewSpark builds a Spark-like system on the given cluster.
func NewSpark(name string, cfg cluster.Config, opts Options) (*Distributed, error) {
	return newDistributed(name, EngineSpark, cfg, opts)
}

// NewPresto builds a Presto-like MPP system on the given cluster.
func NewPresto(name string, cfg cluster.Config, opts Options) (*Distributed, error) {
	return newDistributed(name, EnginePresto, cfg, opts)
}

func newDistributed(name string, kind EngineKind, cfg cluster.Config, opts Options) (*Distributed, error) {
	if name == "" {
		return nil, fmt.Errorf("remote: system name is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Distributed{name: name, kind: kind, cfg: cfg, seed: opts.Seed}
	switch {
	case opts.Costs != nil:
		d.costs = opts.Costs
	case kind == EngineSpark:
		d.costs = DefaultSparkCosts()
	case kind == EnginePresto:
		d.costs = DefaultPrestoCosts()
	default:
		d.costs = DefaultHiveCosts()
	}
	switch {
	case opts.Overheads != nil:
		d.over = *opts.Overheads
	case kind == EngineSpark:
		d.over = DefaultSparkOverheads()
	case kind == EnginePresto:
		d.over = DefaultPrestoOverheads()
	default:
		d.over = DefaultHiveOverheads()
	}
	switch {
	case opts.NoiseAmp < 0:
		d.noise = 0
	case opts.NoiseAmp == 0:
		d.noise = 0.03
	default:
		d.noise = opts.NoiseAmp
	}
	d.skew = opts.SkewThreshold
	if d.skew == 0 {
		d.skew = 50000
	}
	return d, nil
}

// Name implements System.
func (d *Distributed) Name() string { return d.name }

// Kind returns the engine kind.
func (d *Distributed) Kind() EngineKind { return d.kind }

// Capabilities implements System.
func (d *Distributed) Capabilities() Capabilities {
	return Capabilities{Join: true, Aggregation: true, Scan: true}
}

// Cluster implements System.
func (d *Distributed) Cluster() cluster.Config { return d.cfg }

// SelectJoinAlgorithm applies the engine's planning rules to pick the
// physical join for a spec — the hidden choice the paper's "applicability
// rules" try to predict from the outside.
func (d *Distributed) SelectJoinAlgorithm(spec plan.JoinSpec) JoinAlgorithm {
	small, _ := spec.SmallSide()
	fits := d.cfg.BroadcastFits(small.Bytes())
	if d.kind == EnginePresto {
		if spec.Cartesian {
			return PrestoCrossJoin
		}
		if fits {
			return PrestoReplicatedJoin
		}
		return PrestoPartitionedJoin
	}
	if d.kind == EngineSpark {
		if spec.Cartesian {
			if fits {
				return SparkBroadcastNLJoin
			}
			return SparkCartesianJoin
		}
		if fits {
			return SparkBroadcastHashJoin
		}
		if spec.Left.SortedOn && spec.Right.SortedOn {
			return SparkSortMergeJoin
		}
		// Spark prefers shuffle-hash when one side is much smaller per
		// partition, otherwise its default sort-merge join.
		if small.Bytes()*3 <= spec.BigSide().Bytes() &&
			d.cfg.FitsInMemory(small.Bytes()/float64(d.cfg.Slots())) {
			return SparkShuffleHashJoin
		}
		return SparkSortMergeJoin
	}
	// Hive.
	if !spec.Cartesian && fits {
		return HiveBroadcastJoin
	}
	if !spec.Cartesian && spec.Left.PartitionedOn && spec.Right.PartitionedOn {
		if spec.Left.SortedOn && spec.Right.SortedOn {
			return HiveSortMergeBucketJoin
		}
		return HiveBucketMapJoin
	}
	if !spec.Cartesian && d.skewed(spec) {
		return HiveSkewJoin
	}
	return HiveShuffleJoin
}

// skewed reports whether either side's average duplicates-per-key exceeds
// the skew threshold.
func (d *Distributed) skewed(spec plan.JoinSpec) bool {
	dup := func(s plan.TableSide) float64 {
		if s.KeyNDV <= 0 {
			return 1
		}
		return s.Rows / s.KeyNDV
	}
	return dup(spec.Left) > d.skew || dup(spec.Right) > d.skew
}

// ExecuteJoin implements System: plan the physical algorithm, then simulate.
// The algorithm is picked before the spec is checked (ExecuteJoinWith checks
// it, once); the selection rules are plain comparisons defined for any spec.
func (d *Distributed) ExecuteJoin(spec plan.JoinSpec) (Execution, error) {
	return d.ExecuteJoinWith(spec, d.SelectJoinAlgorithm(spec))
}

// ExecuteJoinWith simulates the join with an explicitly chosen algorithm.
// The experiment harness uses it to study single algorithms in isolation.
func (d *Distributed) ExecuteJoinWith(spec plan.JoinSpec, alg JoinAlgorithm) (Execution, error) {
	if err := spec.Validate(); err != nil {
		return Execution{}, fmt.Errorf("remote %q: %w", d.name, err)
	}
	var sec float64
	switch alg {
	case HiveBroadcastJoin, SparkBroadcastHashJoin:
		sec = d.broadcastJoinTime(spec)
	case HiveBucketMapJoin:
		sec = d.bucketMapJoinTime(spec)
	case HiveSortMergeBucketJoin:
		sec = d.sortMergeBucketJoinTime(spec)
	case HiveSkewJoin:
		sec = d.shuffleJoinTime(spec)*1.15 + d.over.StageStartupSec
	case HiveShuffleJoin, SparkSortMergeJoin:
		sec = d.shuffleJoinTime(spec)
	case SparkShuffleHashJoin:
		sec = d.shuffleHashJoinTime(spec)
	case SparkBroadcastNLJoin:
		sec = d.broadcastNLJoinTime(spec)
	case SparkCartesianJoin, PrestoCrossJoin:
		sec = d.cartesianJoinTime(spec)
	case PrestoReplicatedJoin:
		sec = d.replicatedJoinTime(spec)
	case PrestoPartitionedJoin:
		sec = d.shuffleHashJoinTime(spec)
	default:
		return Execution{}, fmt.Errorf("remote %q: unsupported join algorithm %q", d.name, alg)
	}
	var kb [256]byte
	key := newNoiseKey(kb[:], "join|").str(string(alg)).sep().joinDims(spec)
	sec *= noiseBytes(key, d.seed, d.noise)
	return Execution{ElapsedSec: sec, Algorithm: string(alg)}, nil
}

// broadcastJoinTime implements the Figure 6 workflow: the driver reads the
// small relation S from the DFS and broadcasts it; every task then reads S
// locally, builds a hash table, streams its local block of R probing the
// table, and writes its output share back to the DFS.
func (d *Distributed) broadcastJoinTime(spec plan.JoinSpec) float64 {
	s, _ := spec.SmallSide()
	r := spec.BigSide()
	inMem := d.cfg.FitsInMemory(s.Bytes())
	outSize := spec.OutputRowSize()

	driverUS := s.Rows * (d.costs.At(ReadDFS, s.RowSize, true) + d.costs.broadcastUnit(s.RowSize, d.cfg))

	tasks := d.cfg.NumTasks(r.Bytes())
	waves := d.cfg.TaskWaves(tasks)
	recsR := r.Rows / float64(tasks)
	outPerTask := spec.OutputRows / float64(tasks)
	perTaskUS := s.Rows*(d.costs.At(ReadLocal, s.RowSize, true)+d.costs.At(HashBuild, s.RowSize, inMem)) +
		recsR*(d.costs.At(ReadLocal, r.RowSize, true)+d.costs.At(HashProbe, r.RowSize, true)) +
		outPerTask*d.costs.At(WriteDFS, outSize, true)
	perTaskUS *= d.over.PipelineFactor // 5 distinct sub-ops: fully pipelined task

	return d.over.JobStartupSec + driverUS/1e6 +
		float64(waves)*(d.over.TaskOverheadSec+perTaskUS/1e6)
}

// shuffleJoinTime models the MR-style redistribution join: a map stage reads
// both relations and shuffles them by key, a reduce stage sorts its
// partitions, merges matching records, and writes the output.
func (d *Distributed) shuffleJoinTime(spec plan.JoinSpec) float64 {
	outSize := spec.OutputRowSize()
	mapBytes := spec.Left.Bytes() + spec.Right.Bytes()
	mapTasks := d.cfg.NumTasks(mapBytes)
	mapWaves := d.cfg.TaskWaves(mapTasks)
	mapUS := spec.Left.Rows*(d.costs.At(ReadDFS, spec.Left.RowSize, true)+d.costs.At(Shuffle, spec.Left.RowSize, true)) +
		spec.Right.Rows*(d.costs.At(ReadDFS, spec.Right.RowSize, true)+d.costs.At(Shuffle, spec.Right.RowSize, true))
	mapSec := float64(mapWaves) * (d.over.TaskOverheadSec + mapUS/float64(mapTasks)/1e6)

	redTasks := d.cfg.Slots()
	inRecs := spec.Left.Rows + spec.Right.Rows
	sortUS := spec.Left.Rows*sortUnit(d.costs, spec.Left.RowSize, spec.Left.Rows/float64(redTasks)) +
		spec.Right.Rows*sortUnit(d.costs, spec.Right.RowSize, spec.Right.Rows/float64(redTasks))
	mergeUS := inRecs*d.costs.At(Scan, (spec.Left.RowSize+spec.Right.RowSize)/2, true) +
		spec.OutputRows*d.costs.At(RecMerge, outSize, true)
	writeUS := spec.OutputRows * d.costs.At(WriteDFS, outSize, true)
	redUS := (sortUS + mergeUS + writeUS) * d.over.PipelineFactor
	redSec := d.over.StageStartupSec + d.over.TaskOverheadSec + redUS/float64(redTasks)/1e6

	return d.over.JobStartupSec + mapSec + redSec
}

// shuffleHashJoinTime is Spark's shuffle-hash variant: shuffle both sides,
// then hash-build the smaller partition and probe with the larger instead
// of sorting.
func (d *Distributed) shuffleHashJoinTime(spec plan.JoinSpec) float64 {
	outSize := spec.OutputRowSize()
	s, _ := spec.SmallSide()
	r := spec.BigSide()
	mapBytes := spec.Left.Bytes() + spec.Right.Bytes()
	mapTasks := d.cfg.NumTasks(mapBytes)
	mapWaves := d.cfg.TaskWaves(mapTasks)
	mapUS := spec.Left.Rows*(d.costs.At(ReadDFS, spec.Left.RowSize, true)+d.costs.At(Shuffle, spec.Left.RowSize, true)) +
		spec.Right.Rows*(d.costs.At(ReadDFS, spec.Right.RowSize, true)+d.costs.At(Shuffle, spec.Right.RowSize, true))
	mapSec := float64(mapWaves) * (d.over.TaskOverheadSec + mapUS/float64(mapTasks)/1e6)

	redTasks := d.cfg.Slots()
	inMem := d.cfg.FitsInMemory(s.Bytes() / float64(redTasks))
	redUS := s.Rows*d.costs.At(HashBuild, s.RowSize, inMem) +
		r.Rows*d.costs.At(HashProbe, r.RowSize, true) +
		spec.OutputRows*(d.costs.At(RecMerge, outSize, true)+d.costs.At(WriteDFS, outSize, true))
	redUS *= d.over.PipelineFactor
	redSec := d.over.StageStartupSec + d.over.TaskOverheadSec + redUS/float64(redTasks)/1e6

	return d.over.JobStartupSec + mapSec + redSec
}

// replicatedJoinTime models Presto's replicated join: the build side is
// streamed to every worker (no driver round-trip and no local-disk staging
// — the MPP engine pipelines), each worker hash-builds it, and the probe
// side streams through.
func (d *Distributed) replicatedJoinTime(spec plan.JoinSpec) float64 {
	s, _ := spec.SmallSide()
	r := spec.BigSide()
	inMem := d.cfg.FitsInMemory(s.Bytes())
	outSize := spec.OutputRowSize()
	tasks := d.cfg.NumTasks(r.Bytes())
	waves := d.cfg.TaskWaves(tasks)
	replicateUS := s.Rows * (d.costs.At(ReadDFS, s.RowSize, true) + d.costs.broadcastUnit(s.RowSize, d.cfg))
	perTaskUS := s.Rows*d.costs.At(HashBuild, s.RowSize, inMem) +
		r.Rows/float64(tasks)*(d.costs.At(ReadDFS, r.RowSize, true)+d.costs.At(HashProbe, r.RowSize, true)) +
		spec.OutputRows/float64(tasks)*d.costs.At(WriteDFS, outSize, true)
	perTaskUS *= d.over.PipelineFactor
	return d.over.JobStartupSec + replicateUS/1e6 + float64(waves)*(d.over.TaskOverheadSec+perTaskUS/1e6)
}

// bucketMapJoinTime models Hive's bucket map join: both sides are bucketed
// on the key, so each task reads only the matching bucket of S, hash-builds
// it, and probes with its local R block.
func (d *Distributed) bucketMapJoinTime(spec plan.JoinSpec) float64 {
	s, _ := spec.SmallSide()
	r := spec.BigSide()
	outSize := spec.OutputRowSize()
	tasks := d.cfg.NumTasks(r.Bytes())
	waves := d.cfg.TaskWaves(tasks)
	buckets := float64(d.cfg.Slots())
	bucketRecs := s.Rows / buckets
	inMem := d.cfg.FitsInMemory(s.Bytes() / buckets)
	recsR := r.Rows / float64(tasks)
	outPerTask := spec.OutputRows / float64(tasks)
	perTaskUS := bucketRecs*(d.costs.At(ReadDFS, s.RowSize, true)+d.costs.At(HashBuild, s.RowSize, inMem)) +
		recsR*(d.costs.At(ReadLocal, r.RowSize, true)+d.costs.At(HashProbe, r.RowSize, true)) +
		outPerTask*d.costs.At(WriteDFS, outSize, true)
	perTaskUS *= d.over.PipelineFactor
	return d.over.JobStartupSec + float64(waves)*(d.over.TaskOverheadSec+perTaskUS/1e6)
}

// sortMergeBucketJoinTime models Hive's SMB join: both sides bucketed and
// sorted, so a map-only stage merges co-located buckets directly.
func (d *Distributed) sortMergeBucketJoinTime(spec plan.JoinSpec) float64 {
	outSize := spec.OutputRowSize()
	totalBytes := spec.Left.Bytes() + spec.Right.Bytes()
	tasks := d.cfg.NumTasks(totalBytes)
	waves := d.cfg.TaskWaves(tasks)
	totalUS := spec.Left.Rows*d.costs.At(ReadDFS, spec.Left.RowSize, true) +
		spec.Right.Rows*d.costs.At(ReadDFS, spec.Right.RowSize, true) +
		spec.OutputRows*(d.costs.At(RecMerge, outSize, true)+d.costs.At(WriteDFS, outSize, true))
	totalUS *= d.over.PipelineFactor
	return d.over.JobStartupSec + float64(waves)*(d.over.TaskOverheadSec+totalUS/float64(tasks)/1e6)
}

// broadcastNLJoinTime models Spark's broadcast nested-loop join for
// non-equi joins with a small side.
func (d *Distributed) broadcastNLJoinTime(spec plan.JoinSpec) float64 {
	s, _ := spec.SmallSide()
	r := spec.BigSide()
	outSize := spec.OutputRowSize()
	driverUS := s.Rows * (d.costs.At(ReadDFS, s.RowSize, true) + d.costs.broadcastUnit(s.RowSize, d.cfg))
	tasks := d.cfg.NumTasks(r.Bytes())
	waves := d.cfg.TaskWaves(tasks)
	recsR := r.Rows / float64(tasks)
	// Every probe record scans the entire broadcast side.
	perTaskUS := recsR*d.costs.At(ReadLocal, r.RowSize, true) +
		recsR*s.Rows*d.costs.At(Scan, s.RowSize, true) +
		spec.OutputRows/float64(tasks)*d.costs.At(WriteDFS, outSize, true)
	perTaskUS *= d.over.PipelineFactor
	return d.over.JobStartupSec + driverUS/1e6 + float64(waves)*(d.over.TaskOverheadSec+perTaskUS/1e6)
}

// cartesianJoinTime models Spark's cartesian product join: both sides are
// shuffled into grid cells and every pair of partitions is scanned.
func (d *Distributed) cartesianJoinTime(spec plan.JoinSpec) float64 {
	outSize := spec.OutputRowSize()
	mapBytes := spec.Left.Bytes() + spec.Right.Bytes()
	mapTasks := d.cfg.NumTasks(mapBytes)
	mapWaves := d.cfg.TaskWaves(mapTasks)
	mapUS := spec.Left.Rows*(d.costs.At(ReadDFS, spec.Left.RowSize, true)+d.costs.At(Shuffle, spec.Left.RowSize, true)) +
		spec.Right.Rows*(d.costs.At(ReadDFS, spec.Right.RowSize, true)+d.costs.At(Shuffle, spec.Right.RowSize, true))
	mapSec := float64(mapWaves) * (d.over.TaskOverheadSec + mapUS/float64(mapTasks)/1e6)

	redTasks := d.cfg.Slots()
	pairScans := spec.Left.Rows * spec.Right.Rows
	redUS := pairScans*d.costs.At(Scan, (spec.Left.RowSize+spec.Right.RowSize)/2, true) +
		spec.OutputRows*(d.costs.At(RecMerge, outSize, true)+d.costs.At(WriteDFS, outSize, true))
	redUS *= d.over.PipelineFactor
	redSec := d.over.StageStartupSec + d.over.TaskOverheadSec + redUS/float64(redTasks)/1e6
	return d.over.JobStartupSec + mapSec + redSec
}

// ExecuteAgg implements System: map-side partial aggregation, shuffle of the
// partials, reduce-side final merge, output write.
func (d *Distributed) ExecuteAgg(spec plan.AggSpec) (Execution, error) {
	if err := spec.Validate(); err != nil {
		return Execution{}, fmt.Errorf("remote %q: %w", d.name, err)
	}
	mapTasks := d.cfg.NumTasks(spec.InputRows * spec.InputRowSize)
	mapWaves := d.cfg.TaskWaves(mapTasks)
	aggFactor := 1 + 0.15*float64(spec.NumAggregates)
	groupsInMem := d.cfg.FitsInMemory(spec.OutputRows * spec.OutputRowSize)
	mapUS := spec.InputRows * (d.costs.At(ReadDFS, spec.InputRowSize, true) +
		d.costs.At(Scan, spec.InputRowSize, true)*aggFactor +
		d.costs.At(HashBuild, spec.InputRowSize, groupsInMem)*0.35)
	mapUS *= d.over.PipelineFactor

	// Each map task emits at most one partial per group.
	partials := spec.OutputRows * float64(mapTasks)
	if partials > spec.InputRows {
		partials = spec.InputRows
	}
	// Reducers fold each partial into the group table (a probe + update per
	// partial) and merge/write one final record per group.
	shuffleUS := partials * d.costs.At(Shuffle, spec.OutputRowSize, true)
	redTasks := d.cfg.Slots()
	redUS := partials*d.costs.At(HashProbe, spec.OutputRowSize, true)*aggFactor +
		spec.OutputRows*(d.costs.At(RecMerge, spec.OutputRowSize, true)+d.costs.At(WriteDFS, spec.OutputRowSize, true))
	redUS = (shuffleUS + redUS) * d.over.PipelineFactor

	sec := d.over.JobStartupSec +
		float64(mapWaves)*(d.over.TaskOverheadSec+mapUS/float64(mapTasks)/1e6) +
		d.over.StageStartupSec + d.over.TaskOverheadSec + redUS/float64(redTasks)/1e6
	var kb [160]byte
	key := newNoiseKey(kb[:], "agg|").aggDims(spec)
	sec *= noiseBytes(key, d.seed, d.noise)
	return Execution{ElapsedSec: sec, Algorithm: "hash_aggregation"}, nil
}

// ExecuteScan implements System: a map-only filter/project stage.
func (d *Distributed) ExecuteScan(spec plan.ScanSpec) (Execution, error) {
	if err := spec.Validate(); err != nil {
		return Execution{}, fmt.Errorf("remote %q: %w", d.name, err)
	}
	tasks := d.cfg.NumTasks(spec.InputRows * spec.InputRowSize)
	waves := d.cfg.TaskWaves(tasks)
	us := spec.InputRows*(d.costs.At(ReadDFS, spec.InputRowSize, true)+d.costs.At(Scan, spec.InputRowSize, true)) +
		spec.OutputRows()*d.costs.At(WriteDFS, spec.OutputRowSize, true)
	us *= d.over.PipelineFactor
	sec := d.over.JobStartupSec + float64(waves)*(d.over.TaskOverheadSec+us/float64(tasks)/1e6)
	var kb [160]byte
	key := newNoiseKey(kb[:], "scan|").
		float(spec.InputRows).sep().float(spec.InputRowSize).sep().
		float(spec.Selectivity).sep().float(spec.OutputRowSize)
	sec *= noiseBytes(key, d.seed, d.noise)
	return Execution{ElapsedSec: sec, Algorithm: "scan"}, nil
}

// ExecuteProbe implements System. Probes follow the Figure 5 footnote
// recipes: every probe reads its input from the DFS and exercises at most
// one additional sub-operation, so per-record costs can be differenced out.
func (d *Distributed) ExecuteProbe(p Probe) (Execution, error) {
	if err := p.Validate(); err != nil {
		return Execution{}, fmt.Errorf("remote %q: %w", d.name, err)
	}
	read := d.costs.At(ReadDFS, p.RecordSize, true)
	var extra float64
	switch p.Target {
	case ReadDFS:
		extra = 0
	case WriteDFS:
		extra = d.costs.At(WriteDFS, p.RecordSize, true)
	case ReadLocal:
		extra = d.costs.At(ReadLocal, p.RecordSize, true)
	case WriteLocal:
		extra = d.costs.At(WriteLocal, p.RecordSize, true)
	case Shuffle:
		extra = d.costs.At(Shuffle, p.RecordSize, true)
	case Broadcast:
		extra = d.costs.broadcastUnit(p.RecordSize, d.cfg)
	case Sort:
		tasks := d.cfg.NumTasks(p.Records * p.RecordSize)
		extra = sortUnit(d.costs, p.RecordSize, p.Records/float64(tasks))
	case Scan:
		extra = d.costs.At(Scan, p.RecordSize, true)
	case HashBuild:
		build := p.BuildBytes
		if build == 0 {
			build = float64(d.cfg.DFSBlockBytes)
		}
		extra = d.costs.At(HashBuild, p.RecordSize, d.cfg.FitsInMemory(build))
	case HashProbe:
		extra = d.costs.At(HashProbe, p.RecordSize, true)
	case RecMerge:
		extra = d.costs.At(RecMerge, p.RecordSize, true)
	default:
		return Execution{}, fmt.Errorf("remote %q: unknown probe target %v", d.name, p.Target)
	}
	tasks := d.cfg.NumTasks(p.Records * p.RecordSize)
	waves := d.cfg.TaskWaves(tasks)
	perTaskUS := p.Records / float64(tasks) * (read + extra)
	sec := d.over.JobStartupSec + float64(waves)*(d.over.TaskOverheadSec+perTaskUS/1e6)
	var kb [160]byte
	key := newNoiseKey(kb[:], "probe|").
		str(p.Target.String()).sep().float(p.Records).sep().
		float(p.RecordSize).sep().float(p.BuildBytes)
	sec *= noiseBytes(key, d.seed, d.noise)
	return Execution{ElapsedSec: sec, Algorithm: probeLabels[p.Target]}, nil
}
