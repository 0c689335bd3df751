package subop

import (
	"fmt"

	"intellisphere/internal/remote"
	"intellisphere/internal/stats"
)

// TrainConfig controls the probe-based learning phase.
type TrainConfig struct {
	// RecordSizes are the record sizes (bytes) probed per sub-operator.
	// Default: the Figure 10 sizes {40, 70, 100, 250, 500, 1000}.
	RecordSizes []float64
	// RecordCounts are the cardinalities probed per record size (the paper
	// uses 1, 2, 4, 8 million and averages across them).
	RecordCounts []float64
	// Targets are the sub-operators to learn. Default: all of Figure 5.
	Targets []remote.SubOp
}

func (c *TrainConfig) normalize() {
	if len(c.RecordSizes) == 0 {
		c.RecordSizes = []float64{40, 70, 100, 250, 500, 1000}
	}
	if len(c.RecordCounts) == 0 {
		c.RecordCounts = []float64{1e6, 2e6, 4e6, 8e6}
	}
	if len(c.Targets) == 0 {
		c.Targets = remote.AllSubOps()
	}
}

// SizePoint is one fitted per-record cost at a record size (the x axis of
// Figures 7(b) and 13(c)–(f)).
type SizePoint struct {
	Size        float64
	PerRecordUS float64
}

// CountPoint is one per-record cost at a record count for a fixed size (the
// flatness plots of Figures 7(a) and 13(b)).
type CountPoint struct {
	Records     float64
	PerRecordUS float64
}

// SubOpReport captures everything learned about one sub-operator.
type SubOpReport struct {
	Target    remote.SubOp
	Line      stats.Line  // per-record µs vs record size
	SpillLine *stats.Line // HashBuild only: the spill-regime model
	PerSize   []SizePoint
	// PerCount shows the per-record cost across record counts at the
	// largest probed record size, demonstrating the paper's observation
	// that the value is stable across dataset sizes.
	PerCount []CountPoint
	Queries  int
	TrainSec float64 // simulated remote time spent on this sub-op's probes
}

// Report summarizes a training run (feeds Figure 13(a)).
type Report struct {
	SubOps      []SubOpReport
	TotalSec    float64
	TotalCount  int
	BaselineSec float64
}

// Train learns a ModelSet from probe queries against the remote system,
// following the Figure 5 recipes: every probe reads from the DFS plus at
// most one extra sub-operation; the ReadDFS cost is learned first and
// differenced out of the composites. Per record size, the per-record cost
// is extracted as the slope of elapsed time against effective sequential
// records (task waves × records per task — openbox cluster knowledge),
// which cancels the fixed job overheads the same way the paper's averaging
// across record counts does.
func Train(sys remote.System, cfg TrainConfig) (*ModelSet, *Report, error) {
	cfg.normalize()
	cc := sys.Cluster()
	if err := cc.Validate(); err != nil {
		return nil, nil, fmt.Errorf("subop: remote %q cluster: %w", sys.Name(), err)
	}
	if len(cfg.RecordCounts) < 2 {
		return nil, nil, fmt.Errorf("subop: need at least 2 record counts to difference out overheads")
	}

	ms := &ModelSet{Cluster: cc}
	rep := &Report{}

	// seqRecords converts a probe's record count into effective sequential
	// records: waves × records-per-task.
	seqRecords := func(records, size float64) float64 {
		tasks := cc.NumTasks(records * size)
		waves := cc.TaskWaves(tasks)
		return float64(waves) * records / float64(tasks)
	}

	// measure runs the count sweep for one (target, size, buildBytes) and
	// returns the per-record µs slope, the fit intercept (fixed latency),
	// the per-count flatness points, and the time spent.
	measure := func(target remote.SubOp, size, buildBytes float64) (perUS, baseSec float64, counts []CountPoint, spent float64, err error) {
		xs := make([]float64, 0, len(cfg.RecordCounts))
		ys := make([]float64, 0, len(cfg.RecordCounts))
		for _, n := range cfg.RecordCounts {
			ex, perr := sys.ExecuteProbe(remote.Probe{Target: target, Records: n, RecordSize: size, BuildBytes: buildBytes})
			if perr != nil {
				return 0, 0, nil, spent, fmt.Errorf("subop: probe %v n=%v s=%v: %w", target, n, size, perr)
			}
			spent += ex.ElapsedSec
			xs = append(xs, seqRecords(n, size))
			ys = append(ys, ex.ElapsedSec)
		}
		line, ferr := stats.FitLine(xs, ys)
		if ferr != nil {
			return 0, 0, nil, spent, fmt.Errorf("subop: fit %v at size %v: %w", target, size, ferr)
		}
		for i, n := range cfg.RecordCounts {
			per := 0.0
			if xs[i] > 0 {
				per = (ys[i] - line.Intercept) / xs[i] * 1e6
			}
			counts = append(counts, CountPoint{Records: n, PerRecordUS: per})
		}
		return line.Slope * 1e6, line.Intercept, counts, spent, nil
	}

	// fitSizeLine regresses per-record cost against record size.
	fitSizeLine := func(points []SizePoint) (stats.Line, error) {
		xs := make([]float64, len(points))
		ys := make([]float64, len(points))
		for i, p := range points {
			xs[i] = p.Size
			ys[i] = p.PerRecordUS
		}
		return stats.FitLine(xs, ys)
	}

	// Pass 1: ReadDFS — needed to difference every other probe.
	readReport := SubOpReport{Target: remote.ReadDFS}
	var baselineSum float64
	var baselineN int
	refSize := cfg.RecordSizes[len(cfg.RecordSizes)-1]
	for _, size := range cfg.RecordSizes {
		per, base, counts, spent, err := measure(remote.ReadDFS, size, 0)
		if err != nil {
			return nil, nil, err
		}
		readReport.PerSize = append(readReport.PerSize, SizePoint{Size: size, PerRecordUS: per})
		readReport.Queries += len(cfg.RecordCounts)
		readReport.TrainSec += spent
		baselineSum += base
		baselineN++
		if size == refSize {
			readReport.PerCount = counts
		}
	}
	readLine, err := fitSizeLine(readReport.PerSize)
	if err != nil {
		return nil, nil, fmt.Errorf("subop: ReadDFS model: %w", err)
	}
	readReport.Line = readLine
	ms.Lines.Set(remote.ReadDFS, readLine)
	ms.BaselineSec = baselineSum / float64(baselineN)
	if ms.BaselineSec < 0 {
		// Wave discretization can tilt the fit intercept slightly negative
		// on fast systems; a negative fixed latency is meaningless.
		ms.BaselineSec = 0
	}
	rep.SubOps = append(rep.SubOps, readReport)
	rep.TotalSec += readReport.TrainSec
	rep.TotalCount += readReport.Queries

	// Pass 2: every other requested target.
	for _, target := range cfg.Targets {
		if target == remote.ReadDFS {
			continue
		}
		r := SubOpReport{Target: target}
		spillPoints := make([]SizePoint, 0)
		for _, size := range cfg.RecordSizes {
			per, _, counts, spent, err := measure(target, size, 0)
			if err != nil {
				return nil, nil, err
			}
			net := per - readLine.Eval(size)
			if net < 0 {
				net = 0
			}
			r.PerSize = append(r.PerSize, SizePoint{Size: size, PerRecordUS: net})
			r.Queries += len(cfg.RecordCounts)
			r.TrainSec += spent
			if size == refSize {
				// Report the composite-minus-read flatness values.
				for i := range counts {
					counts[i].PerRecordUS -= readLine.Eval(size)
				}
				r.PerCount = counts
			}
			if target == remote.HashBuild {
				// Second sweep in the spill regime: an oversized build.
				perSpill, _, _, spentSpill, err := measure(target, size, 1<<42)
				if err != nil {
					return nil, nil, err
				}
				netSpill := perSpill - readLine.Eval(size)
				if netSpill < 0 {
					netSpill = 0
				}
				spillPoints = append(spillPoints, SizePoint{Size: size, PerRecordUS: netSpill})
				r.Queries += len(cfg.RecordCounts)
				r.TrainSec += spentSpill
			}
		}
		line, err := fitSizeLine(r.PerSize)
		if err != nil {
			return nil, nil, fmt.Errorf("subop: %v model: %w", target, err)
		}
		r.Line = line
		ms.Lines.Set(target, line)
		if target == remote.HashBuild {
			// At small record sizes the spill regime costs no more than the
			// in-memory one (the engine floors it), so those points lie on
			// the in-memory line and would flatten the spill fit. Fit the
			// spill model only where spilling measurably dominates — the
			// right-hand regime of Figure 13(f).
			dominant := make([]SizePoint, 0, len(spillPoints))
			for i, p := range spillPoints {
				if p.PerRecordUS > 1.15*r.PerSize[i].PerRecordUS {
					dominant = append(dominant, p)
				}
			}
			if len(dominant) < 2 {
				dominant = spillPoints
			}
			spill, err := fitSizeLine(dominant)
			if err != nil {
				return nil, nil, fmt.Errorf("subop: HashBuild spill model: %w", err)
			}
			r.SpillLine = &spill
			ms.HashSpill = spill
		}
		rep.SubOps = append(rep.SubOps, r)
		rep.TotalSec += r.TrainSec
		rep.TotalCount += r.Queries
	}
	rep.BaselineSec = ms.BaselineSec
	if err := ms.Validate(); err != nil {
		// Only fails when the caller restricted Targets below the Basic set.
		return ms, rep, err
	}
	return ms, rep, nil
}
