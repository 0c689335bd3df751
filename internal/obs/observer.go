package obs

import (
	"fmt"
	"time"
)

// Config assembles the whole pipeline.
type Config struct {
	// Events tunes the recorder; a zero SampleRate with no SlowThreshold
	// still captures errors.
	Events RecorderConfig
	// EventLogPath enables the NDJSON file sink when non-empty.
	EventLogPath string
	// EventLogMaxBytes rotates the file sink (<= 0 selects
	// DefaultSinkMaxBytes).
	EventLogMaxBytes int64
	// Step is the interval at which the SLO samples the serving counters
	// into its SampleRingSize-sample ring (<= 0 selects 5 s).
	Step time.Duration
	// Objectives declares the SLOs; empty disables the SLO, and with it the
	// sampling. A slow window may span at most SampleRingSize steps.
	Objectives []Objective
}

// Observer bundles the three observability pieces behind one lifecycle.
// Construction wires rings and the recorder; Start (given the cumulative
// source, which needs the fully built serving stack) launches the SLO's
// sampling loop and the file-sink goroutine; Stop tears both down, flushing
// the sink.
type Observer struct {
	Rec  *Recorder
	SLO  *SLO
	Sink *FileSink

	started bool
}

// New builds an observer. The file sink (when configured) is opened here so
// startup fails fast on an unwritable path, but no goroutines run until
// Start. An objective whose slow window the sample ring cannot hold is an
// error: its burn would count the missing samples as good.
func New(cfg Config) (*Observer, error) {
	o := &Observer{Rec: NewRecorder(cfg.Events)}
	if len(cfg.Objectives) > 0 {
		o.SLO = NewSLO(cfg.Step, cfg.Objectives)
		span := SampleRingSize * o.SLO.step
		for _, st := range o.SLO.states {
			if st.obj.SlowWindow > span {
				return nil, fmt.Errorf("obs: objective %s: slow window %s is longer than the %s the sample ring holds (%d samples at a %s step)",
					st.obj.Name, st.obj.SlowWindow, span, SampleRingSize, o.SLO.step)
			}
		}
	}
	if cfg.EventLogPath != "" {
		sink, err := NewFileSink(o.Rec.Ring(), cfg.EventLogPath, cfg.EventLogMaxBytes, 0)
		if err != nil {
			return nil, err
		}
		o.Sink = sink
	}
	return o, nil
}

// Start launches the SLO's sampling of src (only when objectives are
// declared, since they are its one reader) and the file sink.
func (o *Observer) Start(src func() Cumulative) {
	if o == nil || o.started {
		return
	}
	o.started = true
	if o.SLO != nil {
		o.SLO.Start(src)
	}
	if o.Sink != nil {
		o.Sink.Start()
	}
}

// Stop halts the sampling and flushes/closes the sink. Safe to call when
// Start never ran (the sink goroutine only exists after Start).
func (o *Observer) Stop() {
	if o == nil || !o.started {
		return
	}
	o.started = false
	if o.SLO != nil {
		o.SLO.Stop()
	}
	if o.Sink != nil {
		o.Sink.Stop()
	}
}

// DefaultObjectives builds the stock objective set from the serve flags:
// availability (target good fraction), p99 latency (threshold seconds; 0
// disables), and estimator q-error (threshold; 0 disables).
func DefaultObjectives(availability float64, latencyP99 time.Duration, qerror float64, fast, slow time.Duration, burnFactor float64) []Objective {
	var out []Objective
	if availability > 0 && availability < 1 {
		out = append(out, Objective{
			Name: "availability", Kind: KindAvailability, Target: availability,
			FastWindow: fast, SlowWindow: slow, BurnFactor: burnFactor,
		})
	}
	if latencyP99 > 0 {
		out = append(out, Objective{
			Name: "latency-p99", Kind: KindLatency, Target: 0.99,
			Threshold:  latencyP99.Seconds(),
			FastWindow: fast, SlowWindow: slow, BurnFactor: burnFactor,
		})
	}
	if qerror > 0 {
		out = append(out, Objective{
			Name: "estimator-qerror", Kind: KindQError, Target: 0.95,
			Threshold:  qerror,
			FastWindow: fast, SlowWindow: slow, BurnFactor: burnFactor,
		})
	}
	return out
}
