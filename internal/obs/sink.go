package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"intellisphere/internal/metrics"
)

// FileSink drains the event ring to a size-rotated NDJSON file. The hot
// path only stores into the ring; a single background goroutine follows the
// ring's sequence numbers and appends whole lines, so a crash can tear at
// most the final line (the e2e recovery check tolerates exactly that).
// Events overwritten before the drainer reaches them are counted, never
// blocked on.
type FileSink struct {
	path     string
	maxBytes int64
	interval time.Duration
	ring     *Ring

	f      *os.File
	size   int64
	cursor uint64

	lost      metrics.Counter
	writeErrs metrics.Counter
	rotations metrics.Counter

	stop chan struct{}
	done chan struct{}
}

// sinkDrainBatch bounds one drain pass so a burst cannot pin the drainer
// in a single write loop past its interval.
const sinkDrainBatch = 4096

// DefaultSinkMaxBytes rotates the log at 8 MiB — roughly 20k events.
const DefaultSinkMaxBytes = 8 << 20

// NewFileSink opens (appending) the log at path and returns a sink draining
// ring every interval (<= 0 selects 250 ms). maxBytes <= 0 selects
// DefaultSinkMaxBytes.
func NewFileSink(ring *Ring, path string, maxBytes int64, interval time.Duration) (*FileSink, error) {
	f, size, err := openLog(path)
	if err != nil {
		return nil, err
	}
	if maxBytes <= 0 {
		maxBytes = DefaultSinkMaxBytes
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	return &FileSink{
		path:     path,
		maxBytes: maxBytes,
		interval: interval,
		ring:     ring,
		f:        f,
		size:     size,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// Start launches the drain loop.
func (s *FileSink) Start() {
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.drain() // final drain so a clean shutdown loses nothing
				if s.f != nil {
					s.f.Close()
				}
				return
			case <-t.C:
				s.drain()
			}
		}
	}()
}

// Stop drains once more, closes the file, and waits for the loop to exit.
func (s *FileSink) Stop() {
	close(s.stop)
	<-s.done
}

// drain appends every ring event past the cursor as one JSON line each,
// rotating when the file exceeds maxBytes. While the log cannot be opened
// (a rotation failed to reopen it), each event retries the path first and
// counts a write error when it is still unavailable.
func (s *FileSink) drain() {
	for {
		evs, next, lost := s.ring.Since(s.cursor, sinkDrainBatch)
		s.cursor = next
		if lost > 0 {
			s.lost.Add(lost)
		}
		if len(evs) == 0 {
			return
		}
		for _, ev := range evs {
			if s.f != nil && s.size >= s.maxBytes {
				s.rotate()
			}
			if s.f == nil {
				if s.f, s.size, _ = openLog(s.path); s.f == nil {
					s.writeErrs.Inc()
					continue
				}
			}
			line, err := json.Marshal(ev)
			if err != nil {
				s.writeErrs.Inc()
				continue
			}
			line = append(line, '\n')
			n, err := s.f.Write(line)
			s.size += int64(n)
			if err != nil {
				s.writeErrs.Inc()
			}
		}
		if len(evs) < sinkDrainBatch {
			return
		}
	}
}

// rotate moves the live file to path+".1" (replacing any previous rotation)
// and reopens a fresh log. On rename failure the file is truncated in place
// instead, so the sink never grows without bound. A rotation counts only when
// the fresh log opened; otherwise s.f stays nil and drain retries the path.
func (s *FileSink) rotate() {
	s.f.Close()
	if err := os.Rename(s.path, s.path+".1"); err != nil {
		os.Truncate(s.path, 0)
	}
	s.f, s.size, _ = openLog(s.path)
	if s.f != nil {
		s.rotations.Inc()
	}
}

// openLog opens the log at path for appending and returns its current size.
func openLog(path string) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("obs: open event log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("obs: stat event log: %w", err)
	}
	return f, st.Size(), nil
}

// SinkStats is the sink's health counters.
type SinkStats struct {
	Lost      uint64 `json:"lost"`
	WriteErrs uint64 `json:"write_errs"`
	Rotations uint64 `json:"rotations"`
}

// Stats reports drain counters.
func (s *FileSink) Stats() SinkStats {
	return SinkStats{
		Lost:      s.lost.Value(),
		WriteErrs: s.writeErrs.Value(),
		Rotations: s.rotations.Value(),
	}
}
