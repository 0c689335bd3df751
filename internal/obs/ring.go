package obs

import "intellisphere/internal/metrics"

// Ring is the buffer of the most recent events behind /events and the file
// sink's drain cursor: a metrics.Ring addressed by Event.ID, which Record
// stamps (1-based, never repeating). Events are immutable once recorded.
type Ring = metrics.Ring[Event]

// DefaultRingSize is the event buffer capacity when none is configured.
const DefaultRingSize = 1024

// NewRing builds a ring holding the last n events (n <= 0 selects
// DefaultRingSize).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	return metrics.NewRing(n, func(ev *Event) *uint64 { return &ev.ID })
}
