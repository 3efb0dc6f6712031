package stats

import "sync/atomic"

// Concurrency-safe instruments for the parallel harness. Sample (stats.go)
// aggregates measurements after a run; these types are written from many
// worker goroutines while a run is in progress and read by a snapshot at
// the end, so they carry no locks — just atomics.

// Counter is an atomic event counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// HighWater tracks a current value and its maximum (e.g. units in flight).
type HighWater struct{ cur, max atomic.Int64 }

// Enter increments the current value and folds it into the maximum.
func (h *HighWater) Enter() {
	v := h.cur.Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Exit decrements the current value.
func (h *HighWater) Exit() { h.cur.Add(-1) }

// Current returns the in-flight value.
func (h *HighWater) Current() int64 { return h.cur.Load() }

// Max returns the high-water mark.
func (h *HighWater) Max() int64 { return h.max.Load() }
