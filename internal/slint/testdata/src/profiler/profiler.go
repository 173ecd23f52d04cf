// Package profiler is a minimal stand-in for slidb/internal/profiler used
// by the slint analyzer tests.
package profiler

import "time"

// Category indexes a timing bucket.
type Category int

const (
	CatLogFlush Category = iota
	CatLogReserveWait
	CatLogBufferFullWait
	CatWork
)

// Handle accumulates per-category durations.
type Handle struct {
	nanos [4]int64
}

// Add attributes d to category c.
func (h *Handle) Add(c Category, d time.Duration) {
	if h != nil {
		h.nanos[c] += int64(d)
	}
}

// Start returns the current time, or the zero time on a nil handle.
func (h *Handle) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// AddSince attributes the time elapsed since start to c.
func (h *Handle) AddSince(c Category, start time.Time) {
	if h != nil {
		h.Add(c, time.Since(start))
	}
}

// Since is time.Since that returns 0 for the zero time.
func Since(start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// Timed runs f and attributes its wall time to c.
func (h *Handle) Timed(c Category, f func()) {
	start := time.Now()
	f()
	h.Add(c, time.Since(start))
}
