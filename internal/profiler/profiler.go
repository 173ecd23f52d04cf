// Package profiler implements the work/contention time accounting used to
// reproduce the execution-time breakdowns of the paper (Figures 1, 6 and 10).
//
// The paper obtained its breakdowns from the Solaris profiler; on a pure-Go
// reproduction we instead instrument the storage-manager components directly:
// every agent thread owns a Handle and each component (lock manager, SLI,
// log, buffer pool, transaction body) reports the wall-clock time it spent
// doing useful work or waiting on contended latches. The distinction between
// "work" (useful) and "contention" (useless: spinning or blocked on a latch)
// follows the paper's definition in §1.1; time blocked on true lock conflicts
// or I/O is tracked separately and excluded from the contention figures, just
// as the paper excludes it.
package profiler

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Category identifies which component a slice of time is attributed to and
// whether it was useful work or contention.
type Category int

// Categories of accounted time. The mapping to the paper's stacked-bar
// figures is:
//
//	"work lock mgr"       = LockMgrWork
//	"contention lock mgr" = LockMgrContention
//	"work SLI"            = SLIWork (Figure 10 only)
//	"contention SLI"      = SLIContention (Figure 10 only)
//	"work other"          = LogWork + AbortLogWork + UndoWork + BufferWork +
//	                        TxWork
//	"contention other"    = LogReserveWait + LogBufferFullWait +
//	                        BufferContention + LatchContention
//	"log flush"           = LogFlush (commit-fsync wait, reported separately)
//
// LockWait (blocked on a logical lock conflict) and IOWait are excluded from
// the breakdown bars, matching the paper ("not counting time spent blocked on
// I/O or true lock conflicts").
//
// LogFlush is the time a committing transaction spends waiting for the
// group-commit force of its commit record — fsync latency, not log-latch
// contention. Keeping it separate lets the figures show exactly what Early
// Lock Release removes from the lock hold time (the locks are released
// before this wait when ELR is on).
//
// Log contention is split in two: LogReserveWait is the serialization cost
// of the log's reservation protocol (CAS retries on the buffer's virtual
// head plus the publish fence) — the contention the consolidated
// reserve/fill/publish buffer exists to remove — while LogBufferFullWait is
// the time blocked because the buffer had no space and the flusher had to
// drain it first, a sizing/backpressure signal rather than contention.
//
// The abort path gets its own attribution so the high-abort-rate ablation
// can show what ELR-for-aborts removes from lock hold times: UndoWork is the
// time spent applying in-memory undo actions during rollback, and
// AbortLogWork is the encode/reserve work of appending the rollback's CLR
// and abort records (the abort-path share of what LogWork measures on the
// forward path; reserve and buffer-full waits still land in their own
// categories). The strict abort's wait for the abort record to become
// durable is attributed to LogFlush, exactly like a commit's force — that is
// the wait ELR-for-aborts moves out of the lock hold window.
const (
	LockMgrWork Category = iota
	LockMgrContention
	SLIWork
	SLIContention
	LogWork
	LogReserveWait
	LogBufferFullWait
	LogFlush
	BufferWork
	BufferContention
	LatchContention
	TxWork
	UndoWork
	AbortLogWork
	LockWait
	IOWait
	numCategories
)

// String returns a short human-readable name for the category.
func (c Category) String() string {
	switch c {
	case LockMgrWork:
		return "lockmgr-work"
	case LockMgrContention:
		return "lockmgr-contention"
	case SLIWork:
		return "sli-work"
	case SLIContention:
		return "sli-contention"
	case LogWork:
		return "log-work"
	case LogReserveWait:
		return "log-reserve-wait"
	case LogBufferFullWait:
		return "log-buffer-full-wait"
	case LogFlush:
		return "log-flush"
	case BufferWork:
		return "buffer-work"
	case BufferContention:
		return "buffer-contention"
	case LatchContention:
		return "latch-contention"
	case TxWork:
		return "tx-work"
	case UndoWork:
		return "undo-work"
	case AbortLogWork:
		return "abort-log-work"
	case LockWait:
		return "lock-wait"
	case IOWait:
		return "io-wait"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Handle accumulates time for a single agent thread. A Handle may be shared
// across goroutines (the counters are atomic) but is normally owned by one
// agent.
type Handle struct {
	nanos [numCategories]atomic.Int64
}

// Add attributes d to category c. Negative durations are ignored.
func (h *Handle) Add(c Category, d time.Duration) {
	if h == nil || d <= 0 {
		return
	}
	h.nanos[c].Add(int64(d))
}

// Start returns the current time on a live handle and the zero time on a
// nil one, so an unprofiled caller reads no clock. Pair it with AddSince:
//
//	start := h.Start()
//	... work ...
//	h.AddSince(profiler.LockMgrWork, start)
func (h *Handle) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// AddSince attributes the time elapsed since start (from Start) to category
// c. It does nothing on a nil handle. To exclude a wait already attributed
// elsewhere, pass start.Add(wait).
func (h *Handle) AddSince(c Category, start time.Time) {
	if h == nil {
		return
	}
	h.Add(c, time.Since(start))
}

// Since is time.Since for a start that may be the zero time of an untimed
// section: it returns 0 for the zero time without reading the clock.
func Since(start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// Timed runs fn and attributes its elapsed time to category c.
func (h *Handle) Timed(c Category, fn func()) {
	if h == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	h.nanos[c].Add(int64(time.Since(start)))
}

// Snapshot returns the per-category durations accumulated so far.
func (h *Handle) Snapshot() Breakdown {
	var b Breakdown
	if h == nil {
		return b
	}
	for c := Category(0); c < numCategories; c++ {
		b[c] = time.Duration(h.nanos[c].Load())
	}
	return b
}

// Reset zeroes all counters.
func (h *Handle) Reset() {
	if h == nil {
		return
	}
	for c := Category(0); c < numCategories; c++ {
		h.nanos[c].Store(0)
	}
}

// Breakdown is a per-category accounting of time.
type Breakdown [numCategories]time.Duration

// Get returns the time attributed to category c.
func (b Breakdown) Get(c Category) time.Duration { return b[c] }

// Add returns the element-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	var r Breakdown
	for i := range b {
		r[i] = b[i] + o[i]
	}
	return r
}

// Sub returns the element-wise difference b - o, clamped at zero.
func (b Breakdown) Sub(o Breakdown) Breakdown {
	var r Breakdown
	for i := range b {
		r[i] = b[i] - o[i]
		if r[i] < 0 {
			r[i] = 0
		}
	}
	return r
}

// Total returns the sum of all categories except the excluded wait
// categories (LockWait and IOWait), i.e. the denominator used for the
// paper-style normalized breakdown.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for c := Category(0); c < numCategories; c++ {
		if c == LockWait || c == IOWait {
			continue
		}
		t += b[c]
	}
	return t
}

// GroupedShares folds the detailed categories into the four (or six, with
// SLI) stacked-bar groups used by the paper's figures and returns each
// group's share of the total. The shares sum to 1 when the total is nonzero.
func (b Breakdown) GroupedShares() Shares {
	total := b.Total()
	if total == 0 {
		return Shares{}
	}
	f := func(d time.Duration) float64 { return float64(d) / float64(total) }
	return Shares{
		LockMgrWork:       f(b[LockMgrWork]),
		LockMgrContention: f(b[LockMgrContention]),
		SLI:               f(b[SLIWork] + b[SLIContention]),
		OtherWork:         f(b[LogWork] + b[AbortLogWork] + b[UndoWork] + b[BufferWork] + b[TxWork]),
		OtherContention:   f(b[LogReserveWait] + b[LogBufferFullWait] + b[BufferContention] + b[LatchContention]),
		LogFlush:          f(b[LogFlush]),
	}
}

// Shares is the normalized (fraction-of-total) form of a Breakdown, folded
// into the groups the paper plots, plus the commit-flush wait the scalable
// commit pipeline tracks separately.
type Shares struct {
	LockMgrWork       float64
	LockMgrContention float64
	SLI               float64
	OtherWork         float64
	OtherContention   float64
	LogFlush          float64
}

// String formats the shares as percentages, in the order the paper's legends
// use.
func (s Shares) String() string {
	return fmt.Sprintf("lockmgr-work=%.1f%% lockmgr-cont=%.1f%% sli=%.1f%% other-work=%.1f%% other-cont=%.1f%% log-flush=%.1f%%",
		100*s.LockMgrWork, 100*s.LockMgrContention, 100*s.SLI, 100*s.OtherWork, 100*s.OtherContention, 100*s.LogFlush)
}

// Profiler owns the Handles of all agent threads in an engine instance and
// aggregates them into system-wide breakdowns.
type Profiler struct {
	mu      sync.Mutex
	handles []*Handle
	enabled bool
	// base accumulates the time folded out of the handles by Reset, so that
	// Lifetime stays monotonic across measurement-interval resets — the
	// snapshot-diff that lets the metrics exporter publish the categories as
	// Prometheus counters while benchmark harnesses keep resetting the
	// per-interval view.
	base Breakdown
}

// New creates a Profiler. When enabled is false, NewHandle returns nil
// handles, which silently discard all accounting (zero overhead beyond a nil
// check).
func New(enabled bool) *Profiler {
	return &Profiler{enabled: enabled}
}

// Enabled reports whether the profiler is collecting data.
func (p *Profiler) Enabled() bool { return p != nil && p.enabled }

// NewHandle registers and returns a new per-agent Handle, or nil if the
// profiler is disabled or nil.
func (p *Profiler) NewHandle() *Handle {
	if p == nil || !p.enabled {
		return nil
	}
	h := &Handle{}
	p.mu.Lock()
	p.handles = append(p.handles, h)
	p.mu.Unlock()
	return h
}

// Aggregate sums the breakdowns of every registered handle.
func (p *Profiler) Aggregate() Breakdown {
	var b Breakdown
	if p == nil {
		return b
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.handles {
		b = b.Add(h.Snapshot())
	}
	return b
}

// Reset zeroes every registered handle, folding the accumulated time into
// the lifetime baseline first so Lifetime never goes backwards. Increments
// that land between a handle's snapshot and its zeroing are lost from both
// views — an accepted sliver of undercount, never a double count.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.handles {
		p.base = p.base.Add(h.Snapshot())
		h.Reset()
	}
}

// Lifetime returns the total per-category time accumulated since the
// profiler was created, unaffected by Reset: the sum of everything Reset has
// folded into the baseline plus the live handles. It is the monotonic view
// the metrics exporter publishes; Aggregate remains the interval-scoped view
// the benchmark harness resets around each measurement.
func (p *Profiler) Lifetime() Breakdown {
	var b Breakdown
	if p == nil {
		return b
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b = p.base
	for _, h := range p.handles {
		b = b.Add(h.Snapshot())
	}
	return b
}
