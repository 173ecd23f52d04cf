package profiler

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHandleAddAndSnapshot(t *testing.T) {
	var h Handle
	h.Add(LockMgrWork, 10*time.Millisecond)
	h.Add(LockMgrWork, 5*time.Millisecond)
	h.Add(TxWork, 20*time.Millisecond)
	h.Add(LockMgrContention, -time.Second) // negative ignored
	b := h.Snapshot()
	if b.Get(LockMgrWork) != 15*time.Millisecond {
		t.Fatalf("LockMgrWork = %v, want 15ms", b.Get(LockMgrWork))
	}
	if b.Get(TxWork) != 20*time.Millisecond {
		t.Fatalf("TxWork = %v, want 20ms", b.Get(TxWork))
	}
	if b.Get(LockMgrContention) != 0 {
		t.Fatalf("negative add must be ignored, got %v", b.Get(LockMgrContention))
	}
}

func TestNilHandleIsSafe(t *testing.T) {
	var h *Handle
	h.Add(LockMgrWork, time.Second) // must not panic
	h.Timed(TxWork, func() {})
	h.Reset()
	if h.Snapshot().Total() != 0 {
		t.Fatal("nil handle must report empty breakdown")
	}
	start := h.Start()
	if !start.IsZero() {
		t.Fatal("nil handle's Start must read no clock")
	}
	h.AddSince(LockMgrWork, start) // must not panic
	if Since(start) != 0 {
		t.Fatal("Since of the zero time must be 0")
	}
}

func TestStartAddSinceExcludesWait(t *testing.T) {
	var h Handle
	start := h.Start()
	time.Sleep(2 * time.Millisecond)
	h.AddSince(LockMgrWork, start)
	if got := h.Snapshot().Get(LockMgrWork); got < time.Millisecond {
		t.Fatalf("AddSince recorded %v, want >= 1ms", got)
	}
	// Shifting the start past a wait excludes it: nothing is left to add.
	h.AddSince(SLIWork, h.Start().Add(time.Hour))
	if got := h.Snapshot().Get(SLIWork); got != 0 {
		t.Fatalf("AddSince with the wait excluded recorded %v, want 0", got)
	}
}

func TestTimedAttributesElapsed(t *testing.T) {
	var h Handle
	h.Timed(BufferWork, func() { time.Sleep(2 * time.Millisecond) })
	if h.Snapshot().Get(BufferWork) < time.Millisecond {
		t.Fatalf("Timed recorded %v, want >= 1ms", h.Snapshot().Get(BufferWork))
	}
}

func TestBreakdownTotalExcludesWaits(t *testing.T) {
	var b Breakdown
	b[LockMgrWork] = 10 * time.Millisecond
	b[TxWork] = 30 * time.Millisecond
	b[LockWait] = time.Hour // excluded
	b[IOWait] = time.Hour   // excluded
	if b.Total() != 40*time.Millisecond {
		t.Fatalf("Total = %v, want 40ms", b.Total())
	}
}

func TestGroupedSharesSumToOne(t *testing.T) {
	var b Breakdown
	b[LockMgrWork] = 10 * time.Millisecond
	b[LockMgrContention] = 40 * time.Millisecond
	b[SLIWork] = 5 * time.Millisecond
	b[LogWork] = 15 * time.Millisecond
	b[BufferContention] = 10 * time.Millisecond
	b[TxWork] = 20 * time.Millisecond
	s := b.GroupedShares()
	sum := s.LockMgrWork + s.LockMgrContention + s.SLI + s.OtherWork + s.OtherContention
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum = %v, want 1", sum)
	}
	if s.LockMgrContention <= s.LockMgrWork {
		t.Fatal("expected contention share to dominate work share in this synthetic breakdown")
	}
}

func TestGroupedSharesEmpty(t *testing.T) {
	var b Breakdown
	s := b.GroupedShares()
	if s != (Shares{}) {
		t.Fatalf("empty breakdown should produce zero shares, got %+v", s)
	}
}

func TestBreakdownAddSub(t *testing.T) {
	var a, b Breakdown
	a[TxWork] = 10 * time.Millisecond
	b[TxWork] = 4 * time.Millisecond
	b[LogWork] = 100 * time.Millisecond
	sum := a.Add(b)
	if sum[TxWork] != 14*time.Millisecond || sum[LogWork] != 100*time.Millisecond {
		t.Fatalf("Add wrong: %+v", sum)
	}
	diff := a.Sub(b)
	if diff[TxWork] != 6*time.Millisecond {
		t.Fatalf("Sub wrong: %v", diff[TxWork])
	}
	if diff[LogWork] != 0 {
		t.Fatalf("Sub must clamp at zero, got %v", diff[LogWork])
	}
}

func TestProfilerDisabledReturnsNilHandles(t *testing.T) {
	p := New(false)
	if p.NewHandle() != nil {
		t.Fatal("disabled profiler must hand out nil handles")
	}
	if p.Enabled() {
		t.Fatal("profiler should report disabled")
	}
	var nilP *Profiler
	if nilP.NewHandle() != nil || nilP.Enabled() {
		t.Fatal("nil profiler must behave as disabled")
	}
	nilP.Reset()
	if nilP.Aggregate().Total() != 0 {
		t.Fatal("nil profiler aggregate should be empty")
	}
}

func TestProfilerAggregateAndReset(t *testing.T) {
	p := New(true)
	h1 := p.NewHandle()
	h2 := p.NewHandle()
	h1.Add(LockMgrWork, 5*time.Millisecond)
	h2.Add(LockMgrWork, 7*time.Millisecond)
	h2.Add(LockWait, time.Second)
	agg := p.Aggregate()
	if agg.Get(LockMgrWork) != 12*time.Millisecond {
		t.Fatalf("aggregate LockMgrWork = %v, want 12ms", agg.Get(LockMgrWork))
	}
	if agg.Get(LockWait) != time.Second {
		t.Fatalf("aggregate LockWait = %v, want 1s", agg.Get(LockWait))
	}
	p.Reset()
	if p.Aggregate().Total() != 0 {
		t.Fatal("aggregate after reset should be zero")
	}
}

func TestConcurrentHandleUse(t *testing.T) {
	p := New(true)
	h := p.NewHandle()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Add(LockMgrWork, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := p.Aggregate().Get(LockMgrWork); got != 8*1000*time.Microsecond {
		t.Fatalf("concurrent adds lost updates: %v", got)
	}
}

func TestCategoryString(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < numCategories; c++ {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("category %d has empty or duplicate name %q", c, s)
		}
		seen[s] = true
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category should still produce a name")
	}
}
