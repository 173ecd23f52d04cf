// Package buffer implements the buffer pool: a fixed set of in-memory frames
// caching data pages, with clock eviction, dirty-page writeback, and an
// optional artificial per-I/O latency.
//
// The artificial latency reproduces the paper's experimental setup (§5.2):
// the database lives on an in-memory store but every page miss or writeback
// pays a configurable delay (the paper uses 6 ms) to simulate a large disk
// array where "all requests can proceed in parallel but must each still pay
// the cost of a disk seek". I/O happens outside the pool's metadata latch so
// concurrent misses overlap their delays, exactly as the paper intends.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slidb/internal/latch"
	"slidb/internal/page"
	"slidb/internal/profiler"
)

// PageID identifies a data page globally: table (store) plus page number
// within the table.
type PageID struct {
	Table uint32
	Page  uint64
}

// String renders the page ID for debugging.
func (id PageID) String() string { return fmt.Sprintf("%d.%d", id.Table, id.Page) }

// Store is the backing storage the buffer pool reads from and writes to.
type Store interface {
	// Read copies the page image into buf and reports whether the page
	// exists in the store.
	Read(id PageID, buf []byte) (bool, error)
	// Write persists the page image.
	Write(id PageID, data []byte) error
}

// MemStore is an in-memory Store, standing in for the paper's in-memory file
// system.
type MemStore struct {
	mu    sync.RWMutex
	pages map[PageID][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{pages: make(map[PageID][]byte)} }

// Read implements Store.
func (s *MemStore) Read(id PageID, buf []byte) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.pages[id]
	if !ok {
		return false, nil
	}
	copy(buf, data)
	return true, nil
}

// Write implements Store.
func (s *MemStore) Write(id PageID, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.pages[id] = cp
	s.mu.Unlock()
	return nil
}

// Len returns the number of pages in the store.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// Frame is one buffer-pool slot holding a page. Callers access the page
// content under the frame's Latch and must keep the frame pinned while they
// hold a reference to it.
type Frame struct {
	// Latch protects the page contents (readers share, writers exclude).
	Latch latch.RWLatch

	id      PageID
	pg      *page.Page
	pins    atomic.Int32
	refbit  atomic.Bool
	dirty   atomic.Bool
	valid   bool          // has ever been mapped to a page
	loading chan struct{} // non-nil while the page image is being read in
}

// ID returns the page the frame currently holds.
func (f *Frame) ID() PageID { return f.id }

// Page returns the slotted page held by the frame. Access it only while the
// frame is pinned and the Latch is held in the appropriate mode.
func (f *Frame) Page() *page.Page { return f.pg }

// MarkDirty records that the page content was modified and must be written
// back before eviction.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// Stats holds buffer pool counters.
type Stats struct {
	Hits       atomic.Uint64
	Misses     atomic.Uint64
	Evictions  atomic.Uint64
	Writebacks atomic.Uint64
}

// StatsSnapshot is a plain copy of Stats.
type StatsSnapshot struct {
	Hits, Misses, Evictions, Writebacks uint64
}

// Config configures a buffer pool.
type Config struct {
	// Frames is the number of page frames (default 4096 ≈ 32 MiB).
	Frames int
	// IODelay is the artificial latency charged to every page read from or
	// write to the store (the paper's simulated disk seek). Zero disables it.
	IODelay time.Duration
}

// ErrNoFrames is returned when every frame is pinned and no page can be
// brought in.
var ErrNoFrames = errors.New("buffer: all frames pinned")

// Pool is the buffer pool.
type Pool struct {
	cfg   Config
	store Store

	mu     latch.Mutex
	table  map[PageID]*Frame
	frames []*Frame
	clock  int

	stats Stats
}

// NewPool creates a buffer pool over the given store.
func NewPool(store Store, cfg Config) *Pool {
	if cfg.Frames <= 0 {
		cfg.Frames = 4096
	}
	return &Pool{
		cfg:   cfg,
		store: store,
		table: make(map[PageID]*Frame, cfg.Frames),
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() StatsSnapshot {
	return StatsSnapshot{
		Hits:       p.stats.Hits.Load(),
		Misses:     p.stats.Misses.Load(),
		Evictions:  p.stats.Evictions.Load(),
		Writebacks: p.stats.Writebacks.Load(),
	}
}

// Capacity returns the configured number of frames.
func (p *Pool) Capacity() int { return p.cfg.Frames }

// Fetch pins and returns the frame holding the given page, reading it from
// the store (or initializing an empty page) on a miss. The caller must call
// Unpin exactly once when done. h may be nil.
func (p *Pool) Fetch(h *profiler.Handle, id PageID) (*Frame, error) {
	workStart := h.Start()
	contended, wait := p.mu.Lock()
	if contended {
		h.Add(profiler.BufferContention, wait)
		workStart = workStart.Add(wait)
	}
	if f, ok := p.table[id]; ok {
		f.pins.Add(1)
		f.refbit.Store(true)
		loading := f.loading
		p.mu.Unlock()
		p.stats.Hits.Add(1)
		if loading != nil {
			ioStart := h.Start()
			<-loading
			h.AddSince(profiler.IOWait, ioStart)
		}
		h.AddSince(profiler.BufferWork, workStart)
		return f, nil
	}

	victim := p.victimLocked()
	if victim == nil {
		p.mu.Unlock()
		// Even the pool-exhausted miss spent wall time under the table lock;
		// attribute it (found by the proftimer analyzer).
		h.AddSince(profiler.BufferWork, workStart)
		return nil, ErrNoFrames
	}
	oldID, oldValid, oldDirty := victim.id, victim.valid, victim.dirty.Load()
	if oldValid {
		delete(p.table, oldID)
		p.stats.Evictions.Add(1)
	}
	victim.id = id
	victim.valid = true
	victim.pins.Store(1)
	victim.refbit.Store(true)
	victim.dirty.Store(false)
	ch := make(chan struct{})
	victim.loading = ch
	p.table[id] = victim
	p.mu.Unlock()
	p.stats.Misses.Add(1)
	h.AddSince(profiler.BufferWork, workStart)

	// I/O happens outside the pool latch so concurrent misses overlap.
	ioStart := h.Start()
	if oldValid && oldDirty {
		if err := p.store.Write(oldID, victim.pg.Bytes()); err != nil {
			// Propagate the error but leave the frame usable as a fresh page.
			victim.pg.Init()
			p.finishLoad(victim, ch)
			h.AddSince(profiler.IOWait, ioStart)
			return nil, fmt.Errorf("buffer: writeback of %v failed: %w", oldID, err)
		}
		p.stats.Writebacks.Add(1)
		p.simulateIO()
	}
	found, err := p.store.Read(id, victim.pg.Bytes())
	if err != nil {
		victim.pg.Init()
		p.finishLoad(victim, ch)
		h.AddSince(profiler.IOWait, ioStart)
		return nil, fmt.Errorf("buffer: read of %v failed: %w", id, err)
	}
	if found {
		p.simulateIO()
	} else {
		victim.pg.Init()
	}
	p.finishLoad(victim, ch)
	h.AddSince(profiler.IOWait, ioStart)
	return victim, nil
}

func (p *Pool) finishLoad(f *Frame, ch chan struct{}) {
	p.mu.Lock()
	f.loading = nil
	p.mu.Unlock()
	close(ch)
}

func (p *Pool) simulateIO() {
	if p.cfg.IODelay > 0 {
		time.Sleep(p.cfg.IODelay)
	}
}

// victimLocked returns an unpinned frame to reuse, allocating a new frame
// while the pool is below capacity. Must be called with p.mu held.
func (p *Pool) victimLocked() *Frame {
	if len(p.frames) < p.cfg.Frames {
		f := &Frame{pg: page.New()}
		p.frames = append(p.frames, f)
		return f
	}
	for scanned := 0; scanned < 2*len(p.frames); scanned++ {
		f := p.frames[p.clock]
		p.clock = (p.clock + 1) % len(p.frames)
		if f.pins.Load() != 0 || f.loading != nil {
			continue
		}
		if f.refbit.Load() {
			f.refbit.Store(false)
			continue
		}
		return f
	}
	return nil
}

// Unpin releases a pin taken by Fetch. Set dirty if the caller modified the
// page content.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
	if n := f.pins.Add(-1); n < 0 {
		panic("buffer: unpin without matching pin")
	}
}

// FlushAll writes every dirty page back to the store (e.g. at checkpoint or
// shutdown). Pages stay cached.
func (p *Pool) FlushAll(h *profiler.Handle) error {
	p.mu.Lock()
	frames := make([]*Frame, len(p.frames))
	copy(frames, p.frames)
	p.mu.Unlock()
	for _, f := range frames {
		if !f.dirty.Load() {
			continue
		}
		f.pins.Add(1)
		f.Latch.RLock()
		err := p.store.Write(f.id, f.pg.Bytes())
		f.Latch.RUnlock()
		if err == nil {
			f.dirty.Store(false)
			p.stats.Writebacks.Add(1)
			ioStart := h.Start()
			p.simulateIO()
			h.AddSince(profiler.IOWait, ioStart)
		}
		p.pinsRelease(f)
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *Pool) pinsRelease(f *Frame) { f.pins.Add(-1) }

// CachedPages returns the number of pages currently mapped in the pool.
func (p *Pool) CachedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.table)
}
