package lockmgr

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"slidb/internal/latch"
	"slidb/internal/profiler"
)

// Errors returned by lock acquisition.
var (
	// ErrDeadlock is returned to a transaction chosen as a deadlock victim;
	// the transaction must abort and release its locks.
	ErrDeadlock = errors.New("lockmgr: deadlock detected")
	// ErrLockTimeout is returned when a lock wait exceeds Config.LockTimeout.
	ErrLockTimeout = errors.New("lockmgr: lock wait timeout")
	// ErrOwnerFinished is returned when a finished (committed/aborted) owner
	// attempts to acquire more locks.
	ErrOwnerFinished = errors.New("lockmgr: transaction already released its locks")
)

// Config controls the lock manager and the SLI policy knobs that the paper's
// §4.2 calls out (hot threshold, eligible levels).
type Config struct {
	// Partitions is the number of shards of the lock hash table
	// (rounded up to a power of two). Default 128.
	Partitions int
	// SLI enables Speculative Lock Inheritance. It can also be toggled at
	// runtime with Manager.SetSLI.
	SLI bool
	// SLIHotThreshold is the fraction of recent lock-head latch acquisitions
	// that must have been contended for the lock to be considered "hot"
	// (criterion 2). Default 0.25.
	SLIHotThreshold float64
	// SLIMinLevel is the finest hierarchy level eligible for inheritance
	// (criterion 1). Default LevelPage ("page-level or higher").
	SLIMinLevel Level
	// DeadlockCheckEvery is how often a blocked transaction probes the
	// wait-for graph for cycles. Default 2ms.
	DeadlockCheckEvery time.Duration
	// LockTimeout aborts lock waits that exceed it; 0 disables the timeout.
	// Default 10s.
	LockTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 128
	}
	if c.SLIHotThreshold <= 0 {
		c.SLIHotThreshold = 0.25
	}
	if c.SLIMinLevel == 0 {
		c.SLIMinLevel = LevelPage
	}
	if c.DeadlockCheckEvery <= 0 {
		c.DeadlockCheckEvery = 2 * time.Millisecond
	}
	if c.LockTimeout == 0 {
		c.LockTimeout = 10 * time.Second
	}
	return c
}

// Manager is the centralized hierarchical lock manager (paper §3.2,
// Figure 2) extended with Speculative Lock Inheritance (§4).
type Manager struct {
	cfg   Config
	table *lockTable
	stats Stats

	sliEnabled  atomic.Bool
	nextOwnerID atomic.Uint64
	nextAgentID atomic.Uint64
}

// New creates a lock manager with the given configuration.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, table: newLockTable(cfg.Partitions)}
	m.sliEnabled.Store(cfg.SLI)
	return m
}

// Stats returns the manager's cumulative event counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// SetSLI enables or disables Speculative Lock Inheritance at runtime.
// Disabling SLI stops new inheritances immediately; requests already
// inherited drain naturally (they are reclaimed, invalidated or discarded).
func (m *Manager) SetSLI(enabled bool) { m.sliEnabled.Store(enabled) }

// SLIEnabled reports whether Speculative Lock Inheritance is active.
func (m *Manager) SLIEnabled() bool { return m.sliEnabled.Load() }

// ActiveLocks returns the number of lock heads currently in the lock table.
func (m *Manager) ActiveLocks() int { return m.table.size() }

// IsHot reports whether the lock identified by id is currently classified as
// hot. It is primarily a testing and monitoring hook.
func (m *Manager) IsHot(id LockID) bool {
	h := m.table.find(id)
	if h == nil {
		return false
	}
	return h.hot.Load()
}

// ForceHot marks the lock identified by id as hot (creating its lock head if
// necessary) by saturating its contention window. It exists so tests and
// ablation benchmarks can exercise SLI deterministically without having to
// generate real latch contention first.
func (m *Manager) ForceHot(id LockID) {
	h := m.table.findOrCreate(id)
	h.latch.Lock()
	for i := 0; i < latch.WindowSize; i++ {
		h.recordLatchAcquire(true, m.cfg.SLIHotThreshold)
	}
	h.latch.Unlock()
}

// Agent represents an agent (worker) thread. Agents hold the thread-local
// list of inherited lock requests between transactions (paper §4.1: "moves
// it ... to a different private list owned by the transaction's agent
// thread"). An Agent must only be used by one goroutine at a time.
type Agent struct {
	id      uint64
	mgr     *Manager
	pending []*Request

	// cache, inherited and held are the previous owner's lock bookkeeping,
	// emptied by its ReleaseAll and handed to the agent's next NewOwner, so
	// a steady stream of short transactions allocates no maps. nil while
	// an owner is using them (or after one outgrew maxRecycledLocks).
	cache     map[LockID]*Request
	inherited map[LockID]*Request
	held      []*Request
}

// maxRecycledLocks bounds the lock bookkeeping an agent keeps between
// transactions. Emptying a map costs its capacity, not its length, so a map
// that once held a bulk load's locks is dropped rather than cleared on every
// later short transaction.
const maxRecycledLocks = 128

// NewAgent creates an agent context. Each worker goroutine that executes
// transactions should own exactly one Agent.
func (m *Manager) NewAgent() *Agent {
	return &Agent{id: m.nextAgentID.Add(1), mgr: m}
}

// ID returns the agent's identifier.
func (a *Agent) ID() uint64 { return a.id }

// PendingInherited returns the number of inherited lock requests currently
// parked on the agent, awaiting the agent's next transaction.
func (a *Agent) PendingInherited() int {
	if a == nil {
		return 0
	}
	n := 0
	for _, r := range a.pending {
		if r.status.Load() == statusInherited {
			n++
		}
	}
	return n
}

// attach seeds a new transaction's lock cache with the agent's inherited
// requests ("it pre-populates the new transaction's lock cache with the
// inherited locks", §4.1). Requests invalidated while the agent was between
// transactions are simply dropped; the invalidator already unlinked them.
func (a *Agent) attach(o *Owner) {
	if a == nil || len(a.pending) == 0 {
		return
	}
	for _, req := range a.pending {
		if req.status.Load() != statusInherited {
			continue
		}
		o.cache[req.id] = req
		o.inherited[req.id] = req
	}
	a.pending = a.pending[:0]
}

// Owner is the lock-manager-side context of one transaction: its private
// list of granted requests (in acquisition order), its lock cache, and the
// inherited requests it received from its agent but has not yet reclaimed.
// An Owner is not safe for concurrent use; each transaction runs on a single
// agent goroutine.
type Owner struct {
	id    uint64
	mgr   *Manager
	agent *Agent
	prof  *profiler.Handle

	held      []*Request
	cache     map[LockID]*Request
	inherited map[LockID]*Request

	waiting  atomic.Pointer[Request]
	finished bool
}

// NewOwner creates the locking context for a new transaction running on the
// given agent (which may be nil for detached transactions) and seeds it with
// the agent's inherited locks. On an agent it reuses the lock bookkeeping the
// agent's previous owner gave back in ReleaseAll. prof may be nil.
func (m *Manager) NewOwner(agent *Agent, prof *profiler.Handle) *Owner {
	o := &Owner{
		id:    m.nextOwnerID.Add(1),
		mgr:   m,
		agent: agent,
		prof:  prof,
	}
	if agent != nil && agent.cache != nil {
		o.cache, o.inherited, o.held = agent.cache, agent.inherited, agent.held
		agent.cache, agent.inherited, agent.held = nil, nil, nil
	} else {
		o.cache = make(map[LockID]*Request, 16)
		o.inherited = make(map[LockID]*Request, 8)
	}
	if m.SLIEnabled() {
		start := prof.Start()
		agent.attach(o)
		o.prof.AddSince(profiler.SLIWork, start)
	} else if agent != nil && len(agent.pending) > 0 {
		// SLI was turned off with inherited requests outstanding: retire them.
		for _, req := range agent.pending {
			if req.status.CompareAndSwap(statusInherited, statusInvalid) {
				m.unlinkInvalid(o, req)
				m.stats.SLIDiscarded.Add(1)
			}
		}
		agent.pending = agent.pending[:0]
	}
	return o
}

// ID returns the owner's (transaction's) identifier.
func (o *Owner) ID() uint64 { return o.id }

// HeldCount returns the number of locks the transaction currently holds.
func (o *Owner) HeldCount() int { return len(o.held) }

// InheritedCount returns the number of inherited requests seeded into this
// transaction that it has not (yet) reclaimed.
func (o *Owner) InheritedCount() int { return len(o.inherited) }

// HeldMode returns the mode in which the transaction holds the given lock,
// or NL if it does not hold it. Inherited-but-unreclaimed locks report NL.
func (o *Owner) HeldMode(id LockID) Mode {
	req, ok := o.cache[id]
	if !ok {
		return NL
	}
	switch req.status.Load() {
	case statusGranted, statusConverting:
		return req.mode
	default:
		return NL
	}
}

// Lock acquires the lock identified by id in the given mode on behalf of the
// owner, acquiring intention locks on all ancestors first. It blocks until
// the lock is granted or the request is aborted by deadlock detection or
// timeout.
func (o *Owner) Lock(id LockID, mode Mode) error { return o.mgr.Lock(o, id, mode) }

// ReleaseAll releases every lock the owner holds, applying Speculative Lock
// Inheritance to eligible locks. It is called exactly once, at transaction
// completion (commit or abort).
func (o *Owner) ReleaseAll() { o.mgr.ReleaseAll(o) }

// ReleaseAllEarly is ReleaseAll invoked under Early Lock Release once the
// transaction's outcome record — the commit record at pre-commit, or the
// abort record after a fully compensation-logged rollback — has been
// appended to the log but is not yet durable. The release path is identical
// — SLI inheritance still applies, so hot locks pass to the agent's next
// transaction without waiting for the fsync — but the event is counted
// separately so ablations and tests can verify that no lock is held across
// a log flush.
func (o *Owner) ReleaseAllEarly() {
	if o.finished {
		return
	}
	o.mgr.stats.ELRReleases.Add(1)
	o.mgr.ReleaseAll(o)
}

// Lock acquires id in the requested mode for owner o. See Owner.Lock.
func (m *Manager) Lock(o *Owner, id LockID, mode Mode) error {
	if mode == NL {
		return nil
	}
	if !mode.Valid() {
		return fmt.Errorf("lockmgr: invalid lock mode %d", mode)
	}
	if o.finished {
		return ErrOwnerFinished
	}
	// Ensure the proper intention locks are held on every ancestor
	// ("the manager first ensures the transaction holds higher-level
	// intention locks, requesting them automatically if necessary", §3.2).
	if parent, ok := id.Parent(); ok {
		if err := m.Lock(o, parent, ParentMode(mode)); err != nil {
			return err
		}
	}
	if req, ok := o.cache[id]; ok {
		switch req.status.Load() {
		case statusGranted:
			if Covers(req.mode, mode) {
				m.stats.CacheHits.Add(1)
				return nil
			}
			return m.convert(o, req, mode)
		case statusInherited:
			return m.reclaim(o, req, mode)
		default: // invalidated while cached
			delete(o.cache, id)
			delete(o.inherited, id)
		}
	}
	return m.lockSlow(o, id, mode)
}

// lockSlow performs a full lock-manager acquisition: find or create the lock
// head, latch it, invalidate incompatible inherited requests, and either
// grant immediately or enqueue and wait.
func (m *Manager) lockSlow(o *Owner, id LockID, mode Mode) error {
	workStart := o.prof.Start()
	var req *Request
	var granted bool
	for {
		h := m.table.findOrCreate(id)
		contended, wait := h.latch.Lock()
		if wait > 0 {
			// Contention, not work: keep it out of the LockMgrWork span.
			o.prof.Add(profiler.LockMgrContention, wait)
			workStart = workStart.Add(wait)
		}
		if contended {
			m.stats.LatchContended.Add(1)
		}
		if h.dead {
			h.latch.Unlock()
			continue
		}
		h.recordLatchAcquire(contended, m.cfg.SLIHotThreshold)
		m.stats.classify(id, mode, h.hot.Load())

		// Retire any inherited requests that conflict with this request
		// (paper §4.1: the conflicting requester invalidates and unlinks).
		m.invalidateIncompatible(o, h, mode)

		agg := h.grantedSupremum(nil)
		granted = Compatible(mode, agg) && !h.hasWaiters()
		if granted {
			req = newRequest(h, o, mode, statusGranted)
		} else {
			req = newRequest(h, o, mode, statusWaiting)
			h.waiters++
		}
		h.queue.pushBack(req)
		h.latch.Unlock()
		break
	}
	o.prof.AddSince(profiler.LockMgrWork, workStart)
	if granted {
		o.cache[id] = req
		o.held = append(o.held, req)
		return nil
	}
	m.stats.Waits.Add(1)
	return m.waitFor(o, req, false)
}

// convert upgrades an already-held request to cover the wanted mode
// (e.g. IS→IX when a reader turns writer).
func (m *Manager) convert(o *Owner, req *Request, want Mode) error {
	workStart := o.prof.Start()
	target := Supremum(req.mode, want)
	h := req.head
	contended, wait := h.latch.Lock()
	if wait > 0 {
		o.prof.Add(profiler.LockMgrContention, wait)
		workStart = workStart.Add(wait)
	}
	if contended {
		m.stats.LatchContended.Add(1)
	}
	h.recordLatchAcquire(contended, m.cfg.SLIHotThreshold)
	m.stats.Conversions.Add(1)
	m.stats.classify(req.id, target, h.hot.Load())
	m.invalidateIncompatible(o, h, target)

	agg := h.grantedSupremum(req)
	if Compatible(target, agg) {
		req.mode = target
		h.latch.Unlock()
		o.prof.AddSince(profiler.LockMgrWork, workStart)
		return nil
	}
	if req.ready == nil {
		req.ready = make(chan error, 1)
	}
	req.convMode = target
	req.status.Store(statusConverting)
	h.waiters++
	h.latch.Unlock()
	o.prof.AddSince(profiler.LockMgrWork, workStart)
	m.stats.Waits.Add(1)
	return m.waitFor(o, req, true)
}

// waitFor blocks the owner until its request is granted, it is chosen as a
// deadlock victim, or the lock wait times out.
func (m *Manager) waitFor(o *Owner, req *Request, isConversion bool) error {
	o.waiting.Store(req)
	defer o.waiting.Store(nil)
	waitStart := o.prof.Start()

	accept := func(err error) error {
		o.prof.AddSince(profiler.LockWait, waitStart)
		if err != nil {
			return err
		}
		if !isConversion {
			o.cache[req.id] = req
			o.held = append(o.held, req)
		}
		return nil
	}

	check := time.NewTimer(m.cfg.DeadlockCheckEvery)
	defer check.Stop()
	var deadlineC <-chan time.Time
	if m.cfg.LockTimeout > 0 {
		deadline := time.NewTimer(m.cfg.LockTimeout)
		defer deadline.Stop()
		deadlineC = deadline.C
	}

	var tick uint64
	for {
		select {
		case err := <-req.ready:
			return accept(err)
		case <-check.C:
			tick++
			if m.detectDeadlock(o, req, tick) {
				if m.cancelWait(o, req, isConversion) {
					m.stats.Deadlocks.Add(1)
					o.prof.AddSince(profiler.LockWait, waitStart)
					return ErrDeadlock
				}
				// The request was granted while we were cancelling; take it.
				return accept(<-req.ready)
			}
			check.Reset(m.cfg.DeadlockCheckEvery)
		case <-deadlineC:
			if m.cancelWait(o, req, isConversion) {
				m.stats.Timeouts.Add(1)
				o.prof.AddSince(profiler.LockWait, waitStart)
				return ErrLockTimeout
			}
			return accept(<-req.ready)
		}
	}
}

// cancelWait aborts a waiting or converting request. It returns true if the
// cancellation took effect and false if the request was granted first (in
// which case a grant notification is already in req.ready).
func (m *Manager) cancelWait(o *Owner, req *Request, isConversion bool) bool {
	h := req.head
	_, wait := h.latch.Lock()
	if wait > 0 {
		o.prof.Add(profiler.LockMgrContention, wait)
	}
	defer h.latch.Unlock()
	switch req.status.Load() {
	case statusWaiting:
		req.status.Store(statusInvalid)
		h.queue.remove(req)
		h.waiters--
	case statusConverting:
		// Revert to the previously held mode; the transaction keeps the lock
		// it already had and will release it when it aborts.
		req.status.Store(statusGranted)
		req.convMode = NL
		h.waiters--
	default:
		return false // already granted
	}
	m.grantWaiters(h)
	m.table.maybeRemove(h)
	return true
}

// invalidateIncompatible retires every inherited request in h's queue that
// is incompatible with a new request for mode. Must be called with h's latch
// held. The caller (the conflicting requester) performs the unlink, per the
// paper's protocol.
func (m *Manager) invalidateIncompatible(o *Owner, h *lockHead, mode Mode) {
	var doomed []*Request
	h.queue.forEach(func(r *Request) {
		if r.status.Load() != statusInherited {
			return
		}
		if Compatible(mode, r.mode) {
			return
		}
		if r.status.CompareAndSwap(statusInherited, statusInvalid) {
			doomed = append(doomed, r)
			m.stats.SLIInvalidated.Add(1)
		}
	})
	for _, r := range doomed {
		h.queue.remove(r)
	}
}

// release removes a granted request from its lock head and grants any
// waiters that become compatible.
func (m *Manager) release(o *Owner, req *Request) {
	workStart := o.prof.Start()
	h := req.head
	contended, wait := h.latch.Lock()
	if wait > 0 {
		o.prof.Add(profiler.LockMgrContention, wait)
	}
	if contended {
		m.stats.LatchContended.Add(1)
	}
	req.status.Store(statusInvalid)
	h.queue.remove(req)
	m.grantWaiters(h)
	m.table.maybeRemove(h)
	h.latch.Unlock()
	o.prof.AddSince(profiler.LockMgrWork, workStart.Add(wait))
}

// unlinkInvalid unlinks a request that the caller has just transitioned to
// the invalid state. o may be nil; it is used only for profiling attribution.
func (m *Manager) unlinkInvalid(o *Owner, req *Request) {
	h := req.head
	_, wait := h.latch.Lock()
	if o != nil && wait > 0 {
		o.prof.Add(profiler.LockMgrContention, wait)
	}
	h.queue.remove(req)
	m.grantWaiters(h)
	m.table.maybeRemove(h)
	h.latch.Unlock()
}

// grantWaiters re-evaluates h's queue after a release or invalidation,
// satisfying pending conversions first and then waiting requests in FIFO
// order (paper §3.2 and Figure 3). Must be called with h's latch held.
func (m *Manager) grantWaiters(h *lockHead) {
	// Conversions first: they are already holders and block everything else.
	for r := h.queue.head; r != nil; r = r.next {
		if r.status.Load() != statusConverting {
			continue
		}
		agg := h.grantedSupremum(r)
		if Compatible(r.convMode, agg) {
			r.mode = r.convMode
			r.convMode = NL
			r.status.Store(statusGranted)
			h.waiters--
			r.ready <- nil
		}
	}
	// Then new requests, stopping at the first that still cannot be granted
	// so it is not starved by later compatible arrivals.
	for r := h.queue.head; r != nil; r = r.next {
		if r.status.Load() != statusWaiting {
			continue
		}
		agg := h.grantedSupremum(r)
		if !Compatible(r.mode, agg) {
			break
		}
		r.status.Store(statusGranted)
		h.waiters--
		r.ready <- nil
	}
}

// ReleaseAll releases all of o's locks at transaction completion, passing
// SLI-eligible locks to o's agent thread instead of releasing them, and
// retiring any inherited requests the transaction never used.
func (m *Manager) ReleaseAll(o *Owner) {
	if o.finished {
		return
	}
	o.finished = true
	m.stats.Transactions.Add(1)

	m.selectSLICandidates(o)

	// Release youngest-first, mirroring Shore-MT's release order.
	for i := len(o.held) - 1; i >= 0; i-- {
		req := o.held[i]
		if req.sliCandidate {
			req.sliCandidate = false
			if m.inherit(o, req) {
				continue
			}
		}
		m.release(o, req)
	}

	// Inherited requests this transaction never reclaimed are released now:
	// "the transaction simply releases them at commit time along with the
	// locks it did use" (§4.1).
	for _, req := range o.inherited {
		m.discardInherited(o, req)
	}

	if a := o.agent; a != nil && len(o.cache) <= maxRecycledLocks && cap(o.held) <= maxRecycledLocks {
		clear(o.cache)
		clear(o.inherited)
		clear(o.held)
		a.cache, a.inherited, a.held = o.cache, o.inherited, o.held[:0]
	}
	o.held = nil
	o.cache = nil
	o.inherited = nil
}
