package lockmgr

import (
	"sync/atomic"
)

// Request status values. Transitions are documented next to each status; the
// interesting ones for SLI are granted → inherited (at release time, under
// the lock-head latch), inherited → granted (reclaim by the next transaction
// on the agent, a single compare-and-swap with no latch — the "fast path" of
// paper §4.1), and inherited → invalid (a conflicting requester or the
// owning agent retires the speculation).
const (
	// statusWaiting: the request is queued behind incompatible holders.
	statusWaiting int32 = iota
	// statusConverting: the owner already holds the lock in req.mode and is
	// waiting to upgrade it to req.convMode.
	statusConverting
	// statusGranted: the request is granted; the owner holds mode req.mode.
	statusGranted
	// statusInherited: the request was passed by a committing transaction to
	// its agent thread and awaits reclaim by the agent's next transaction.
	statusInherited
	// statusInvalid: the request is logically removed; it either has been or
	// is about to be unlinked from the queue by whichever actor made it
	// invalid.
	statusInvalid
)

func statusName(s int32) string {
	switch s {
	case statusWaiting:
		return "waiting"
	case statusConverting:
		return "converting"
	case statusGranted:
		return "granted"
	case statusInherited:
		return "inherited"
	case statusInvalid:
		return "invalid"
	default:
		return "unknown"
	}
}

// Request represents one transaction's (or, while inherited, one agent's)
// interest in a lock. Requests are linked into their lock head's FIFO queue;
// all structural queue changes happen under the lock-head latch, while the
// status field is manipulated with atomic operations so that SLI reclaim can
// bypass the latch entirely.
type Request struct {
	id   LockID
	head *lockHead

	// owner is the transaction currently holding or waiting for the lock.
	// It is nil while the request is inherited (owned by an agent thread)
	// and is only read for deadlock detection and debugging; it is written
	// under the lock-head latch or before the request is published.
	owner atomic.Pointer[Owner]

	// agent is the agent thread whose transactions have used this request.
	// It is set when the request is created and never changes; it is used
	// for SLI bookkeeping and statistics.
	agent *Agent

	// mode is the currently granted mode (for granted/converting/inherited
	// requests) or the requested mode (for waiting requests). It is written
	// only under the lock-head latch or before the request is published,
	// with one exception: the owner reading its own granted request.
	mode Mode

	// convMode is the target mode of an in-progress conversion; only
	// meaningful while status == statusConverting.
	convMode Mode

	status atomic.Int32

	// ready delivers the grant (nil) or an abort error to a waiting owner.
	// Buffered so granters never block.
	ready chan error

	// wasInherited records that this request was at some point passed via
	// SLI, for Figure 9 accounting of discarded (inherited but unused)
	// requests.
	wasInherited bool

	// sliCandidate marks a held request that the releasing owner's SLI
	// candidate pass chose to inherit. It is owner-private: set and cleared
	// inside one ReleaseAll, so it is false whenever no ReleaseAll runs.
	sliCandidate bool

	prev, next *Request
}

// newRequest allocates a request for owner o on head h.
func newRequest(h *lockHead, o *Owner, mode Mode, status int32) *Request {
	r := &Request{id: h.id, head: h, agent: o.agent, mode: mode}
	r.owner.Store(o)
	r.status.Store(status)
	if status == statusWaiting || status == statusConverting {
		r.ready = make(chan error, 1)
	}
	return r
}

// Mode returns the currently granted (or requested) mode.
func (r *Request) Mode() Mode { return r.mode }

// ID returns the lock this request refers to.
func (r *Request) ID() LockID { return r.id }

// Status returns the request's current status name, for debugging and tests.
func (r *Request) Status() string { return statusName(r.status.Load()) }

// requestQueue is an intrusive doubly-linked FIFO list of requests. All
// mutations require the enclosing lock head's latch.
type requestQueue struct {
	head, tail *Request
	len        int
}

// pushBack appends r to the queue.
func (q *requestQueue) pushBack(r *Request) {
	r.prev = q.tail
	r.next = nil
	if q.tail != nil {
		q.tail.next = r
	} else {
		q.head = r
	}
	q.tail = r
	q.len++
}

// remove unlinks r from the queue. It is idempotent for requests that have
// already been unlinked (their links are nil and they are not the head).
func (q *requestQueue) remove(r *Request) {
	if r.prev == nil && r.next == nil && q.head != r {
		return // already unlinked
	}
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		q.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		q.tail = r.prev
	}
	r.prev, r.next = nil, nil
	q.len--
}

// empty reports whether the queue has no requests.
func (q *requestQueue) empty() bool { return q.head == nil }

// forEach calls fn for every request in FIFO order. fn must not modify the
// queue; use collect-then-mutate patterns for removal during iteration.
func (q *requestQueue) forEach(fn func(*Request)) {
	for r := q.head; r != nil; r = r.next {
		fn(r)
	}
}
