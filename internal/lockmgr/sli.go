package lockmgr

import "slidb/internal/profiler"

// This file implements Speculative Lock Inheritance (paper §4): the decision
// of which locks a committing transaction passes to its agent thread
// (selectSLICandidates + inherit), the lock-manager-free reclaim path used by
// the agent's next transaction (reclaim), and retirement of speculations that
// did not pay off (discardInherited; invalidation by conflicting requesters
// lives in Manager.invalidateIncompatible).

// selectSLICandidates evaluates the five eligibility criteria of §4.2 over
// the owner's held locks and returns the set of requests that should be
// inherited rather than released. Criteria 1 (page level or higher), 2 (hot)
// and 3 (shared mode) are evaluated here; criterion 4 (no waiters) and a
// re-check of 2 happen under the lock-head latch in inherit; criterion 5
// (the parent is also eligible) is enforced by requiring the parent — which
// always precedes its children in the acquisition-ordered held list — to
// already be a candidate.
//
// Candidates are marked with Request.sliCandidate, which ReleaseAll clears
// as it consumes them. Nothing is marked when SLI is disabled or the
// transaction ran without an agent.
func (m *Manager) selectSLICandidates(o *Owner) {
	if !m.SLIEnabled() || o.agent == nil || len(o.held) == 0 {
		return
	}
	start := o.prof.Start()

	// o.held is in acquisition order and the lock manager always acquires an
	// object's ancestors before the object itself, so by the time a lock is
	// considered here its parent (if held) has already been classified —
	// criterion 5 can be checked with a single cache lookup, no sorting.
	for _, r := range o.held {
		id := r.id
		if !id.Lvl.CoarserOrEqual(m.cfg.SLIMinLevel) {
			continue // criterion 1: too fine-grained (e.g. row locks)
		}
		hot := r.head.hot.Load()
		if !r.mode.Shared() {
			if hot {
				m.stats.SLIIneligibleMode.Add(1)
			}
			continue // criterion 3: only share-mode locks may be passed on
		}
		if !hot {
			continue // criterion 2: cold locks are not worth tracking
		}
		if parent, ok := id.Parent(); ok {
			pr := o.cache[parent]
			if pr == nil || !pr.sliCandidate {
				m.stats.SLIIneligibleParent.Add(1)
				continue // criterion 5: parent must also be passed on
			}
		}
		r.sliCandidate = true
	}
	o.prof.AddSince(profiler.SLIWork, start)
}

// inherit attempts to pass a granted request to the owner's agent thread
// instead of releasing it. It re-verifies, under the lock-head latch, that
// the lock is still hot and has no waiters (criteria 2 and 4), then flips
// the request from granted to inherited and parks it on the agent.
// It returns false if the lock must be released normally instead.
func (m *Manager) inherit(o *Owner, req *Request) bool {
	start := o.prof.Start()
	h := req.head
	contended, wait := h.latch.Lock()
	if wait > 0 {
		o.prof.Add(profiler.SLIContention, wait)
	}
	if contended {
		m.stats.LatchContended.Add(1)
	}
	ok := false
	switch {
	case h.hasWaiters():
		m.stats.SLIIneligibleWaiter.Add(1) // criterion 4
	case !h.hot.Load():
		// cooled down since the candidate pass; release normally
	case req.status.Load() != statusGranted:
		// cannot happen for requests on the held list, but be defensive
	default:
		if req.status.CompareAndSwap(statusGranted, statusInherited) {
			req.owner.Store(nil)
			req.wasInherited = true
			ok = true
		}
	}
	h.latch.Unlock()
	if ok {
		o.agent.pending = append(o.agent.pending, req)
		m.stats.SLIPassed.Add(1)
	}
	o.prof.AddSince(profiler.SLIWork, start.Add(wait))
	return ok
}

// reclaim is the SLI fast path (§4.1): the transaction finds an inherited
// request in its lock cache and claims it with a single compare-and-swap,
// "without calling into the lock manager, allocating requests, or updating
// latch-protected lock state". If the inherited mode does not cover the
// wanted mode, or the speculation has already been invalidated, the request
// falls back to the normal acquisition path.
func (m *Manager) reclaim(o *Owner, req *Request, want Mode) error {
	start := o.prof.Start()
	if Covers(req.mode, want) {
		if req.status.CompareAndSwap(statusInherited, statusGranted) {
			req.owner.Store(o)
			delete(o.inherited, req.id)
			o.held = append(o.held, req)
			m.stats.SLIReclaimed.Add(1)
			// Inherited locks are hot by construction (criterion 2).
			m.stats.classify(req.id, want, true)
			o.prof.AddSince(profiler.SLIWork, start)
			return nil
		}
	} else {
		// The transaction needs a stronger mode than it inherited; retire the
		// speculation and make a normal (possibly converting) request.
		if req.status.CompareAndSwap(statusInherited, statusInvalid) {
			m.unlinkInvalid(o, req)
			m.stats.SLIInvalidated.Add(1)
		}
	}
	// Speculation failed: either another transaction invalidated the request
	// or we just did. Fall back to a normal acquisition.
	delete(o.cache, req.id)
	delete(o.inherited, req.id)
	o.prof.AddSince(profiler.SLIWork, start)
	return m.lockSlow(o, req.id, want)
}

// discardInherited retires an inherited request that the finishing
// transaction never used. The cost of the release that the previous
// transaction avoided is paid here (and attributed to SLI, as in the
// paper's Figure 10 accounting).
func (m *Manager) discardInherited(o *Owner, req *Request) {
	start := o.prof.Start()
	if req.status.CompareAndSwap(statusInherited, statusInvalid) {
		m.unlinkInvalid(o, req)
		m.stats.SLIDiscarded.Add(1)
	}
	o.prof.AddSince(profiler.SLIWork, start)
}
