package lockmgr

import (
	"errors"
	"sync"
	"testing"
	"time"

	"slidb/internal/profiler"
)

// runXct executes body as one transaction on the given agent and completes
// it (ReleaseAll), mirroring how an agent thread drives transactions.
func runXct(t *testing.T, m *Manager, a *Agent, body func(o *Owner) error) {
	t.Helper()
	o := m.NewOwner(a, nil)
	if body != nil {
		if err := body(o); err != nil {
			t.Fatalf("transaction body: %v", err)
		}
	}
	o.ReleaseAll()
}

func TestSLIInheritsHotSharedTableLock(t *testing.T) {
	m := newTestManager(true)
	tbl := TableLock(1, 1)
	db := DatabaseLock(1)
	m.ForceHot(tbl)
	m.ForceHot(db)
	agent := m.NewAgent()

	runXct(t, m, agent, func(o *Owner) error { return o.Lock(tbl, IS) })

	if got := agent.PendingInherited(); got != 2 {
		t.Fatalf("pending inherited = %d, want 2 (table + database)", got)
	}
	s := m.Stats().Snapshot()
	if s.SLIPassed != 2 {
		t.Fatalf("SLIPassed = %d, want 2", s.SLIPassed)
	}
	// The inherited requests keep the lock heads alive in the lock table.
	if m.ActiveLocks() < 2 {
		t.Fatalf("inherited requests should keep lock heads alive, got %d", m.ActiveLocks())
	}
}

func TestSLIReclaimBySameAgent(t *testing.T) {
	m := newTestManager(true)
	tbl := TableLock(1, 2)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()

	runXct(t, m, agent, func(o *Owner) error { return o.Lock(tbl, IS) })
	passed := m.Stats().Snapshot().SLIPassed
	if passed == 0 {
		t.Fatal("no locks inherited by agent")
	}

	// The next transaction on the same agent reuses the inherited lock
	// without a lock-manager acquisition.
	o := m.NewOwner(agent, nil)
	if o.InheritedCount() == 0 {
		t.Fatal("new transaction was not seeded with inherited locks")
	}
	if err := o.Lock(tbl, IS); err != nil {
		t.Fatal(err)
	}
	s := m.Stats().Snapshot()
	if s.SLIReclaimed == 0 {
		t.Fatal("reclaim did not happen")
	}
	if o.HeldMode(tbl) != IS {
		t.Fatalf("held mode = %v, want IS", o.HeldMode(tbl))
	}
	o.ReleaseAll()
}

func TestSLIDiscardUnusedInheritedLocks(t *testing.T) {
	m := newTestManager(true)
	tbl := TableLock(1, 3)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(tbl, IS) })
	if agent.PendingInherited() == 0 {
		t.Fatal("nothing inherited")
	}

	// Next transaction never touches the table: the inherited table lock must
	// be released at its commit ("the transaction simply releases them at
	// commit time along with the locks it did use"). The database lock, by
	// contrast, is reused (it is the parent of every table) and is legitimately
	// inherited again.
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(TableLock(1, 99), IS) })
	s := m.Stats().Snapshot()
	if s.SLIDiscarded == 0 {
		t.Fatal("unused inherited locks were not discarded")
	}
	for _, r := range agent.pending {
		if r.id == tbl && r.status.Load() == statusInherited {
			t.Fatal("unused table lock is still parked on the agent")
		}
	}
}

func TestSLIInvalidationByConflictingRequest(t *testing.T) {
	m := newTestManager(true)
	tbl := TableLock(1, 4)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(tbl, IS) })
	if agent.PendingInherited() == 0 {
		t.Fatal("nothing inherited")
	}

	// Another transaction (different agent) requests the table exclusively.
	// It must not block behind the speculative inherited request: it
	// invalidates it and proceeds.
	other := m.NewOwner(nil, nil)
	done := make(chan error, 1)
	go func() { done <- other.Lock(tbl, X) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("exclusive request blocked behind an inherited (unclaimed) lock")
	}
	if m.Stats().Snapshot().SLIInvalidated == 0 {
		t.Fatal("invalidation not recorded")
	}
	other.ReleaseAll()

	// The inheriting agent's next transaction cannot reclaim; it falls back
	// to a normal request and still succeeds.
	o := m.NewOwner(agent, nil)
	if err := o.Lock(tbl, IS); err != nil {
		t.Fatal(err)
	}
	if o.HeldMode(tbl) != IS {
		t.Fatalf("mode = %v, want IS", o.HeldMode(tbl))
	}
	o.ReleaseAll()
}

func TestSLIReclaimNeedsStrongerModeFallsBack(t *testing.T) {
	m := newTestManager(true)
	tbl := TableLock(1, 5)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(tbl, IS) })

	// Next transaction needs IX (stronger than the inherited IS): the
	// speculation is retired and a fresh request made.
	o := m.NewOwner(agent, nil)
	if err := o.Lock(tbl, IX); err != nil {
		t.Fatal(err)
	}
	if o.HeldMode(tbl) != IX {
		t.Fatalf("mode = %v, want IX", o.HeldMode(tbl))
	}
	s := m.Stats().Snapshot()
	if s.SLIInvalidated == 0 {
		t.Fatal("incompatible reclaim should invalidate the inherited request")
	}
	if s.SLIReclaimed != 0 {
		t.Fatal("stronger-mode request must not be counted as a successful reclaim")
	}
	o.ReleaseAll()
}

func TestSLIRowLocksNeverInherited(t *testing.T) {
	m := newTestManager(true)
	rec := RecordLock(1, 6, 1, 1)
	// Make everything hot, including the record.
	m.ForceHot(rec)
	m.ForceHot(PageLock(1, 6, 1))
	m.ForceHot(TableLock(1, 6))
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(rec, S) })

	for _, r := range agent.pending {
		if r.id.Level() == LevelRecord {
			t.Fatal("row-level lock was inherited (violates criterion 1)")
		}
	}
	if agent.PendingInherited() == 0 {
		t.Fatal("page/table/database locks should still be inherited")
	}
}

func TestSLIExclusiveLocksNeverInherited(t *testing.T) {
	m := newTestManager(true)
	tbl := TableLock(1, 7)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()
	// An explicit X table lock must never be inherited. (Its automatically
	// acquired IX parent lock on the database is heritable and may be passed.)
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(tbl, X) })
	for _, r := range agent.pending {
		if r.id == tbl {
			t.Fatal("exclusive table lock was inherited (violates criterion 3)")
		}
	}
	if m.Stats().Snapshot().SLIIneligibleMode == 0 {
		t.Fatal("ineligible-mode counter not incremented")
	}
}

func TestSLIColdLocksNotInherited(t *testing.T) {
	m := newTestManager(true)
	agent := m.NewAgent()
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(TableLock(1, 8), IS) })
	if agent.PendingInherited() != 0 {
		t.Fatal("cold lock was inherited (violates criterion 2)")
	}
}

func TestSLINotAppliedWhenWaiterPresent(t *testing.T) {
	m := newTestManager(true)
	tbl := TableLock(1, 9)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()

	o := m.NewOwner(agent, nil)
	if err := o.Lock(tbl, S); err != nil {
		t.Fatal(err)
	}
	// A writer queues up behind the S lock.
	writer := m.NewOwner(nil, nil)
	wDone := make(chan error, 1)
	go func() { wDone <- writer.Lock(tbl, X) }()
	time.Sleep(20 * time.Millisecond)

	// Committing now must NOT inherit the S table lock (criterion 4) —
	// otherwise the writer would stay blocked behind an idle agent.
	o.ReleaseAll()
	select {
	case err := <-wDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("writer stayed blocked: S lock was inherited despite a waiter")
	}
	if m.Stats().Snapshot().SLIIneligibleWaiter == 0 {
		t.Fatal("ineligible-waiter counter not incremented")
	}
	writer.ReleaseAll()
}

func TestSLIParentRule(t *testing.T) {
	m := newTestManager(true)
	// The page is hot but its table is not: the page lock must not be
	// inherited (criterion 5), because that would orphan it.
	pg := PageLock(1, 10, 1)
	m.ForceHot(pg)
	agent := m.NewAgent()
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(pg, IS) })
	if agent.PendingInherited() != 0 {
		t.Fatal("page lock inherited although its parent table lock is not eligible")
	}
	if m.Stats().Snapshot().SLIIneligibleParent == 0 {
		t.Fatal("ineligible-parent counter not incremented")
	}
}

func TestSLIDisabledNothingInherited(t *testing.T) {
	m := newTestManager(false)
	tbl := TableLock(1, 11)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(tbl, IS) })
	if agent.PendingInherited() != 0 {
		t.Fatal("locks inherited although SLI is disabled")
	}
	if m.Stats().Snapshot().SLIPassed != 0 {
		t.Fatal("SLIPassed counter incremented with SLI disabled")
	}
}

func TestSLIDisableWithPendingInheritedDrains(t *testing.T) {
	m := newTestManager(true)
	tbl := TableLock(1, 12)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()
	runXct(t, m, agent, func(o *Owner) error { return o.Lock(tbl, IS) })
	if agent.PendingInherited() == 0 {
		t.Fatal("nothing inherited")
	}
	m.SetSLI(false)
	// Starting the next transaction retires the parked inheritances.
	o := m.NewOwner(agent, nil)
	o.ReleaseAll()
	if agent.PendingInherited() != 0 {
		t.Fatal("pending inherited locks not drained after disabling SLI")
	}
	if m.ActiveLocks() != 0 {
		t.Fatalf("lock table still has %d heads", m.ActiveLocks())
	}
}

// TestSLIInducedDeadlockAvoided reproduces the Figure 4 scenario: agent T1
// inherits L1 from a previous transaction, then T1's next transaction locks
// L2 before (re)claiming L1 while T2 locks L2 then L1 in the natural order.
// Because an exclusive request invalidates the unclaimed inheritance, no
// deadlock may occur.
func TestSLIInducedDeadlockAvoided(t *testing.T) {
	m := newTestManager(true)
	l1 := TableLock(1, 21)
	l2 := TableLock(1, 22)
	m.ForceHot(l1)
	m.ForceHot(DatabaseLock(1))

	agentT1 := m.NewAgent()
	// A previous transaction on T1 uses L1 in shared mode; L1 is inherited.
	runXct(t, m, agentT1, func(o *Owner) error { return o.Lock(l1, IS) })
	if agentT1.PendingInherited() == 0 {
		t.Fatal("precondition failed: L1 not inherited")
	}

	// T1's next transaction will lock L2 then (only later) L1 — the reversed
	// order Figure 4 warns about. T2 locks L2 exclusively then L1 exclusively.
	t1 := m.NewOwner(agentT1, nil)
	t2 := m.NewOwner(nil, nil)

	if err := t2.Lock(l2, X); err != nil {
		t.Fatal(err)
	}
	// T1 blocks on L2 (held by T2).
	t1Done := make(chan error, 1)
	go func() { t1Done <- t1.Lock(l2, S) }()
	time.Sleep(20 * time.Millisecond)

	// T2 now requests L1 exclusively. Without invalidation this would
	// deadlock: T2 waits on the inherited L1 while T1 waits on L2. With SLI's
	// invalidation rule, T2's X request retires the speculation and proceeds.
	if err := t2.Lock(l1, X); err != nil {
		t.Fatalf("T2 could not acquire L1: %v (SLI-induced deadlock?)", err)
	}
	t2.ReleaseAll()

	if err := <-t1Done; err != nil {
		t.Fatalf("T1 lock on L2 failed: %v", err)
	}
	// T1 can still take L1 normally afterwards.
	if err := t1.Lock(l1, S); err != nil {
		t.Fatal(err)
	}
	t1.ReleaseAll()
	if m.Stats().Snapshot().Deadlocks != 0 {
		t.Fatal("a deadlock occurred; SLI invalidation should have prevented it")
	}
}

// TestSLIContendedThroughputBehaviour runs many agents against one hot table
// and checks that with SLI enabled the lock manager sees far fewer slow-path
// acquisitions for the table lock than without SLI — the mechanism behind
// the paper's Figure 10/11 results.
func TestSLIContendedThroughputBehaviour(t *testing.T) {
	run := func(sli bool) (slowPath uint64) {
		m := newTestManager(sli)
		tbl := TableLock(1, 30)
		m.ForceHot(tbl)
		m.ForceHot(DatabaseLock(1))
		const agents = 8
		const xctsPerAgent = 200
		var wg sync.WaitGroup
		for a := 0; a < agents; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				agent := m.NewAgent()
				for i := 0; i < xctsPerAgent; i++ {
					o := m.NewOwner(agent, nil)
					if err := o.Lock(tbl, IS); err != nil {
						t.Error(err)
					}
					o.ReleaseAll()
				}
			}()
		}
		wg.Wait()
		s := m.Stats().Snapshot()
		// Slow-path acquisitions = total acquisitions - reclaimed.
		return s.TotalAcquires() - s.SLIReclaimed
	}
	base := run(false)
	withSLI := run(true)
	if withSLI >= base {
		t.Fatalf("SLI did not reduce lock-manager acquisitions: base=%d sli=%d", base, withSLI)
	}
}

func TestSLIProfilerAttribution(t *testing.T) {
	m := newTestManager(true)
	p := profiler.New(true)
	h := p.NewHandle()
	tbl := TableLock(1, 41)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()

	o := m.NewOwner(agent, h)
	if err := o.Lock(tbl, IS); err != nil {
		t.Fatal(err)
	}
	o.ReleaseAll()
	o = m.NewOwner(agent, h)
	if err := o.Lock(tbl, IS); err != nil {
		t.Fatal(err)
	}
	o.ReleaseAll()

	b := p.Aggregate()
	if b.Get(profiler.LockMgrWork) == 0 {
		t.Fatal("no lock-manager work recorded")
	}
	if b.Get(profiler.SLIWork) == 0 {
		t.Fatal("no SLI work recorded despite inheritance and reclaim")
	}
}

func TestAgentPendingInheritedNilSafe(t *testing.T) {
	var a *Agent
	if a.PendingInherited() != 0 {
		t.Fatal("nil agent must report zero pending inherited locks")
	}
}

func TestSLIRoundTripManyTransactions(t *testing.T) {
	// Long chain of transactions on one agent alternating between using and
	// ignoring the hot table; the lock table must never leak requests.
	m := newTestManager(true)
	hotTbl := TableLock(1, 50)
	coldTbl := TableLock(1, 51)
	m.ForceHot(hotTbl)
	m.ForceHot(DatabaseLock(1))
	agent := m.NewAgent()
	for i := 0; i < 200; i++ {
		o := m.NewOwner(agent, nil)
		var err error
		if i%3 == 0 {
			err = o.Lock(coldTbl, IS)
		} else {
			err = o.Lock(hotTbl, IS)
		}
		if err != nil {
			t.Fatal(err)
		}
		o.ReleaseAll()
	}
	s := m.Stats().Snapshot()
	if s.SLIPassed == 0 || s.SLIReclaimed == 0 || s.SLIDiscarded == 0 {
		t.Fatalf("expected a mix of SLI outcomes, got %+v", s)
	}
	// Drain the last pending inheritance and verify nothing leaked.
	m.SetSLI(false)
	o := m.NewOwner(agent, nil)
	o.ReleaseAll()
	if m.ActiveLocks() != 0 {
		t.Fatalf("%d lock heads leaked", m.ActiveLocks())
	}
}

func TestSLIConcurrentAgentsWithWriterMix(t *testing.T) {
	// Several agents read a hot table via SLI while occasional writers take
	// the table exclusively. Exercises invalidation racing against reclaim.
	m := newTestManager(true)
	tbl := TableLock(1, 60)
	m.ForceHot(tbl)
	m.ForceHot(DatabaseLock(1))
	// Writers start only once every agent has run a few transactions alone.
	// A reader whose release finds a writer queued must not inherit
	// (criterion 4), and on a loaded machine every release of the mixed
	// phase can find one; the warm-up makes the inheritance asserted below
	// certain while the mixed phase still races writers against reclaim.
	const agents, warmup = 6, 10
	var warm sync.WaitGroup
	warm.Add(agents)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			agent := m.NewAgent()
			for i := 0; i < 300; i++ {
				o := m.NewOwner(agent, nil)
				if err := o.Lock(tbl, IS); err != nil {
					errCh <- err
				}
				o.ReleaseAll()
				if i == warmup-1 {
					warm.Done()
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm.Wait()
			for i := 0; i < 20; i++ {
				o := m.NewOwner(nil, nil)
				if err := o.Lock(tbl, X); err != nil && !errors.Is(err, ErrDeadlock) {
					errCh <- err
				}
				time.Sleep(time.Millisecond)
				o.ReleaseAll()
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s := m.Stats().Snapshot()
	if s.SLIPassed == 0 {
		t.Fatal("no inheritance happened under concurrent load")
	}
	// Invalidation by a writer is timing-dependent here (the deterministic
	// case is covered by TestSLIInvalidationByConflictingRequest); what must
	// hold is that every speculation was eventually resolved one way or
	// another rather than leaking.
	if resolved := s.SLIReclaimed + s.SLIInvalidated + s.SLIDiscarded; resolved == 0 {
		t.Fatal("no SLI speculation was ever resolved")
	}
}
