package lockmgr

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slidb/internal/profiler"
)

// TestContendedLatchWaitCountedOnce pins that a contended lock-head latch
// wait is attributed to LockMgrContention only, not also to LockMgrWork:
// the two categories together can never exceed the acquisition's wall time.
// The test holds the head's latch itself, so the acquisition is contended
// for certain, on both the new-request path and the conversion path.
func TestContendedLatchWaitCountedOnce(t *testing.T) {
	for _, conversion := range []bool{false, true} {
		t.Run(fmt.Sprintf("conversion=%v", conversion), func(t *testing.T) {
			m := newTestManager(false)
			p := profiler.New(true)
			h := p.NewHandle()
			tbl := TableLock(1, 70)
			o := m.NewOwner(nil, h)
			if conversion {
				mustLock(t, o, tbl, IS)
			}
			head := m.table.findOrCreate(tbl)
			head.latch.Lock()
			contendedBefore := head.latch.Stats().Contended.Load()
			h.Reset()

			done := make(chan error, 1)
			var wall time.Duration
			go func() {
				start := time.Now()
				err := o.Lock(tbl, IX)
				wall = time.Since(start)
				done <- err
			}()
			deadline := time.Now().Add(5 * time.Second)
			for head.latch.Stats().Contended.Load() == contendedBefore {
				if time.Now().After(deadline) {
					t.Fatal("the acquisition never contended on the held latch")
				}
				runtime.Gosched()
			}
			time.Sleep(10 * time.Millisecond) // make the wait dominate
			head.latch.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			o.ReleaseAll()

			b := h.Snapshot()
			work, cont := b.Get(profiler.LockMgrWork), b.Get(profiler.LockMgrContention)
			if cont < 10*time.Millisecond {
				t.Fatalf("LockMgrContention = %v, want the ≥10ms latch wait", cont)
			}
			// ReleaseAll's work is included in the snapshot but not in wall;
			// it is microseconds against a 10ms wait.
			if work+cont > wall+time.Millisecond {
				t.Fatalf("LockMgrWork %v + LockMgrContention %v > wall %v: the latch wait is counted twice", work, cont, wall)
			}
		})
	}
}

// hotTableSetup returns a manager with SLI on and a table (and its
// database) forced hot, so every release of them is inherited.
func hotTableSetup() (*Manager, LockID) {
	m := newTestManager(true)
	tbl := TableLock(1, 80)
	m.ForceHot(DatabaseLock(1))
	m.ForceHot(tbl)
	return m, tbl
}

// TestSLISteadyStateAllocs pins the allocation profile of the SLI fast
// paths at run time: a cache hit and a reclaim allocate nothing, and a new
// transaction on an agent allocates only its Owner.
func TestSLISteadyStateAllocs(t *testing.T) {
	t.Run("cache-hit", func(t *testing.T) {
		m, tbl := hotTableSetup()
		o := m.NewOwner(m.NewAgent(), nil)
		mustLock(t, o, tbl, IS)
		allocs := testing.AllocsPerRun(100, func() {
			if err := o.Lock(tbl, IS); err != nil {
				t.Fatal(err)
			}
		})
		o.ReleaseAll()
		if allocs != 0 {
			t.Fatalf("cache-hit Lock allocates %v, want 0", allocs)
		}
	})
	t.Run("new-owner", func(t *testing.T) {
		m := newTestManager(true)
		agent := m.NewAgent()
		m.NewOwner(agent, nil).ReleaseAll() // first owner allocates the maps
		allocs := testing.AllocsPerRun(100, func() {
			m.NewOwner(agent, nil).ReleaseAll()
		})
		if allocs != 1 {
			t.Fatalf("NewOwner on an agent allocates %v, want 1 (the Owner)", allocs)
		}
	})
	t.Run("reclaim", func(t *testing.T) {
		m, tbl := hotTableSetup()
		agent := m.NewAgent()
		cycle := func() {
			o := m.NewOwner(agent, nil)
			if err := o.Lock(tbl, IS); err != nil {
				t.Fatal(err)
			}
			o.ReleaseAll()
		}
		cycle() // inherits the table and database locks
		before := m.Stats().Snapshot().SLIReclaimed
		allocs := testing.AllocsPerRun(100, cycle)
		// AllocsPerRun runs the function once more as a warm-up.
		if got := m.Stats().Snapshot().SLIReclaimed - before; got != 2*101 {
			t.Fatalf("SLIReclaimed grew by %d over 101 cycles, want %d: not the steady state", got, 2*101)
		}
		// The Owner is the cycle's only allocation: reclaiming the two
		// inherited locks and inheriting them again allocate nothing.
		if allocs != 1 {
			t.Fatalf("a reclaiming transaction allocates %v, want 1 (the Owner)", allocs)
		}
	})
}

// TestAgentRecyclesOwnerMaps checks the hand-over of lock bookkeeping from
// one owner to the agent's next: the maps arrive empty except for the
// inherited locks, and a map that outgrew maxRecycledLocks is dropped.
func TestAgentRecyclesOwnerMaps(t *testing.T) {
	m, tbl := hotTableSetup()
	agent := m.NewAgent()
	o := m.NewOwner(agent, nil)
	mustLock(t, o, tbl, IS)
	mustLock(t, o, RecordLock(1, 80, 1, 1), S)
	o.ReleaseAll()
	if agent.cache == nil || len(agent.cache) != 0 || len(agent.inherited) != 0 || len(agent.held) != 0 {
		t.Fatalf("agent kept cache=%v inherited=%v held=%v, want empty recycled maps", agent.cache, agent.inherited, agent.held)
	}
	o = m.NewOwner(agent, nil)
	if agent.cache != nil {
		t.Fatal("NewOwner left the recycled maps on the agent")
	}
	if got := o.InheritedCount(); got != 2 {
		t.Fatalf("new owner seeded with %d inherited locks, want 2", got)
	}
	if o.HeldMode(RecordLock(1, 80, 1, 1)) != NL {
		t.Fatal("record lock of the previous owner leaked through the recycled cache")
	}
	for i := 0; i <= maxRecycledLocks; i++ {
		mustLock(t, o, RecordLock(1, 80, 2, uint32(i)), S)
	}
	o.ReleaseAll()
	if agent.cache != nil || agent.held != nil {
		t.Fatal("maps past maxRecycledLocks were recycled")
	}
	m.SetSLI(false)
	m.NewOwner(agent, nil).ReleaseAll()
	if n := m.ActiveLocks(); n != 0 {
		t.Fatalf("%d lock heads leaked", n)
	}
}

// TestRecycledMapsUnderDeadlockAndInvalidation races the recycling of one
// agent's maps against a conflicting writer on another agent. In every round
// agent A inherits a hot table lock, then its next transaction deadlocks
// with agent B, which on the way invalidates A's inherited lock by taking
// the table exclusively. Whichever side is the victim rolls back —
// ReleaseAll recycles its maps — while the other side is still running.
func TestRecycledMapsUnderDeadlockAndInvalidation(t *testing.T) {
	m := newTestManager(true)
	db := DatabaseLock(1)
	hot := TableLock(1, 90)
	ra, rb := RecordLock(1, 91, 1, 1), RecordLock(1, 91, 1, 2)
	agentA, agentB := m.NewAgent(), m.NewAgent()
	const rounds = 20
	var deadlocks atomic.Int64
	for i := 0; i < rounds; i++ {
		// The window cools with every uncontended acquisition; re-heat it.
		m.ForceHot(db)
		m.ForceHot(hot)
		runXct(t, m, agentA, func(o *Owner) error { return o.Lock(hot, IS) })
		if agentA.PendingInherited() == 0 {
			t.Fatalf("round %d: agent A inherited nothing", i)
		}
		oa := m.NewOwner(agentA, nil) // takes A's recycled maps
		ob := m.NewOwner(agentB, nil)
		mustLock(t, oa, ra, X)
		mustLock(t, ob, rb, X)
		invalidated := m.Stats().Snapshot().SLIInvalidated

		var wg sync.WaitGroup
		errs := make(chan error, 2)
		run := func(o *Owner, locks ...LockID) {
			defer wg.Done()
			defer o.ReleaseAll()
			for _, id := range locks {
				if err := o.Lock(id, X); err != nil {
					if errors.Is(err, ErrDeadlock) {
						deadlocks.Add(1)
						return
					}
					errs <- err
					return
				}
			}
		}
		wg.Add(2)
		go func() { run(oa, rb) }()
		go func() { run(ob, hot, ra) }() // invalidates A's inherited hot-table IS
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", i, err)
		}
		if m.Stats().Snapshot().SLIInvalidated == invalidated {
			t.Fatalf("round %d: B's exclusive table lock invalidated nothing", i)
		}
		if agentA.cache == nil {
			t.Fatalf("round %d: agent A's maps were not recycled", i)
		}
	}
	if got := deadlocks.Load(); got < rounds {
		t.Fatalf("%d deadlock victims over %d rounds, want one per round", got, rounds)
	}
	m.SetSLI(false)
	runXct(t, m, agentA, nil)
	runXct(t, m, agentB, nil)
	if n := m.ActiveLocks(); n != 0 {
		t.Fatalf("%d lock heads leaked", n)
	}
}

// BenchmarkHotLockCycle is the lock manager's own cost with and without
// SLI: every goroutine owns an agent and runs transactions that take a
// table IS, page IS and record S lock on one shared hot table and release
// them. With SLI the table and page locks (and the database lock above
// them) are inherited and reclaimed; without it each is a full
// acquire/release through the latched lock heads.
func BenchmarkHotLockCycle(b *testing.B) {
	for _, sli := range []bool{false, true} {
		b.Run(fmt.Sprintf("sli=%v", sli), func(b *testing.B) {
			m := New(Config{SLI: sli})
			tbl := TableLock(1, 1)
			page := PageLock(1, 1, 1)
			rec := RecordLock(1, 1, 1, 1)
			m.ForceHot(DatabaseLock(1))
			m.ForceHot(tbl)
			m.ForceHot(page)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				agent := m.NewAgent()
				for pb.Next() {
					o := m.NewOwner(agent, nil)
					if err := o.Lock(tbl, IS); err != nil {
						b.Error(err)
						return
					}
					if err := o.Lock(page, IS); err != nil {
						b.Error(err)
						return
					}
					if err := o.Lock(rec, S); err != nil {
						b.Error(err)
						return
					}
					o.ReleaseAll()
				}
			})
		})
	}
}
