package main

import (
	"errors"
	"math/rand"
	"time"

	"slidb"
	"slidb/internal/workload"
)

// window is the measured interval. A transaction is measured when its
// outcome arrives inside it; outcomes of the other phases (warm-up, drain,
// crash) are not. The zero window measures nothing.
type window struct{ start, end time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

// slot is one outstanding transaction of a client. The body wrapper writes
// bodyStart and bodyEnd on the agent goroutine; the client reads them only
// after receiving the outcome, which the engine sends after the body
// returned.
type slot struct {
	seq       int64
	submit    time.Time
	fn        workload.TxFunc
	fut       <-chan error
	busy      bool
	bodyStart int64
	bodyEnd   int64
	body      func(*slidb.Tx) error
}

// client is one closed-loop load generator goroutine: either a blocking
// Exec caller (one slot) or a pipelined ExecAsync caller holding up to
// len(slots) futures.
type client struct {
	id    int
	eng   *slidb.Engine
	gen   workload.Generator
	rng   *rand.Rand
	async bool
	slots []slot
	spans *spanBuf // nil when untraced
	win   window

	seq int64
	// Lifetime outcome counts, across every phase, for the correctness
	// checks: acked counts commits the caller was told about.
	submitted, acked int64

	// Measured-window accounting.
	firstErr error // first unexpected error
	lat      hist  // latencies of completed transactions
	failed   int64
	genNS    int64     // time spent generating inputs, traced runs only
	genCount int64     // transactions whose generation was timed
	lag      []float64 // DurableLag samples, bytes
}

func newClient(id int, eng *slidb.Engine, gen workload.Generator, seed int64, depth int, async bool, traced bool) *client {
	c := &client{id: id, eng: eng, gen: gen, rng: rand.New(rand.NewSource(seed)), async: async}
	if !async {
		depth = 1
	}
	c.slots = make([]slot, depth)
	if traced {
		c.spans = newSpanBuf(1 << 16)
		for i := range c.slots {
			s := &c.slots[i]
			s.body = func(tx *slidb.Tx) error {
				if s.bodyStart == 0 {
					s.bodyStart = nowNS()
				}
				err := s.fn(tx)
				s.bodyEnd = nowNS()
				return err
			}
		}
	}
	return c
}

// setWindow starts a new accounting window for the client.
func (c *client) setWindow(w window) {
	c.win = w
	c.lat = hist{}
	c.failed = 0
	c.genNS, c.genCount, c.lag = 0, 0, nil
}

// run issues transactions until stop or until max more have been issued
// (max < 0: no count limit), then waits for every outstanding one.
func (c *client) run(stop time.Time, max int64) {
	for issued := int64(0); ; {
		progressed := false
		for i := range c.slots {
			if c.slots[i].busy || (max >= 0 && issued >= max) || !time.Now().Before(stop) {
				continue
			}
			c.issue(i)
			issued++
			progressed = true
		}
		if !c.reap() && !progressed {
			return
		}
	}
}

// fill submits up to n transactions on free slots without waiting for any.
func (c *client) fill(n int) {
	for i := range c.slots {
		if n > 0 && !c.slots[i].busy {
			c.issue(i)
			n--
		}
	}
}

// issue generates one transaction and submits it on slot i.
func (c *client) issue(i int) {
	s := &c.slots[i]
	var g0 time.Time
	if c.spans != nil {
		g0 = time.Now()
	}
	_, fn := c.gen.Next(c.rng)
	c.seq++
	s.seq, s.fn, s.busy = c.seq, fn, true
	body := fn
	if c.spans != nil {
		s.bodyStart, s.bodyEnd = 0, 0
		body = s.body
	}
	s.submit = time.Now()
	if c.spans != nil {
		c.genNS += int64(s.submit.Sub(g0))
		c.genCount++
	}
	c.submitted++
	if c.async {
		s.fut = c.eng.ExecAsync(body)
		return
	}
	c.finish(i, c.eng.Exec(body), time.Now())
}

// reap collects finished transactions: every future that has already
// resolved, or else the oldest outstanding one, blocking. It reports false
// when nothing was outstanding.
func (c *client) reap() bool {
	got, oldest := 0, -1
	for i := range c.slots {
		s := &c.slots[i]
		if !s.busy {
			continue
		}
		select {
		case err := <-s.fut:
			c.finish(i, err, time.Now())
			got++
		default:
			if oldest < 0 || s.seq < c.slots[oldest].seq {
				oldest = i
			}
		}
	}
	if got > 0 {
		return true
	}
	if oldest < 0 {
		return false
	}
	c.finish(oldest, <-c.slots[oldest].fut, time.Now())
	return true
}

// finish accounts one outcome. A commit or an expected rollback
// (slidb.Abort) completes the transaction; any other error is a failure.
func (c *client) finish(slotIdx int, err error, at time.Time) {
	s := &c.slots[slotIdx]
	s.busy = false
	ok := true
	switch {
	case err == nil:
		c.acked++
	case errors.Is(err, slidb.Abort):
	default:
		ok = false
	}
	if !c.win.contains(at) {
		return
	}
	if !ok {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
	c.lat.add(at.Sub(s.submit))
	if c.id == 0 && c.lat.n%256 == 0 {
		c.lag = append(c.lag, float64(c.eng.DurableLag()))
	}
	if c.spans != nil && c.spans.wants(s.seq) {
		key := int64(c.id)<<clientKeyBit | s.seq
		tid := int32(c.id*len(c.slots) + slotIdx)
		c.spans.addTx(key, tid, int64(s.submit.Sub(epoch)), s.bodyStart, s.bodyEnd, int64(at.Sub(epoch)))
	}
}
