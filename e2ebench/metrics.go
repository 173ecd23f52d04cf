package main

import (
	"time"

	"slidb/internal/profiler"
)

// layerMetrics computes the per-layer metrics of a traced run from the
// counter deltas over its measured interval, its spans, and its set-up and
// recovery timings. Per-transaction figures divide by the transactions
// completed (committed or rolled back as expected) in the interval.
func (b *bench) layerMetrics(m measured, overhead float64) []metric {
	tx := float64(m.completed)
	per := func(v float64) float64 {
		if tx == 0 {
			return 0
		}
		return v / tx
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	n := int(m.completed)
	prof := m.after.prof.Sub(m.before.prof)
	us := func(cs ...profiler.Category) float64 {
		var d time.Duration
		for _, c := range cs {
			d += prof.Get(c)
		}
		return per(float64(d) / 1e3)
	}
	lk := m.after.lock.Diff(m.before.lock)
	tl, tl0 := m.after.tail, m.before.tail
	cycles := float64(tl.FlushCycles - tl0.FlushCycles)
	buf, buf0 := m.after.buf, m.before.buf
	hits, misses := float64(buf.Hits-buf0.Hits), float64(buf.Misses-buf0.Misses)
	elapsed := m.after.at.Sub(m.before.at).Seconds()

	queue := spanHist(b.res.spans, spanQueue)
	body := spanHist(b.res.spans, spanBody)
	commit := spanHist(b.res.spans, spanCommit)
	recS := median(b.recs)
	setupS := func(f func(setupTiming) float64) float64 { return median(b.setupField(f)) }

	return []metric{
		{"lat_p99_us", "us", m.p99, n},
		{"core.queue_us_p50", "us", queue.percentileUS(50), int(queue.n)},
		{"core.body_us_p50", "us", body.percentileUS(50), int(body.n)},
		{"core.commit_us_p50", "us", commit.percentileUS(50), int(commit.n)},
		{"core.commit_us_p99", "us", commit.percentileUS(99), int(commit.n)},
		{"core.cpu_us_per_tx", "us/tx", per(float64(m.after.cpu-m.before.cpu) / 1e3), n},
		{"core.alloc_bytes_per_tx", "B/tx", per(m.after.alloc - m.before.alloc), n},
		{"core.gc_cpu_fraction", "ratio", ratio(m.after.gcCPU-m.before.gcCPU, m.after.totalCPU-m.before.totalCPU), 1},

		{"lockmgr.acquires_per_tx", "1/tx", per(float64(lk.TotalAcquires())), n},
		{"lockmgr.latch_contended_per_ktx", "1/ktx", 1000 * per(float64(lk.LatchContended)), n},
		{"lockmgr.sli_passed_per_tx", "1/tx", per(float64(lk.SLIPassed)), n},
		{"lockmgr.sli_reclaim_ratio", "ratio", ratio(float64(lk.SLIReclaimed), float64(lk.SLIPassed)), int(lk.SLIPassed)},
		{"lockmgr.work_us_per_tx", "us/tx", us(profiler.LockMgrWork, profiler.LockMgrContention), n},
		{"lockmgr.sli_us_per_tx", "us/tx", us(profiler.SLIWork, profiler.SLIContention), n},
		{"lockmgr.waits_per_ktx", "1/ktx", 1000 * per(float64(lk.Waits)), n},
		{"lockmgr.deadlocks_per_ktx", "1/ktx", 1000 * per(float64(lk.Deadlocks)), n},
		{"lockmgr.lock_wait_us_per_tx", "us/tx", us(profiler.LockWait), n},

		{"wal.tx_per_flush", "tx/flush", ratio(tx, cycles), int(cycles)},
		{"wal.flush_cycles_per_s", "1/s", ratio(cycles, elapsed), int(cycles)},
		{"wal.writes_per_cycle", "1/flush", ratio(float64(tl.SinkWrites-tl0.SinkWrites), cycles), int(cycles)},
		{"wal.avg_window_us", "us", 1e6 * ratio(tl.WindowWaitSeconds-tl0.WindowWaitSeconds, float64(tl.WindowedCycles-tl0.WindowedCycles)), int(tl.WindowedCycles - tl0.WindowedCycles)},
		{"wal.flush_wait_us_per_tx", "us/tx", us(profiler.LogFlush), n},
		{"wal.durable_lag_bytes", "B", m.lag, m.lagN},
		{"wal.append_us_per_tx", "us/tx", us(profiler.LogWork), n},
		{"wal.reserve_wait_us_per_tx", "us/tx", per(1e6 * (tl.ReserveWaitSeconds - tl0.ReserveWaitSeconds)), n},
		{"wal.fence_wait_us_per_tx", "us/tx", per(1e6 * (tl.FenceWaitSeconds - tl0.FenceWaitSeconds)), n},
		{"wal.buffer_full_wait_us_per_tx", "us/tx", per(1e6 * (tl.BufferFullWaitSeconds - tl0.BufferFullWaitSeconds)), n},
		{"log_bytes_per_tx", "B/tx", m.logBytesPerTx(), n},

		{"buffer.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits + misses)},
		{"buffer.evictions_per_tx", "1/tx", per(float64(buf.Evictions - buf0.Evictions)), n},
		{"buffer.writebacks_per_tx", "1/tx", per(float64(buf.Writebacks - buf0.Writebacks)), n},
		{"buffer.work_us_per_tx", "us/tx", us(profiler.BufferWork, profiler.BufferContention), n},

		{"access.tx_work_us_per_tx", "us/tx", us(profiler.TxWork), n},

		{"abort.rollbacks_per_ktx", "1/ktx", 1000 * per(float64(m.after.aborted-m.before.aborted)), n},
		{"abort.undo_us_per_tx", "us/tx", us(profiler.UndoWork, profiler.AbortLogWork), n},

		{"recovery_s", "s", recS, len(b.recs)},
		{"recovery.records_scanned", "count", float64(b.rstats.LogRecordsScanned), 1},
		{"recovery.records_redone", "count", float64(b.rstats.RecordsRedone), 1},
		{"recovery.redo_records_per_s", "1/s", ratio(float64(b.rstats.RecordsRedone), recS), len(b.recs)},

		{"setup.load_s", "s", setupS(func(s setupTiming) float64 { return s.load }), len(b.setups)},
		{"setup.checkpoint_s", "s", setupS(func(s setupTiming) float64 { return s.checkpoint }), len(b.setups)},

		{"driver.gen_us_per_tx", "us/tx", m.genUS, n},
		{"trace.overhead_ratio", "ratio", overhead, 2},
	}
}
