// Package core implements the storage-manager engine: it composes the lock
// manager (with Speculative Lock Inheritance), write-ahead log, buffer pool,
// heap files, B+tree indexes and catalog into a transactional embedded
// database, and executes transactions on a pool of agent threads exactly as
// Shore-MT does — one agent goroutine runs one transaction at a time, and
// SLI passes hot locks from a committing transaction to the next transaction
// on the same agent.
//
// The top-level package slidb re-exports this engine as the public API.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slidb/internal/buffer"
	"slidb/internal/catalog"
	"slidb/internal/heap"
	"slidb/internal/lockmgr"
	"slidb/internal/obs"
	"slidb/internal/profiler"
	"slidb/internal/record"
	"slidb/internal/wal"
)

// databaseID is the single database (volume) ID used by the engine.
const databaseID uint32 = 1

// Config configures an Engine.
type Config struct {
	// SLI enables Speculative Lock Inheritance (the paper's contribution).
	SLI bool
	// SLIHotThreshold is the contention ratio above which a lock is "hot"
	// (criterion 2 of §4.2). Zero uses the lock manager default (0.25).
	SLIHotThreshold float64
	// SLIMinLevel is the finest lock level eligible for inheritance; zero
	// uses the default (page level, per criterion 1).
	SLIMinLevel lockmgr.Level
	// Agents is the number of agent worker goroutines ("hardware contexts"
	// in the paper's terms). Zero means transactions run inline on the
	// calling goroutine without an agent (no SLI).
	Agents int
	// BufferFrames is the buffer pool size in pages (default 4096).
	BufferFrames int
	// IODelay is the artificial latency per page read/write, simulating the
	// paper's 6 ms disk-seek penalty. Zero disables it (in-memory dataset).
	IODelay time.Duration
	// LogFlushDelay simulates the latency of forcing the log at commit.
	LogFlushDelay time.Duration
	// GroupCommitWindow, GroupCommitMin and GroupCommitMax configure the
	// WAL's single group-commit window controller (see wal.Config). The
	// flusher tunes the window between GroupCommitMin and GroupCommitMax
	// from observed commit arrival and durable lag. GroupCommitMax == 0
	// makes both bounds equal GroupCommitWindow: the window is fixed, and a
	// zero window means no pause at all. GroupCommitMax > 0 turns the
	// tuning on, with GroupCommitWindow as the starting point and a zero
	// GroupCommitMin defaulting to 10µs; a tuned window also wakes early
	// once the pending commit set is satisfiable.
	GroupCommitWindow time.Duration
	GroupCommitMin    time.Duration
	GroupCommitMax    time.Duration
	// EarlyLockRelease makes a committing transaction release its locks (and
	// perform SLI inheritance) as soon as its commit record is appended to
	// the log, instead of holding them across the group-commit fsync. Lock
	// hold times then exclude the entire flush latency. Safe with the single
	// totally-ordered log: commits are acknowledged in LSN order, so a
	// transaction that read ELR-exposed data is never durable before the
	// transaction that exposed it. Off by default (the paper-faithful
	// baseline holds locks until the commit is durable). This knob governs
	// the commit path only; the abort path has its own knob below, so the
	// abort-elr ablation can difference the two policies independently.
	EarlyLockRelease bool
	// EarlyLockReleaseAborts applies the same policy to rollbacks: an
	// aborting transaction releases its locks (with SLI inheritance) as soon
	// as its compensation-logged rollback has appended its abort record,
	// instead of holding them across the force of that record. Independent
	// of EarlyLockRelease — enable both for the full ELR pipeline.
	EarlyLockReleaseAborts bool
	// AsyncCommit lets each agent worker start its next transaction while up
	// to PipelineDepth earlier transactions are still waiting for their
	// commit records to be forced to disk (flush pipelining). Exec still
	// blocks its caller until the transaction is durable; only the agent is
	// freed. It requires EarlyLockRelease: without it a committing
	// transaction must hold its locks until the force completes, so the
	// flush happens synchronously and there is nothing to pipeline —
	// AsyncCommit alone is a no-op.
	AsyncCommit bool
	// PipelineDepth bounds the in-flight pre-committed transactions per
	// worker under AsyncCommit (default 32).
	PipelineDepth int
	// Profile enables the per-component time breakdown used by the figure
	// harness. It adds a small overhead per operation. With Profile off the
	// lock, buffer and transaction paths read no clock; only a contended
	// latch still times its wait, and an installed observer (Observe) still
	// times each transaction.
	Profile bool
	// LockTimeout bounds lock waits; zero uses the default (10s).
	LockTimeout time.Duration
	// MaxDeadlockRetries is how many times Exec re-runs a transaction that
	// was chosen as a deadlock victim before giving up (default 10).
	MaxDeadlockRetries int
	// DropLogAfterFlush discards flushed log records instead of retaining
	// them in memory; enable for long benchmark runs.
	DropLogAfterFlush bool
	// LogBufferBytes sizes the consolidated log buffer; zero uses the WAL
	// default (4 MiB).
	LogBufferBytes int64
	// AutoSizeLogBuffer lets each log shard's flusher grow its buffer
	// (power-of-two, up to LogBufferMaxBytes) when appenders spend a
	// significant fraction of wall time blocked on a full buffer. The
	// profiler's log-buffer-full-wait signal drives the decision; see
	// wal.Config.AutoSizeBuffer.
	AutoSizeLogBuffer bool
	// LogBufferMaxBytes caps the auto-sizer; zero uses the WAL default
	// (64 MiB). Ignored unless AutoSizeLogBuffer.
	LogBufferMaxBytes int64
	// LogShards splits the write-ahead log into this many independent
	// virtual logs, each with its own reserve/fill/publish buffer, flusher
	// goroutine and segment directory (shard-NN/). Records are routed by the
	// row's table and primary key, so one row's history lives entirely on
	// one shard; a transaction touching several shards commits with one
	// commit record per touched shard (carrying the participant set) and is
	// treated as committed by recovery only when every participant's commit
	// record survived. Zero or one keeps the single totally-ordered log —
	// byte-identical to the pre-shard format. For durable engines the value
	// must match the directory's existing layout (OpenAt fails loudly with
	// wal.ErrLogFormat on a mismatch); zero auto-detects it.
	LogShards int
	// Dir is the data directory backing the engine's durability subsystem
	// (WAL segments and checkpoints). It is set by OpenAt; Open ignores it
	// and runs fully in memory.
	Dir string
	// SegmentBytes is the on-disk WAL segment rotation size for durable
	// engines; zero uses wal.DefaultSegmentBytes.
	SegmentBytes int64
	// PreallocateSegments extends each new WAL segment file to SegmentBytes
	// at creation (fallocate, degrading to truncate where unsupported), so
	// group commits write into already-allocated blocks instead of growing
	// the file. Durable engines only.
	PreallocateSegments bool
}

func (c Config) withDefaults() Config {
	if c.BufferFrames <= 0 {
		c.BufferFrames = 4096
	}
	if c.MaxDeadlockRetries <= 0 {
		c.MaxDeadlockRetries = 10
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 32
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = wal.DefaultSegmentBytes
	}
	if c.LogShards > wal.MaxLogShards {
		c.LogShards = wal.MaxLogShards
	}
	return c
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("core: engine is closed")

// Engine is the storage manager.
type Engine struct {
	cfg Config
	cat *catalog.Catalog
	lm  *lockmgr.Manager
	// logs holds one virtual log per shard; log aliases logs[0] so the
	// single-shard hot paths (and DDL, which always routes to shard 0) pay
	// no indirection. nShards == len(logs) >= 1.
	logs    []*wal.Log
	log     *wal.Log
	nShards int
	segs    []*wal.Segments // empty for in-memory (volatile) engines
	pool    *buffer.Pool
	prof    *profiler.Profiler

	// execGate serializes checkpoints against running transactions: every
	// transaction attempt holds it for read, Checkpoint takes it for write.
	execGate sync.RWMutex
	recStats RecoveryStats

	// mu guards the runtime schema: tables maps a table ID to its resolved
	// runtime (replaced whole, never mutated, on DDL) and secs a secondary
	// index name to its tree.
	mu     sync.RWMutex
	tables map[uint32]*tableRuntime
	secs   map[string]*index

	nextXID atomic.Uint64

	jobs      chan job
	stopping  chan struct{} // closed by Close/SimulateCrash; unblocks Exec senders
	workersMu sync.Mutex
	workers   []*worker
	// nWorkers mirrors len(workers) for the per-transaction readers (Exec,
	// ExecAsync), so only resizing takes workersMu.
	nWorkers atomic.Int64
	closed   atomic.Bool

	// obs is the engine's observability surface, created lazily by Observe
	// (see obs.go). txHook is the per-transaction completion hook it
	// installs; nil until then, so the only cost a non-observed engine pays
	// is one atomic pointer load per transaction attempt.
	obsOnce sync.Once
	obs     *obs.Observer
	txHook  atomic.Pointer[func(TxCompletion)]

	committed atomic.Uint64
	aborted   atomic.Uint64
	// elrAborts counts aborting transactions that released their locks at
	// abort-record append (before the flush) under EarlyLockReleaseAborts.
	elrAborts atomic.Uint64
	// undoFailures counts undo actions (abort-time or inline after a failed
	// log append) that returned an error — each one means the in-memory
	// state may no longer match the pre-transaction state. Always zero in a
	// healthy engine; torture tests fail when it is not.
	undoFailures atomic.Uint64
	// crossShardCommits counts committed transactions whose participant set
	// spanned more than one log shard — the commits that paid the two-phase
	// flush rendezvous instead of a single-log group commit.
	crossShardCommits atomic.Uint64
}

type job struct {
	fn   func(*Tx) error
	done chan error
}

// pendingCommit is one pre-committed transaction a worker has handed to its
// ack pipeline: the WAL's durability ack on one side, the Exec caller's done
// channel on the other.
type pendingCommit struct {
	ack  <-chan error
	done chan error
}

type worker struct {
	agent *lockmgr.Agent
	prof  *profiler.Handle
	quit  chan struct{}
	done  chan struct{}

	// inflight carries pre-committed transactions to the worker's acker
	// goroutine under AsyncCommit; its capacity is the worker's pipelining
	// window. nil when pipelining is off.
	inflight  chan pendingCommit
	ackerDone chan struct{}
	// ackProf is the acker goroutine's own profiler handle. The acker runs
	// concurrently with the worker's next transaction; attributing its
	// LogFlush waits to w.prof would corrupt runOnce's wall-vs-accounted
	// TxWork attribution for that transaction.
	ackProf *profiler.Handle
}

// Open creates an in-memory (volatile) engine with the given configuration.
// For a disk-backed engine with crash recovery, use OpenAt.
func Open(cfg Config) *Engine {
	cfg.Dir = ""
	e := newEngine(cfg.withDefaults(), nil, nil)
	e.SetConcurrency(e.cfg.Agents)
	return e
}

// newEngine builds an engine without starting its agent pool. A non-empty
// durable slice makes the write-ahead log disk-backed with one virtual log
// per segment directory (its length overrides cfg.LogShards); startLSNs
// (when non-nil) resumes each shard's LSN allocation above its recovered
// log prefix.
func newEngine(cfg Config, durable []*wal.Segments, startLSNs []wal.LSN) *Engine {
	nShards := cfg.LogShards
	if len(durable) > 0 {
		nShards = len(durable)
	}
	if nShards < 1 {
		nShards = 1
	}
	e := &Engine{
		cfg:      cfg,
		cat:      catalog.New(),
		nShards:  nShards,
		segs:     durable,
		prof:     profiler.New(cfg.Profile),
		tables:   make(map[uint32]*tableRuntime),
		secs:     make(map[string]*index),
		jobs:     make(chan job),
		stopping: make(chan struct{}),
	}
	e.lm = lockmgr.New(lockmgr.Config{
		SLI:             cfg.SLI,
		SLIHotThreshold: cfg.SLIHotThreshold,
		SLIMinLevel:     cfg.SLIMinLevel,
		LockTimeout:     cfg.LockTimeout,
	})
	dropAfterFlush := cfg.DropLogAfterFlush
	if len(durable) > 0 {
		// The disk holds the records; retaining them in memory as well would
		// grow without bound.
		dropAfterFlush = true
	}
	e.logs = make([]*wal.Log, nShards)
	for s := range e.logs {
		var sink wal.DurableSink
		if len(durable) > 0 {
			sink = durable[s]
		}
		var startLSN wal.LSN
		if startLSNs != nil {
			startLSN = startLSNs[s]
		}
		e.logs[s] = wal.New(wal.Config{
			FlushDelay:        cfg.LogFlushDelay,
			GroupCommitWindow: cfg.GroupCommitWindow,
			GroupCommitMin:    cfg.GroupCommitMin,
			GroupCommitMax:    cfg.GroupCommitMax,
			DropAfterFlush:    dropAfterFlush,
			Durable:           sink,
			StartLSN:          startLSN,
			BufferBytes:       cfg.LogBufferBytes,
			AutoSizeBuffer:    cfg.AutoSizeLogBuffer,
			BufferMaxBytes:    cfg.LogBufferMaxBytes,
		})
	}
	e.log = e.logs[0]
	e.pool = buffer.NewPool(buffer.NewMemStore(), buffer.Config{
		Frames:  cfg.BufferFrames,
		IODelay: cfg.IODelay,
	})
	return e
}

// shardOf routes a row — identified by its table and encoded primary key —
// to a log shard. Every record of one row (data, CLRs) lands on the same
// shard, so per-shard redo and undo see each row's full ordered history.
// FNV-1a over the table ID and key keeps the placement stable across
// restarts without any shared state on the append path.
func (e *Engine) shardOf(table uint32, pkKey string) int {
	if e.nShards == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(table >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < len(pkKey); i++ {
		h ^= uint64(pkKey[i])
		h *= prime64
	}
	return int(h % uint64(e.nShards))
}

// LogShards returns the number of log shards the engine runs with.
func (e *Engine) LogShards() int { return e.nShards }

// Close stops the agent pool and flushes the log and buffer pool. For
// durable engines it also drains the log to its segment files and closes
// them, so a Close-d engine reopens via OpenAt without any redo work left.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	close(e.stopping)
	e.SetConcurrency(0)
	// Run every teardown step even when an earlier one fails — the segment
	// files in particular must be synced and closed regardless — and report
	// the first error.
	err := e.pool.FlushAll(nil)
	for _, l := range e.logs {
		if lerr := l.Close(); err == nil {
			err = lerr
		}
	}
	for _, sg := range e.segs {
		if serr := sg.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// Catalog exposes the schema catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// LockManager exposes the lock manager (for statistics and SLI control).
func (e *Engine) LockManager() *lockmgr.Manager { return e.lm }

// Profiler exposes the component-time profiler.
func (e *Engine) Profiler() *profiler.Profiler { return e.prof }

// BufferStats returns buffer pool counters.
func (e *Engine) BufferStats() buffer.StatsSnapshot { return e.pool.Stats() }

// LockStats returns a snapshot of the lock manager's counters.
func (e *Engine) LockStats() lockmgr.StatsSnapshot { return e.lm.Stats().Snapshot() }

// Committed returns the number of committed transactions.
func (e *Engine) Committed() uint64 { return e.committed.Load() }

// Aborted returns the number of aborted transactions (after retries).
func (e *Engine) Aborted() uint64 { return e.aborted.Load() }

// ELRAborts returns the number of aborting transactions whose locks were
// released at abort-record append — before the abort record was forced to
// disk — under EarlyLockReleaseAborts.
func (e *Engine) ELRAborts() uint64 { return e.elrAborts.Load() }

// UndoFailures returns the number of rollback undo actions that failed.
// Any non-zero value indicates in-memory corruption: an aborted
// transaction's effects could not be fully rolled back.
func (e *Engine) UndoFailures() uint64 { return e.undoFailures.Load() }

// CrossShardCommits returns the number of committed transactions whose
// participant set spanned more than one log shard, each paying the
// two-phase flush rendezvous (one commit record per touched shard) instead
// of a single-log group commit. The ratio against Committed is the
// cross-shard fraction of the workload — the knob that bounds how much of
// the sharded log's contention win a workload can actually collect.
func (e *Engine) CrossShardCommits() uint64 { return e.crossShardCommits.Load() }

// DurableLag returns the number of log BYTES appended but not yet durable —
// the depth of the commit pipeline at this instant. With byte-offset LSNs
// the lag is the distance between the log's virtual end and the durable
// watermark; record counts no longer exist (LSNs are ordered, not dense).
// It is zero whenever the flush daemon has caught up (always, between
// bursts) and grows with AsyncCommit under load.
func (e *Engine) DurableLag() uint64 {
	var lag uint64
	for _, l := range e.logs {
		last, durable := l.LastLSN(), l.DurableLSN()
		if last > durable {
			lag += uint64(last.Distance(durable))
		}
	}
	return lag
}

// SimulateCrash abandons the engine the way a machine failure would, for
// crash-recovery testing: the WAL's append buffer is discarded and its
// flusher stops without draining, in-flight durability acks fail, the
// segment files are closed without a final sync, and the agent workers shut
// down. Effects of transactions whose commit record never reached a
// completed sync — in particular transactions caught between pre-commit
// (locks released under EarlyLockRelease) and the flush — are lost; the data
// directory can then be reopened with OpenAt to exercise recovery rolling
// them back. On volatile engines it is just an abrupt Close.
func (e *Engine) SimulateCrash() {
	if e.closed.Swap(true) {
		return
	}
	close(e.stopping)
	for _, l := range e.logs {
		l.Crash()
	}
	for _, sg := range e.segs {
		sg.Crash()
	}
	e.SetConcurrency(0)
}

// SetSLI toggles Speculative Lock Inheritance at runtime.
func (e *Engine) SetSLI(enabled bool) { e.lm.SetSLI(enabled) }

// SLIEnabled reports whether SLI is active.
func (e *Engine) SLIEnabled() bool { return e.lm.SLIEnabled() }

// Concurrency returns the current number of agent workers.
func (e *Engine) Concurrency() int { return int(e.nWorkers.Load()) }

// SetConcurrency resizes the agent pool to n workers. It blocks until
// removed workers have drained their current transaction.
func (e *Engine) SetConcurrency(n int) {
	if n < 0 {
		n = 0
	}
	e.workersMu.Lock()
	defer e.workersMu.Unlock()
	for len(e.workers) < n {
		w := &worker{
			agent: e.lm.NewAgent(),
			prof:  e.prof.NewHandle(),
			quit:  make(chan struct{}),
			done:  make(chan struct{}),
		}
		// Pipelining needs EarlyLockRelease: without it preCommit flushes
		// synchronously and never yields an ack to pipeline.
		if e.cfg.AsyncCommit && e.cfg.EarlyLockRelease {
			w.inflight = make(chan pendingCommit, e.cfg.PipelineDepth)
			w.ackerDone = make(chan struct{})
			w.ackProf = e.prof.NewHandle()
			go e.ackerLoop(w)
		}
		e.workers = append(e.workers, w)
		go e.workerLoop(w)
	}
	var stopped []*worker
	for len(e.workers) > n {
		w := e.workers[len(e.workers)-1]
		e.workers = e.workers[:len(e.workers)-1]
		close(w.quit)
		stopped = append(stopped, w)
	}
	e.nWorkers.Store(int64(len(e.workers)))
	for _, w := range stopped {
		<-w.done
	}
}

// workerLoop is one agent thread. Under AsyncCommit the worker only carries
// a transaction to its pre-commit (commit record appended, locks released)
// and hands the durability wait to its acker goroutine, immediately starting
// the next transaction — flush pipelining. The inflight channel's capacity
// bounds how many pre-committed transactions a worker may have outstanding;
// when the window is full the worker blocks here until acks drain.
func (e *Engine) workerLoop(w *worker) {
	defer func() {
		if w.inflight != nil {
			close(w.inflight)
			<-w.ackerDone
		}
		close(w.done)
	}()
	for {
		select {
		case <-w.quit:
			return
		case j := <-e.jobs:
			ack, err := e.runTxn(w, j.fn)
			switch {
			case ack == nil:
				j.done <- err
			case w.inflight != nil:
				w.inflight <- pendingCommit{ack: ack, done: j.done}
			default:
				j.done <- e.waitDurable(w.prof, ack)
			}
		}
	}
}

// ackerLoop drains a worker's in-flight pre-committed transactions in
// pre-commit order, waiting for each commit's durability ack and completing
// the Exec caller. Progress is guaranteed by the WAL's dedicated flusher:
// acks resolve without any engine worker having to call Flush.
func (e *Engine) ackerLoop(w *worker) {
	defer close(w.ackerDone)
	for p := range w.inflight {
		p.done <- e.waitDurable(w.ackProf, p.ack)
	}
}

// waitDurable blocks until the WAL acknowledges the commit as durable,
// attributing the wait to the LogFlush profiler category and settling the
// committed/aborted counters.
func (e *Engine) waitDurable(prof *profiler.Handle, ack <-chan error) error {
	start := prof.Start()
	err := <-ack
	prof.AddSince(profiler.LogFlush, start)
	if err == nil {
		e.committed.Add(1)
	} else {
		e.aborted.Add(1)
	}
	return err
}

// Exec runs fn as one transaction and returns once its outcome is decided
// and durable. If the engine has agent workers the transaction is queued to
// the pool (and benefits from SLI); otherwise it runs inline on the calling
// goroutine. Deadlock victims are retried up to MaxDeadlockRetries times. A
// non-nil error returned by fn aborts the transaction and is returned to the
// caller. Exec returns ErrClosed — rather than blocking forever — when the
// engine is closed before a worker picks the transaction up.
func (e *Engine) Exec(fn func(*Tx) error) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.Concurrency() == 0 {
		ack, err := e.runTxn(nil, fn)
		if err != nil {
			return err
		}
		if ack == nil {
			return nil
		}
		return e.waitDurable(nil, ack)
	}
	done := make(chan error, 1)
	select {
	case e.jobs <- job{fn: fn, done: done}:
		return <-done
	case <-e.stopping:
		return ErrClosed
	}
}

// ExecAsync runs fn as one transaction and returns a durable-ack future: the
// channel receives exactly one value — nil once the transaction has
// committed AND its commit record is durable, or the error that aborted it.
// Futures are acknowledged in commit (LSN) order, so a resolved future
// implies every transaction it could have depended on is durable too.
// ExecAsync never blocks the caller waiting for other transactions; the
// bounded pipelining window applies to the agent workers instead.
func (e *Engine) ExecAsync(fn func(*Tx) error) <-chan error {
	done := make(chan error, 1)
	if e.closed.Load() {
		done <- ErrClosed
		return done
	}
	if e.Concurrency() == 0 {
		ack, err := e.runTxn(nil, fn)
		if err != nil {
			done <- err
		} else if ack == nil {
			done <- nil
		} else {
			go func() { done <- e.waitDurable(nil, ack) }()
		}
		return done
	}
	go func() {
		select {
		case e.jobs <- job{fn: fn, done: done}:
		case <-e.stopping:
			done <- ErrClosed
		}
	}()
	return done
}

// runTxn executes fn with deadlock retries on the given worker (nil for
// inline). On success it returns the transaction's durability ack channel:
// nil means the transaction is already fully complete (read-only, or the
// flush happened synchronously); non-nil means the commit record is appended
// and locks are released, but the caller must wait for the ack before
// acknowledging the commit.
func (e *Engine) runTxn(w *worker, fn func(*Tx) error) (<-chan error, error) {
	var lastErr error
	for attempt := 0; attempt <= e.cfg.MaxDeadlockRetries; attempt++ {
		ack, err := e.runOnce(w, fn)
		if err == nil {
			if ack == nil {
				e.committed.Add(1)
			}
			return ack, nil
		}
		lastErr = err
		if !errors.Is(err, lockmgr.ErrDeadlock) && !errors.Is(err, lockmgr.ErrLockTimeout) {
			e.aborted.Add(1)
			return nil, err
		}
	}
	e.aborted.Add(1)
	return nil, lastErr
}

func (e *Engine) runOnce(w *worker, fn func(*Tx) error) (<-chan error, error) {
	// Hold the checkpoint gate for the duration of the attempt: Checkpoint
	// waits for in-flight transactions and blocks new ones, so its snapshot
	// is action-consistent.
	e.execGate.RLock()
	defer e.execGate.RUnlock()
	var agent *lockmgr.Agent
	var prof *profiler.Handle
	if w != nil {
		agent, prof = w.agent, w.prof
	}
	// Time the attempt only for a consumer: the profiler's TxWork
	// attribution or the observability hook. Without either no clock is read.
	hook := e.txHook.Load()
	start := prof.Start()
	if hook != nil && prof == nil {
		start = time.Now()
	}
	before := prof.Snapshot()

	tx := &Tx{
		e:     e,
		xid:   e.nextXID.Add(1),
		owner: e.lm.NewOwner(agent, prof),
		prof:  prof,
	}
	if e.nShards > 1 {
		tx.shardLast = make([]wal.LSN, e.nShards)
	}
	var ack <-chan error
	err := fn(tx)
	if err == nil {
		ack, err = tx.preCommit()
	} else {
		tx.abort()
	}

	// Attribute the transaction-body time not already accounted to a
	// component as "other work" (TxWork), reproducing the figures' "work
	// other" category. The durable-ack wait (if any) happens after this
	// window, so under ELR neither lock hold time nor TxWork includes the
	// flush latency.
	wall := profiler.Since(start)
	var delta profiler.Breakdown
	if prof != nil {
		delta = prof.Snapshot().Sub(before)
		accounted := time.Duration(0)
		for c := profiler.Category(0); c < profiler.Category(len(delta)); c++ {
			accounted += delta.Get(c)
		}
		if wall > accounted {
			prof.Add(profiler.TxWork, wall-accounted)
			delta[profiler.TxWork] += wall - accounted
		}
	}
	// The observability completion hook (duration histogram, slow-tx
	// tracer). One atomic pointer load when no observer is installed; the
	// hook itself is wait-free unless the attempt enters the slow set — no
	// lock is added to the commit path either way.
	if hook != nil {
		(*hook)(TxCompletion{
			XID:       tx.xid,
			Start:     start,
			Duration:  wall,
			Committed: err == nil,
			Breakdown: delta,
		})
	}
	return ack, err
}

// index pairs catalog metadata with its B+tree. Non-unique indexes append
// the RID to the key to keep entries distinct.
type index struct {
	meta *catalog.Index // nil for primary-key indexes
	tree *indexTree
}

// CreateTable creates a table with the given schema and primary key. It must
// be called before any transaction uses the table; DDL is not transactional.
// On durable engines the DDL is logged and forced to disk before returning.
func (e *Engine) CreateTable(name string, schema *record.Schema, primaryKey []string) error {
	if e.closed.Load() {
		return ErrClosed
	}
	tbl, err := e.cat.CreateTable(name, schema, primaryKey)
	if err != nil {
		return err
	}
	e.installTable(tbl)
	if err := e.logDDL(wal.RecCreateTable, catalog.TableMetaOf(tbl).Encode()); err != nil {
		// The DDL record could not be made durable: undo the in-memory
		// creation so the failed call leaves no half-created table that a
		// restart would not know about.
		e.cat.RemoveTable(tbl.ID)
		e.mu.Lock()
		delete(e.tables, tbl.ID)
		e.mu.Unlock()
		return err
	}
	return nil
}

// installTable wires a catalog table descriptor into the engine's runtime
// structures (heap file and primary-key tree).
func (e *Engine) installTable(tbl *catalog.Table) {
	e.mu.Lock()
	e.tables[tbl.ID] = &tableRuntime{meta: tbl, hf: heap.NewFile(tbl.ID, e.pool), pk: &index{tree: newIndexTree()}}
	e.mu.Unlock()
}

// resolveIndexesLocked republishes a table's runtime with its secondary
// indexes re-read from the catalog, after an index was installed or rolled
// back. The caller holds e.mu for writing.
func (e *Engine) resolveIndexesLocked(tableID uint32) {
	old := e.tables[tableID]
	if old == nil {
		return
	}
	rt := &tableRuntime{meta: old.meta, hf: old.hf, pk: old.pk}
	for _, ix := range e.cat.TableIndexes(tableID) {
		if sec := e.secs[ix.Name]; sec != nil {
			rt.secs = append(rt.secs, sec)
		}
	}
	e.tables[tableID] = rt
}

// CreateIndex creates a secondary index on an existing (empty or populated)
// table. Existing rows are indexed immediately. On durable engines the DDL
// is logged and forced to disk before returning.
func (e *Engine) CreateIndex(name, table string, columns []string, unique bool) error {
	if e.closed.Load() {
		return ErrClosed
	}
	ix, err := e.cat.CreateIndex(name, table, columns, unique)
	if err != nil {
		return err
	}
	if err := e.installIndex(ix); err == nil {
		err = e.logDDL(wal.RecCreateIndex, catalog.IndexMetaOf(ix).Encode())
	}
	if err != nil {
		e.cat.RemoveIndex(ix.Name)
		e.mu.Lock()
		delete(e.secs, ix.Name)
		e.resolveIndexesLocked(ix.TableID)
		e.mu.Unlock()
		return err
	}
	return nil
}

// installIndex builds the runtime B+tree for a catalog index descriptor and
// backfills it from the table's existing rows.
func (e *Engine) installIndex(ix *catalog.Index) error {
	tbl, _ := e.cat.TableByID(ix.TableID)
	idx := &index{meta: ix, tree: newIndexTree()}
	e.mu.Lock()
	e.secs[ix.Name] = idx
	e.resolveIndexesLocked(ix.TableID)
	hf := e.tables[ix.TableID].hf
	e.mu.Unlock()
	var err error
	serr := hf.Scan(nil, func(rid heap.RID, rec []byte) bool {
		row, derr := tbl.Schema.Decode(rec)
		if derr != nil {
			err = derr
			return false
		}
		idx.tree.insert(indexKey(ix.KeyOf(row), rid, ix.Unique), rid)
		return true
	})
	if err == nil {
		err = serr
	}
	return err
}

// logDDL appends a DDL record and forces it to disk on durable engines; DDL
// must be durable before data records referencing it can commit. Volatile
// engines skip DDL logging entirely, matching the original in-memory
// behavior. DDL always routes to shard 0, and sharded recovery replays
// shard 0 before the others, so replayed data records never reference a
// table whose DDL has not been applied yet.
func (e *Engine) logDDL(typ wal.RecType, meta []byte) error {
	if len(e.segs) == 0 {
		return nil
	}
	lsn, err := e.log.Append(wal.Record{Type: typ, After: meta})
	if err != nil {
		return err
	}
	return e.log.Flush(lsn)
}

// tableRuntime bundles the structures transactions and redo operate on for
// one table. It is resolved once per DDL (installTable, installIndex and
// their rollbacks) and never mutated after it is published, so lookups
// share it without copying.
type tableRuntime struct {
	meta *catalog.Table
	hf   *heap.File
	pk   *index
	secs []*index
}

func (e *Engine) tableRuntime(name string) (*tableRuntime, error) {
	if tbl, ok := e.cat.Table(name); ok {
		if rt := e.tableRuntimeByID(tbl.ID); rt != nil {
			return rt, nil
		}
	}
	return nil, fmt.Errorf("core: unknown table %q", name)
}

// tableRuntimeByID returns the runtime of the table with the given ID, or
// nil if none is installed.
func (e *Engine) tableRuntimeByID(id uint32) *tableRuntime {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[id]
}
