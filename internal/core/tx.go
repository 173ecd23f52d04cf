package core

import (
	"errors"
	"fmt"
	"math/bits"

	"slidb/internal/btree"
	"slidb/internal/heap"
	"slidb/internal/lockmgr"
	"slidb/internal/profiler"
	"slidb/internal/record"
	"slidb/internal/wal"
	"time"
)

// ErrNotFound is returned by lookups that match no row.
var ErrNotFound = errors.New("core: row not found")

// ErrDuplicateKey is returned when an insert violates a primary-key or
// unique-index constraint.
var ErrDuplicateKey = errors.New("core: duplicate key")

// ErrPrimaryKeyChange is returned when an update attempts to modify a
// primary-key column.
var ErrPrimaryKeyChange = errors.New("core: updates may not modify primary key columns")

// Abort is a sentinel error transaction bodies can return to abort without
// reporting a failure to the caller of Exec: Exec returns Abort itself, so
// callers can distinguish business-rule aborts (e.g. the NDBB transactions
// that fail on invalid input) from unexpected errors.
var Abort = errors.New("core: transaction aborted by application")

// indexTree wraps the generic B+tree used by all indexes.
type indexTree struct {
	t *btree.Tree[heap.RID]
}

func newIndexTree() *indexTree { return &indexTree{t: btree.New[heap.RID]()} }

func (it *indexTree) insert(key string, rid heap.RID) bool { return it.t.InsertIfAbsent(key, rid) }
func (it *indexTree) remove(key string) bool               { return it.t.Delete(key) }
func (it *indexTree) get(key string) (heap.RID, bool)      { return it.t.Get(key) }
func (it *indexTree) scanRange(lo, hi string, fn func(key string, rid heap.RID) bool) {
	it.t.AscendRange(lo, hi, fn)
}

// indexKey builds the B+tree key for an index entry. Unique indexes (and the
// primary key) use the column values alone; non-unique indexes append the
// RID so that duplicate column values remain distinct entries.
func indexKey(vals []record.Value, rid heap.RID, unique bool) string {
	k := record.EncodeKey(vals...)
	if unique {
		return k
	}
	return k + record.EncodeKey(record.Int(int64(rid.Page)), record.Int(int64(rid.Slot)))
}

// undoAction rolls back one data modification during abort.
type undoAction func(tx *Tx) error

// undoEntry is one registered rollback action: the in-memory undo of a
// logged data modification, the LSN of the original record (the CLR chain's
// UndoNext pointer targets it), and the redo-only compensation record that
// tx.abort logs after applying the undo. shard is the log shard the original
// record went to — the compensation must land on the same shard so the
// row's history stays totally ordered there, and its UndoNext must point at
// the next-older entry on that shard (per-shard CLR chains). seq is the
// entry's birth stamp within the transaction, used to detect stale
// savepoints: after a RollbackTo truncates the stack, later entries reuse
// the same positions but carry new stamps.
type undoEntry struct {
	lsn   wal.LSN
	shard int
	seq   uint64
	apply undoAction
	clr   wal.Record
}

// Tx is a transaction handle passed to the function given to Engine.Exec.
// It is only valid for the duration of that function and must not be used
// from other goroutines.
type Tx struct {
	e     *Engine
	xid   uint64
	owner *lockmgr.Owner
	prof  *profiler.Handle

	undo    []undoEntry
	undoSeq uint64 // birth stamps for undo entries (see undoEntry.seq)
	lastLSN wal.LSN
	logged  bool

	// Sharded-log state (nil/zero on single-shard engines, which keep the
	// lastLSN fast path above): shardLast is the per-shard counterpart of
	// lastLSN, began the bitmask of shards holding this transaction's begin
	// record, and readMask the shards of rows the transaction read while
	// Early Lock Release is on — those shards join the commit's participant
	// set so a dependent commit is never acknowledged before the commit that
	// exposed the data it read (see preCommitSharded).
	shardLast []wal.LSN
	began     uint64
	readMask  uint64
}

// pushUndo registers one rollback entry, stamping it for savepoint
// validation.
func (tx *Tx) pushUndo(ent undoEntry) {
	tx.undoSeq++
	ent.seq = tx.undoSeq
	tx.undo = append(tx.undo, ent)
}

// XID returns the transaction identifier.
func (tx *Tx) XID() uint64 { return tx.xid }

// appendTimed appends one WAL record, splitting the elapsed time into the
// profiler's log categories: blocked time entering the reservation critical
// section (reserve-wait), blocked time waiting for the flusher to drain a
// full buffer (buffer-full-wait), and the remainder — the reserve arithmetic
// plus encoding the record into the shared buffer — as useful log work,
// attributed to workCat so the abort path's CLR appends are reported apart
// from forward-path logging.
func (tx *Tx) appendTimed(l *wal.Log, rec wal.Record, workCat profiler.Category) (wal.LSN, error) {
	if tx.prof == nil {
		// No accounting consumer: take the clock-free append path.
		return l.Append(rec)
	}
	start := time.Now()
	lsn, waits, err := l.AppendTimed(rec)
	total := time.Since(start)
	tx.prof.Add(profiler.LogReserveWait, waits.Reserve)
	tx.prof.Add(profiler.LogBufferFullWait, waits.BufferFull)
	tx.prof.Add(workCat, total-waits.Reserve-waits.BufferFull)
	return lsn, err
}

// logAppend appends a WAL record to the given log shard, lazily writing the
// per-shard begin record first and tracking the shard's last LSN for commit.
// Single-shard engines keep the original one-log path untouched.
func (tx *Tx) logAppend(shard int, rec wal.Record) error {
	rec.XID = tx.xid
	if tx.e.nShards == 1 {
		if !tx.logged {
			if _, err := tx.appendTimed(tx.e.log, wal.Record{XID: tx.xid, Type: wal.RecBegin}, profiler.LogWork); err != nil {
				return err
			}
			tx.logged = true
		}
		lsn, err := tx.appendTimed(tx.e.log, rec, profiler.LogWork)
		if err != nil {
			return err
		}
		tx.lastLSN = lsn
		return nil
	}
	bit := uint64(1) << uint(shard)
	l := tx.e.logs[shard]
	if tx.began&bit == 0 {
		if _, err := tx.appendTimed(l, wal.Record{XID: tx.xid, Type: wal.RecBegin}, profiler.LogWork); err != nil {
			return err
		}
		tx.began |= bit
		tx.logged = true
	}
	lsn, err := tx.appendTimed(l, rec, profiler.LogWork)
	if err != nil {
		return err
	}
	tx.shardLast[shard] = lsn
	return nil
}

// trackReads reports whether the transaction must record the shards of rows
// it reads: only multi-shard engines under Early Lock Release need it, to
// order a dependent commit's acknowledgement after its dependency's (see
// Tx.readMask).
func (tx *Tx) trackReads() bool {
	return tx.e.nShards > 1 && tx.e.cfg.EarlyLockRelease
}

// preCommit finishes the transaction up to (but not including) durability.
// It appends the commit record and releases the transaction's locks,
// applying SLI to eligible locks. The returned ack channel, when non-nil,
// resolves once the commit record is durable; the caller (or the worker's
// pipeline) must wait on it before acknowledging the commit.
//
// With Early Lock Release the locks are released as soon as the commit
// record is appended — before the group-commit fsync — so lock hold times
// exclude the entire flush latency. This is safe with a single totally
// ordered log: any transaction that observed this transaction's (pre-
// committed, not yet durable) writes appends its own commit record at a
// higher LSN, and the flusher acknowledges commits in LSN order, so a
// dependent transaction is never reported durable before its dependency.
// After a crash inside that window, recovery classifies the transaction as
// a loser (no durable commit record) and none of its effects survive.
//
// Without ELR the paper-faithful baseline is preserved: the transaction
// blocks on the flush while still holding every lock, and only then
// releases them.
func (tx *Tx) preCommit() (<-chan error, error) {
	if !tx.logged {
		// Read-only: nothing to make durable.
		tx.owner.ReleaseAll()
		tx.undo = nil
		return nil, nil
	}
	if tx.e.nShards > 1 {
		return tx.preCommitSharded()
	}
	if err := tx.logAppend(0, wal.Record{Type: wal.RecCommit}); err != nil {
		tx.abort()
		return nil, err
	}
	if tx.e.cfg.EarlyLockRelease {
		ack := tx.e.log.FlushAsync(tx.lastLSN)
		tx.owner.ReleaseAllEarly()
		tx.undo = nil
		return ack, nil
	}
	flushStart := tx.prof.Start()
	if err := tx.e.log.Flush(tx.lastLSN); err != nil {
		// The failed flush still spent wall time in LogFlush — attribute it
		// before bailing, or the category under-reports exactly when the
		// log wedges (found by the proftimer analyzer).
		tx.prof.AddSince(profiler.LogFlush, flushStart)
		tx.abort()
		return nil, err
	}
	tx.prof.AddSince(profiler.LogFlush, flushStart)
	tx.owner.ReleaseAll()
	tx.undo = nil
	return nil, nil
}

// preCommitSharded is the multi-log commit rendezvous. One commit record is
// appended to every participant shard — the shards the transaction wrote
// (began), plus under ELR the shards of rows it read — each carrying the
// full participant bitmask, so recovery treats the transaction as committed
// only when every participant's commit record survived the crash (see
// recovery.GlobalWinners). A single-participant transaction's commit record
// carries no mask and is byte-identical to the single-log format.
//
// Early Lock Release stays confined to single-participant transactions: for
// them the one log's LSN-ordered acks give the usual guarantee (a dependent
// that read exposed data commits at a higher LSN on the same shard, so it
// is never acknowledged first). A transaction that touched several shards
// instead holds its locks across the rendezvous — its per-shard commit
// records are forced in parallel (one FlushAsync subscription per shard,
// then wait for all), but nothing can observe its writes until every record
// is durable, so no cross-log ordering between dependents can arise.
func (tx *Tx) preCommitSharded() (<-chan error, error) {
	participants := tx.began | tx.readMask
	mask := wal.EncodeShardMask(participants)
	if participants&(participants-1) != 0 {
		tx.e.crossShardCommits.Add(1)
	}
	for s := 0; s < tx.e.nShards; s++ {
		if participants&(1<<uint(s)) == 0 {
			continue
		}
		lsn, err := tx.appendTimed(tx.e.logs[s], wal.Record{XID: tx.xid, Type: wal.RecCommit, After: mask}, profiler.LogWork)
		if err != nil {
			tx.abort()
			return nil, err
		}
		tx.shardLast[s] = lsn
	}
	if tx.e.cfg.EarlyLockRelease && participants&(participants-1) == 0 {
		s := bits.TrailingZeros64(participants)
		ack := tx.e.logs[s].FlushAsync(tx.shardLast[s])
		tx.owner.ReleaseAllEarly()
		tx.undo = nil
		return ack, nil
	}
	// Cross-shard (or ELR off): subscribe every participant first so the
	// shard flushers overlap, then wait for all of them with locks held.
	acks := make([]<-chan error, 0, bits.OnesCount64(participants))
	for s := 0; s < tx.e.nShards; s++ {
		if participants&(1<<uint(s)) == 0 {
			continue
		}
		acks = append(acks, tx.e.logs[s].FlushAsync(tx.shardLast[s]))
	}
	flushStart := tx.prof.Start()
	var err error
	for _, ack := range acks {
		if aerr := <-ack; aerr != nil && err == nil {
			err = aerr
		}
	}
	tx.prof.AddSince(profiler.LogFlush, flushStart)
	if err != nil {
		tx.abort()
		return nil, err
	}
	tx.owner.ReleaseAll()
	tx.undo = nil
	return nil, nil
}

// abort rolls back every modification (in reverse order) and releases locks.
//
// Rollback is compensation-logged, ARIES-style: each undo action is applied
// in memory and then logged as a redo-only CLR whose UndoNext points at the
// transaction's next still-to-be-undone record, so a restart that finds a
// partial CLR chain resumes the rollback where it stopped instead of
// re-undoing compensated work. Once the chain is complete an abort record is
// appended; a durable abort record marks the rollback as fully logged.
//
// Lock release mirrors preCommit, governed by its own knob
// (Config.EarlyLockReleaseAborts) so the abort-elr ablation can isolate the
// abort-side policy from commit-side ELR. Under ELR-for-aborts the locks are
// released (with SLI inheritance) as soon as the abort record is appended —
// before any flush — which is safe for the same log-ordering reason as
// commit-side ELR: the undo is fully applied before release, so any
// transaction that observed the restored values logs at a higher LSN than
// the abort record; if that dependent's commit becomes durable, the entire
// CLR chain and abort record below it are durable too, and if the tail is
// lost both sides roll back together. Without it the transaction holds its
// locks until the abort record is durable — the strict baseline whose flush
// wait the high-abort ablation measures.
func (tx *Tx) abort() {
	logOK := tx.logged
	for i := len(tx.undo) - 1; i >= 0; i-- {
		ent := tx.undo[i]
		// Failures are counted by applyUndo; rollback continues regardless,
		// since locks are still held and memory must stay as consistent as
		// possible.
		//slint:ignore errwedge failures are counted in UndoFailures by applyUndo; rollback must continue under held locks
		_ = tx.applyUndo(ent)
		if logOK {
			if _, err := tx.logCLR(ent, i); err != nil {
				// The log is wedged or crashed: keep applying the in-memory
				// undo (locks are still held, memory must stay consistent)
				// but stop logging — recovery will finish the rollback from
				// the durable prefix.
				logOK = false
			}
		}
	}
	if logOK && tx.e.nShards > 1 {
		tx.finishAbortSharded()
		return
	}
	if logOK {
		lsn, err := tx.appendTimed(tx.e.log, wal.Record{XID: tx.xid, Type: wal.RecAbort}, profiler.AbortLogWork)
		if err == nil {
			tx.lastLSN = lsn
			if tx.e.cfg.EarlyLockReleaseAborts {
				// ELR for aborts: the rollback is applied and fully logged;
				// release now and let the abort record reach disk with the
				// next group commit. The subscription's ack is discarded —
				// nothing waits on an abort's durability — but it must still
				// be registered: the flusher only wakes for subscriptions (or
				// a full buffer), so without it an abort on an otherwise idle
				// engine would sit in the volatile buffer indefinitely.
				//slint:ignore errwedge nothing waits on an abort's durability; the subscription only forces a flusher wakeup
				_ = tx.e.log.FlushAsync(tx.lastLSN)
				tx.e.elrAborts.Add(1)
				tx.owner.ReleaseAllEarly()
				tx.undo = nil
				return
			}
			flushStart := tx.prof.Start()
			//slint:ignore errwedge abort is already the failure path; a wedged log here surfaces on the next append
			_ = tx.e.log.Flush(tx.lastLSN)
			tx.prof.AddSince(profiler.LogFlush, flushStart)
		}
	}
	tx.owner.ReleaseAll()
	tx.undo = nil
}

// finishAbortSharded closes a multi-log rollback: the CLR chain is already
// applied and logged (per shard, by logCLR), so one abort record goes to
// every shard holding this transaction's begin record — recovery marks the
// rollback complete on a shard only when that shard's abort record is
// durable, and an incomplete shard resumes from its own CLR chain. Lock
// release mirrors the single-log abort path: under ELR-for-aborts the locks
// drop at append (the restored values are deterministic, so recovery
// reproduces them whether or not the abort records survive); otherwise the
// abort records on all shards are forced — in parallel — first.
func (tx *Tx) finishAbortSharded() {
	appended := uint64(0)
	ok := true
	for s := 0; s < tx.e.nShards; s++ {
		if tx.began&(1<<uint(s)) == 0 {
			continue
		}
		lsn, err := tx.appendTimed(tx.e.logs[s], wal.Record{XID: tx.xid, Type: wal.RecAbort}, profiler.AbortLogWork)
		if err != nil {
			// The log is wedged: stop logging; recovery finishes the
			// rollback from each shard's durable prefix.
			ok = false
			break
		}
		tx.shardLast[s] = lsn
		appended |= 1 << uint(s)
	}
	if ok {
		if tx.e.cfg.EarlyLockReleaseAborts {
			for s := 0; s < tx.e.nShards; s++ {
				if appended&(1<<uint(s)) == 0 {
					continue
				}
				// As in the single-log path: nothing waits on an abort's
				// durability, but the subscription must be registered so each
				// shard's flusher wakes for it.
				//slint:ignore errwedge nothing waits on an abort's durability; the subscription only forces a flusher wakeup
				_ = tx.e.logs[s].FlushAsync(tx.shardLast[s])
			}
			tx.e.elrAborts.Add(1)
			tx.owner.ReleaseAllEarly()
			tx.undo = nil
			return
		}
		acks := make([]<-chan error, 0, bits.OnesCount64(appended))
		for s := 0; s < tx.e.nShards; s++ {
			if appended&(1<<uint(s)) == 0 {
				continue
			}
			acks = append(acks, tx.e.logs[s].FlushAsync(tx.shardLast[s]))
		}
		flushStart := tx.prof.Start()
		for _, ack := range acks {
			// Abort is already the failure path; a wedged shard surfaces on
			// the next append.
			<-ack
		}
		tx.prof.AddSince(profiler.LogFlush, flushStart)
	}
	tx.owner.ReleaseAll()
	tx.undo = nil
}

// applyUndo applies one registered undo action in memory, attributing its
// time to the UndoWork profiler category and counting failures (which mean
// the in-memory state may be corrupt — torture tests fail loudly on them).
func (tx *Tx) applyUndo(ent undoEntry) error {
	undoStart := tx.prof.Start()
	err := ent.apply(tx)
	if err != nil {
		tx.e.undoFailures.Add(1)
	}
	tx.prof.AddSince(profiler.UndoWork, undoStart)
	return err
}

// logCLR appends the compensation record for undo entry i of tx.undo, to
// the same log shard the original record went to. Its UndoNext points at
// the next-older registered entry's LSN on that shard (0 when this
// compensation closes the shard's chain): CLR chains are per shard, since
// an LSN is meaningless on any other shard's log. On single-shard engines
// every entry has shard 0, which reduces to the classic single chain.
func (tx *Tx) logCLR(ent undoEntry, i int) (wal.LSN, error) {
	clr := ent.clr
	clr.Type = wal.RecCLR
	clr.XID = tx.xid
	for j := i - 1; j >= 0; j-- {
		if tx.undo[j].shard == ent.shard {
			clr.UndoNext = tx.undo[j].lsn
			break
		}
	}
	lsn, err := tx.appendTimed(tx.e.logs[ent.shard], clr, profiler.AbortLogWork)
	if err != nil {
		return 0, err
	}
	if tx.e.nShards == 1 {
		tx.lastLSN = lsn
	} else {
		tx.shardLast[ent.shard] = lsn
	}
	return lsn, nil
}

// Savepoint marks the transaction's current rollback position. A later
// RollbackTo(sp) undoes every modification made after the mark while keeping
// the transaction (and all its locks) alive, so it can continue and commit.
type Savepoint struct {
	n   int    // length of tx.undo at the time of the mark
	seq uint64 // birth stamp of the entry just below the mark (0 at n == 0)
}

// Savepoint returns a savepoint at the transaction's current position.
func (tx *Tx) Savepoint() Savepoint {
	sp := Savepoint{n: len(tx.undo)}
	if sp.n > 0 {
		sp.seq = tx.undo[sp.n-1].seq
	}
	return sp
}

// ErrBadSavepoint is returned by RollbackTo when the savepoint does not
// belong to this transaction's current undo chain — it was taken above work
// that a previous RollbackTo already rolled back, even if later writes have
// since regrown the chain past its position (the birth stamp of the entry
// below the mark distinguishes the two). Savepoints below the rolled-back
// span stay valid, so nested savepoint patterns work.
var ErrBadSavepoint = errors.New("core: invalid savepoint")

// RollbackTo rolls the transaction back to sp: every modification registered
// after the savepoint is undone in memory and compensation-logged exactly as
// an abort would — one redo-only CLR per record, newest first, chained
// through UndoNext past the rolled-back span — but the transaction keeps its
// locks and remains open. Work done before the savepoint, and work done
// after RollbackTo returns, commits or aborts with the transaction as usual;
// a crash at any point is handled by recovery, which resumes from the last
// durable CLR and also undoes records logged after it (the post-savepoint
// continuation).
//
// On a wedged or crashed log the in-memory rollback still completes (the
// transaction's locks protect the data, so memory must stay consistent) but
// the error is returned; the caller should abort the transaction.
func (tx *Tx) RollbackTo(sp Savepoint) error {
	if sp.n < 0 || sp.n > len(tx.undo) {
		return ErrBadSavepoint
	}
	if sp.n > 0 && tx.undo[sp.n-1].seq != sp.seq {
		// The stack regrew past sp.n after an earlier RollbackTo truncated
		// below it: positionally plausible, but the mark's span is gone.
		return ErrBadSavepoint
	}
	var retErr, logErr error
	for i := len(tx.undo) - 1; i >= sp.n; i-- {
		ent := tx.undo[i]
		// An in-memory undo failure is counted (UndoFailures) and reported,
		// but — exactly like abort() — it must NOT stop the CLR logging:
		// the remaining entries' compensations still have to reach the log,
		// or a later durable abort record would mark the rollback complete
		// with uncompensated records in it. Only a log failure stops
		// appending (the log is wedged; recovery finishes the rollback from
		// the durable prefix).
		if err := tx.applyUndo(ent); err != nil && retErr == nil {
			retErr = err
		}
		if logErr == nil {
			if _, err := tx.logCLR(ent, i); err != nil {
				logErr = err
				if retErr == nil {
					retErr = err
				}
			}
		}
		// The entry is undone in memory either way; drop it so a later abort
		// (or RollbackTo) never double-undoes it.
		tx.undo = tx.undo[:i]
	}
	return retErr
}

// lockRecord acquires a record lock (and, implicitly, intention locks on the
// record's page, table and the database).
func (tx *Tx) lockRecord(tableID uint32, rid heap.RID, mode lockmgr.Mode) error {
	return tx.owner.Lock(lockmgr.RecordLock(databaseID, tableID, rid.Page, rid.Slot), mode)
}

// lockTable acquires an explicit table-level lock.
func (tx *Tx) lockTable(tableID uint32, mode lockmgr.Mode) error {
	return tx.owner.Lock(lockmgr.TableLock(databaseID, tableID), mode)
}

// Insert adds a row to the table, returning ErrDuplicateKey if the primary
// key (or a unique secondary index key) already exists.
func (tx *Tx) Insert(table string, row record.Row) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	if err := rt.meta.Schema.Validate(row); err != nil {
		return err
	}
	// Announce write intent on the table before touching pages.
	if err := tx.lockTable(rt.meta.ID, lockmgr.IX); err != nil {
		return err
	}
	pkKey := record.EncodeKey(rt.meta.PrimaryKeyOf(row)...)
	if _, exists := rt.pk.tree.get(pkKey); exists {
		return fmt.Errorf("%w: %s in %s", ErrDuplicateKey, pkKey, table)
	}
	data, err := rt.meta.Schema.Encode(row)
	if err != nil {
		return err
	}
	rid, err := rt.hf.Insert(tx.prof, data)
	if err != nil {
		return err
	}
	if err := tx.lockRecord(rt.meta.ID, rid, lockmgr.X); err != nil {
		// The row is not yet visible through any index; undo the heap insert.
		_ = rt.hf.Delete(tx.prof, rid)
		return err
	}
	if !rt.pk.tree.insert(pkKey, rid) {
		// Lost a race with a concurrent insert of the same key.
		_ = rt.hf.Delete(tx.prof, rid)
		return fmt.Errorf("%w: %s in %s", ErrDuplicateKey, pkKey, table)
	}
	secKeys := make([]string, len(rt.secs))
	for i, sec := range rt.secs {
		secKeys[i] = indexKey(sec.meta.KeyOf(row), rid, sec.meta.Unique)
		if !sec.tree.insert(secKeys[i], rid) {
			// Unique violation: roll back what we did so far.
			for j := 0; j < i; j++ {
				rt.secs[j].tree.remove(secKeys[j])
			}
			rt.pk.tree.remove(pkKey)
			_ = rt.hf.Delete(tx.prof, rid)
			return fmt.Errorf("%w: index %s", ErrDuplicateKey, rt.secs[i].meta.Name)
		}
	}
	undo := func(tx *Tx) error {
		for i, sec := range rt.secs {
			sec.tree.remove(secKeys[i])
		}
		rt.pk.tree.remove(pkKey)
		return rt.hf.Delete(tx.prof, rid)
	}
	shard := tx.e.shardOf(rt.meta.ID, pkKey)
	if err := tx.logAppend(shard, wal.Record{Type: wal.RecInsert, Table: rt.meta.ID, Page: rid.Page, Slot: rid.Slot, After: data}); err != nil {
		// The row is already in the heap and indexes but nothing reached the
		// log: roll the mutation back inline so a wedged log cannot leave a
		// phantom row with no registered undo.
		if uerr := undo(tx); uerr != nil {
			tx.e.undoFailures.Add(1)
		}
		return err
	}
	tx.pushUndo(undoEntry{
		lsn:   tx.lastShardLSN(shard),
		shard: shard,
		apply: undo,
		// Compensating an insert is a delete: Before carries the row image.
		clr: wal.Record{Table: rt.meta.ID, Page: rid.Page, Slot: rid.Slot, Before: data},
	})
	return nil
}

// lastShardLSN returns the LSN of the record just appended to the given
// shard (the single-shard engine keeps it in lastLSN).
func (tx *Tx) lastShardLSN(shard int) wal.LSN {
	if tx.e.nShards == 1 {
		return tx.lastLSN
	}
	return tx.shardLast[shard]
}

// Get returns the row with the given primary key, locking it in share mode.
// The boolean result reports whether the row exists.
func (tx *Tx) Get(table string, key ...record.Value) (record.Row, bool, error) {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return nil, false, err
	}
	row, _, found, err := tx.get(rt, lockmgr.S, key...)
	return row, found, err
}

// GetForUpdate returns the row with the given primary key, locking it
// exclusively so it can subsequently be updated or deleted.
func (tx *Tx) GetForUpdate(table string, key ...record.Value) (record.Row, bool, error) {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return nil, false, err
	}
	row, _, found, err := tx.get(rt, lockmgr.X, key...)
	return row, found, err
}

func (tx *Tx) get(rt *tableRuntime, mode lockmgr.Mode, key ...record.Value) (record.Row, heap.RID, bool, error) {
	pkKey := record.EncodeKey(key...)
	if tx.trackReads() {
		// The shard is part of the commit's participant set whether the row
		// is found or not: observing a row's absence can equally depend on a
		// pre-committed (deleting) transaction on that shard.
		tx.readMask |= 1 << uint(tx.e.shardOf(rt.meta.ID, pkKey))
	}
	rid, ok := rt.pk.tree.get(pkKey)
	if !ok {
		// Lock the table in intention mode so the read of "not there" is at
		// least protected against drops; record-level locking cannot lock a
		// missing key (no next-key locking in this engine).
		if err := tx.lockTable(rt.meta.ID, lockmgr.ParentMode(mode)); err != nil {
			return nil, heap.RID{}, false, err
		}
		return nil, heap.RID{}, false, nil
	}
	if err := tx.lockRecord(rt.meta.ID, rid, mode); err != nil {
		return nil, heap.RID{}, false, err
	}
	data, err := rt.hf.Get(tx.prof, rid)
	if err != nil {
		if errors.Is(err, heap.ErrNotFound) {
			return nil, heap.RID{}, false, nil
		}
		return nil, heap.RID{}, false, err
	}
	row, err := rt.meta.Schema.Decode(data)
	if err != nil {
		return nil, heap.RID{}, false, err
	}
	return row, rid, true, nil
}

// Update looks up the row by primary key, locks it exclusively, applies
// mutate to it and writes the result back. mutate receives a copy it may
// modify in place and return. Primary-key columns must not change.
func (tx *Tx) Update(table string, key []record.Value, mutate func(record.Row) (record.Row, error)) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	oldRow, rid, found, err := tx.get(rt, lockmgr.X, key...)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	newRow, err := mutate(oldRow.Clone())
	if err != nil {
		return err
	}
	if err := rt.meta.Schema.Validate(newRow); err != nil {
		return err
	}
	oldPK := record.EncodeKey(rt.meta.PrimaryKeyOf(oldRow)...)
	newPK := record.EncodeKey(rt.meta.PrimaryKeyOf(newRow)...)
	if oldPK != newPK {
		return ErrPrimaryKeyChange
	}
	oldData, err := rt.meta.Schema.Encode(oldRow)
	if err != nil {
		return err
	}
	newData, err := rt.meta.Schema.Encode(newRow)
	if err != nil {
		return err
	}
	if err := rt.hf.Update(tx.prof, rid, newData); err != nil {
		return err
	}
	// Maintain secondary indexes whose key changed.
	type secChange struct {
		sec      *index
		old, new string
	}
	var changes []secChange
	for _, sec := range rt.secs {
		oldKey := indexKey(sec.meta.KeyOf(oldRow), rid, sec.meta.Unique)
		newKey := indexKey(sec.meta.KeyOf(newRow), rid, sec.meta.Unique)
		if oldKey == newKey {
			continue
		}
		sec.tree.remove(oldKey)
		sec.tree.insert(newKey, rid)
		changes = append(changes, secChange{sec, oldKey, newKey})
	}
	undo := func(tx *Tx) error {
		for _, ch := range changes {
			ch.sec.tree.remove(ch.new)
			ch.sec.tree.insert(ch.old, rid)
		}
		return rt.hf.Update(tx.prof, rid, oldData)
	}
	shard := tx.e.shardOf(rt.meta.ID, oldPK)
	if err := tx.logAppend(shard, wal.Record{Type: wal.RecUpdate, Table: rt.meta.ID, Page: rid.Page, Slot: rid.Slot, Before: oldData, After: newData}); err != nil {
		// Heap and index already carry the new image; restore the old one
		// inline since no undo was registered for this mutation.
		if uerr := undo(tx); uerr != nil {
			tx.e.undoFailures.Add(1)
		}
		return err
	}
	tx.pushUndo(undoEntry{
		lsn:   tx.lastShardLSN(shard),
		shard: shard,
		apply: undo,
		// Compensating an update restores the before-image: update the row
		// matching Before's primary key back to After.
		clr: wal.Record{Table: rt.meta.ID, Page: rid.Page, Slot: rid.Slot, Before: newData, After: oldData},
	})
	return nil
}

// Delete removes the row with the given primary key. It returns ErrNotFound
// if the row does not exist.
func (tx *Tx) Delete(table string, key ...record.Value) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	oldRow, rid, found, err := tx.get(rt, lockmgr.X, key...)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	oldData, err := rt.meta.Schema.Encode(oldRow)
	if err != nil {
		return err
	}
	pkKey := record.EncodeKey(rt.meta.PrimaryKeyOf(oldRow)...)
	for _, sec := range rt.secs {
		sec.tree.remove(indexKey(sec.meta.KeyOf(oldRow), rid, sec.meta.Unique))
	}
	rt.pk.tree.remove(pkKey)
	if err := rt.hf.Delete(tx.prof, rid); err != nil {
		// The heap still holds the row at rid; re-insert the index entries
		// removed above so the indexes stay consistent with the heap.
		rt.pk.tree.insert(pkKey, rid)
		for _, sec := range rt.secs {
			sec.tree.insert(indexKey(sec.meta.KeyOf(oldRow), rid, sec.meta.Unique), rid)
		}
		return err
	}
	// The undo re-inserts the row at a fresh RID and rebuilds every index key
	// from it; the RIDs the original row occupied are not reserved.
	undo := func(tx *Tx) error {
		newRID, uerr := rt.hf.Insert(tx.prof, oldData)
		if uerr != nil {
			return uerr
		}
		rt.pk.tree.insert(pkKey, newRID)
		for _, sec := range rt.secs {
			sec.tree.insert(indexKey(sec.meta.KeyOf(oldRow), newRID, sec.meta.Unique), newRID)
		}
		return nil
	}
	shard := tx.e.shardOf(rt.meta.ID, pkKey)
	if err := tx.logAppend(shard, wal.Record{Type: wal.RecDelete, Table: rt.meta.ID, Page: rid.Page, Slot: rid.Slot, Before: oldData}); err != nil {
		// The row is already gone from heap and indexes; put it back inline
		// since no undo was registered for this mutation.
		if uerr := undo(tx); uerr != nil {
			tx.e.undoFailures.Add(1)
		}
		return err
	}
	tx.pushUndo(undoEntry{
		lsn:   tx.lastShardLSN(shard),
		shard: shard,
		apply: undo,
		// Compensating a delete re-inserts the row: After carries the image.
		clr: wal.Record{Table: rt.meta.ID, Page: rid.Page, Slot: rid.Slot, After: oldData},
	})
	return nil
}

// LookupIndex returns every row whose indexed columns equal key, locking
// each returned row in share mode.
func (tx *Tx) LookupIndex(indexName string, key ...record.Value) ([]record.Row, error) {
	return tx.lookupIndex(indexName, lockmgr.S, key...)
}

// LookupIndexForUpdate is LookupIndex with exclusive row locks.
func (tx *Tx) LookupIndexForUpdate(indexName string, key ...record.Value) ([]record.Row, error) {
	return tx.lookupIndex(indexName, lockmgr.X, key...)
}

func (tx *Tx) lookupIndex(indexName string, mode lockmgr.Mode, key ...record.Value) ([]record.Row, error) {
	tx.e.mu.RLock()
	idx, ok := tx.e.secs[indexName]
	var rt *tableRuntime
	if ok {
		rt = tx.e.tables[idx.meta.TableID]
	}
	tx.e.mu.RUnlock()
	if rt == nil {
		return nil, fmt.Errorf("core: unknown index %q", indexName)
	}
	tbl, hf := rt.meta, rt.hf

	prefix := record.EncodeKey(key...)
	var rids []heap.RID
	if idx.meta.Unique {
		if rid, ok := idx.tree.get(prefix); ok {
			rids = append(rids, rid)
		}
	} else {
		idx.tree.scanRange(prefix, prefix+"\xff", func(k string, rid heap.RID) bool {
			rids = append(rids, rid)
			return true
		})
	}
	var rows []record.Row
	for _, rid := range rids {
		if err := tx.lockRecord(idx.meta.TableID, rid, mode); err != nil {
			return nil, err
		}
		data, err := hf.Get(tx.prof, rid)
		if err != nil {
			if errors.Is(err, heap.ErrNotFound) {
				continue
			}
			return nil, err
		}
		row, err := tbl.Schema.Decode(data)
		if err != nil {
			return nil, err
		}
		if tx.trackReads() {
			tx.readMask |= 1 << uint(tx.e.shardOf(idx.meta.TableID, record.EncodeKey(tbl.PrimaryKeyOf(row)...)))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScanRange visits every row whose primary key is in [lo, hi] in key order,
// locking each visited row in share mode. Iteration stops early if fn
// returns false.
func (tx *Tx) ScanRange(table string, lo, hi []record.Value, fn func(record.Row) bool) error {
	return tx.scanRange(table, lockmgr.S, lo, hi, fn)
}

// ScanRangeForUpdate is ScanRange with exclusive row locks, for transactions
// that will modify or delete the rows they visit (SELECT ... FOR UPDATE).
// Locking exclusively up front avoids share-to-exclusive conversion
// deadlocks between concurrent writers.
func (tx *Tx) ScanRangeForUpdate(table string, lo, hi []record.Value, fn func(record.Row) bool) error {
	return tx.scanRange(table, lockmgr.X, lo, hi, fn)
}

func (tx *Tx) scanRange(table string, mode lockmgr.Mode, lo, hi []record.Value, fn func(record.Row) bool) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	loKey := record.EncodeKey(lo...)
	hiKey := ""
	if len(hi) > 0 {
		hiKey = record.EncodeKey(hi...) + "\xff"
	}
	type hit struct {
		rid heap.RID
	}
	var hits []hit
	rt.pk.tree.scanRange(loKey, hiKey, func(k string, rid heap.RID) bool {
		hits = append(hits, hit{rid})
		return true
	})
	for _, hh := range hits {
		if err := tx.lockRecord(rt.meta.ID, hh.rid, mode); err != nil {
			return err
		}
		data, err := rt.hf.Get(tx.prof, hh.rid)
		if err != nil {
			if errors.Is(err, heap.ErrNotFound) {
				continue
			}
			return err
		}
		row, err := rt.meta.Schema.Decode(data)
		if err != nil {
			return err
		}
		if tx.trackReads() {
			tx.readMask |= 1 << uint(tx.e.shardOf(rt.meta.ID, record.EncodeKey(rt.meta.PrimaryKeyOf(row)...)))
		}
		if !fn(row) {
			return nil
		}
	}
	return nil
}

// ScanTable visits every row of the table under a table-level share lock
// (no per-row locks), as a coarse-grained reader would.
func (tx *Tx) ScanTable(table string, fn func(record.Row) bool) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	if err := tx.lockTable(rt.meta.ID, lockmgr.S); err != nil {
		return err
	}
	if tx.trackReads() {
		// A table scan observes every row (and every absence) in the table,
		// whose rows hash across all shards: the commit must rendezvous with
		// all of them.
		tx.readMask |= (uint64(1) << uint(tx.e.nShards)) - 1
	}
	err = rt.hf.Scan(tx.prof, func(rid heap.RID, rec []byte) bool {
		row, derr := rt.meta.Schema.Decode(rec)
		if derr != nil {
			err = derr
			return false
		}
		return fn(row)
	})
	return err
}
