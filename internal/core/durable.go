package core

import (
	"errors"
	"fmt"

	"slidb/internal/catalog"
	"slidb/internal/heap"
	"slidb/internal/record"
	"slidb/internal/recovery"
	"slidb/internal/wal"
)

// ErrNotDurable is returned by durability operations on engines opened
// without a data directory.
var ErrNotDurable = errors.New("core: engine has no data directory (opened with Open, not OpenAt)")

// RecoveryStats describes the restart work OpenAt performed.
type RecoveryStats struct {
	// CheckpointLSN is the LSN of the checkpoint the restart started from
	// (0 when the directory had no checkpoint).
	CheckpointLSN uint64
	// TablesRestored / RowsRestored count the checkpoint image.
	TablesRestored int
	RowsRestored   int
	// LogRecordsScanned is the size of the log tail analyzed.
	LogRecordsScanned int
	// Winners and Losers count the transactions the analysis pass
	// classified by the durability of their commit record.
	Winners int
	Losers  int
	// RollbacksComplete counts losers whose rollback was fully logged
	// before the crash (durable abort record, or a CLR chain ending at
	// UndoNext 0): redo repeats their history verbatim and the undo pass
	// skips them.
	RollbacksComplete int
	// RecordsRedone counts data records replayed by the repeat-history redo
	// pass (winners and losers alike); CLRsRedone counts the compensation
	// records replayed alongside them.
	RecordsRedone int
	CLRsRedone    int
	// RecordsUndone counts loser data records rolled back by the restart
	// undo pass; TxUndone counts the transactions it completed, and
	// RollbacksResumed the subset whose partially-logged rollback was
	// resumed from its last durable CLR's UndoNext instead of restarted.
	RecordsUndone    int
	TxUndone         int
	RollbacksResumed int
	// DDLReplayed counts CREATE TABLE / CREATE INDEX records replayed.
	DDLReplayed int
}

// RecoveryStats returns the restart statistics recorded by OpenAt; the zero
// value for engines created with Open.
func (e *Engine) RecoveryStats() RecoveryStats { return e.recStats }

// DataDir returns the engine's data directory ("" for volatile engines).
func (e *Engine) DataDir() string { return e.cfg.Dir }

// OpenAt opens a disk-backed engine rooted at dir, creating the directory on
// first use and running crash recovery over whatever a previous incarnation
// left behind: the most recent checkpoint is restored, then the durable log
// tail is analyzed (winners vs. losers) and the winners' effects are redone.
// Transactions whose commit record never reached disk — in flight at the
// crash, or aborted — leave no trace in the recovered state.
func OpenAt(dir string, cfg Config) (*Engine, error) {
	if dir == "" {
		return nil, errors.New("core: OpenAt requires a data directory")
	}
	cfg.Dir = dir
	cfg = cfg.withDefaults()

	snap, haveCkpt, err := recovery.ReadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	segsList, err := wal.OpenShardedSegments(dir, cfg.LogShards, cfg.SegmentBytes, cfg.PreallocateSegments)
	if err != nil {
		return nil, err
	}
	n := len(segsList)
	closeAll := func() {
		for _, sg := range segsList {
			sg.Close()
		}
	}

	// The checkpoint boundary vector holds each shard's durable watermark
	// the snapshot covered — exclusive end offsets, i.e. exactly the frame
	// boundaries replay resumes at. Byte-offset LSNs make both the resume
	// points and the restart of LSN allocation pure boundary arithmetic: no
	// "+1 past the last record" — dense-LSN counting — survives here.
	from := make([]wal.LSN, n)
	if haveCkpt {
		vec, verr := snap.Vector(n)
		if verr != nil {
			closeAll()
			return nil, verr
		}
		copy(from, vec)
	}
	iterFor := func(s int) recovery.Iterator {
		return func(fn func(wal.Record) error) error {
			return segsList[s].Iterate(from[s], fn)
		}
	}
	// Per-shard analysis, merged into the global commit verdict: a
	// transaction is committed only if every shard named in its commit
	// records' participant masks holds a durable commit record.
	per := make([]*recovery.Analysis, n)
	for s := range per {
		if per[s], err = recovery.Analyze(iterFor(s)); err != nil {
			closeAll()
			return nil, err
		}
	}
	committed, err := recovery.GlobalWinners(per)
	if err != nil {
		closeAll()
		return nil, err
	}

	startLSNs := make([]wal.LSN, n)
	for s := range startLSNs {
		startLSNs[s] = segsList[s].End()
		if haveCkpt && from[s] > startLSNs[s] {
			startLSNs[s] = from[s]
		}
	}
	e := newEngine(cfg, segsList, startLSNs)
	if haveCkpt {
		if err := e.restoreSnapshot(snap); err != nil {
			closeAll()
			return nil, err
		}
		e.recStats.CheckpointLSN = uint64(snap.LSN)
		e.recStats.TablesRestored = len(snap.Tables)
		for _, t := range snap.Tables {
			e.recStats.RowsRestored += len(t.Rows)
		}
		if snap.NextXID > e.nextXID.Load() {
			e.nextXID.Store(snap.NextXID)
		}
	}
	// Redo repeats history shard by shard, shard 0 first: DDL always routes
	// to shard 0, so replayed data records never reference missing tables.
	// Rows never span shards (records are routed by primary key), so each
	// shard's sequential replay preserves every row's update order.
	for s := 0; s < n; s++ {
		redo, rerr := recovery.Redo(iterFor(s), per[s], engineApplier{e})
		if rerr != nil {
			closeAll()
			return nil, rerr
		}
		e.recStats.RecordsRedone += redo.Redone
		e.recStats.CLRsRedone += redo.CLRs
		e.recStats.DDLReplayed += redo.DDL
	}
	// The undo pass logs its work into the new incarnation's logs — one CLR
	// per record undone plus an abort record per completed rollback, each on
	// the shard the original record lives on — so the next restart sees
	// these losers as fully rolled back instead of re-undoing them on top of
	// whatever commits in the meantime. A shard rolls a transaction back
	// when it was a loser there, or a demoted winner: its commit record
	// survived on this shard but a participant shard's did not.
	for s := 0; s < n; s++ {
		an := per[s]
		needs := func(xid uint64) bool {
			if _, ok := committed[xid]; ok {
				return false
			}
			if _, rolledBack := an.RolledBack[xid]; rolledBack {
				return false
			}
			if _, lost := an.Losers[xid]; lost {
				return true
			}
			_, won := an.Winners[xid]
			return won
		}
		shardLog := e.logs[s]
		undo, uerr := recovery.UndoWith(iterFor(s), an, engineApplier{e}, func(rec wal.Record) error {
			_, aerr := shardLog.Append(rec)
			return aerr
		}, needs)
		if uerr != nil {
			closeAll()
			return nil, uerr
		}
		e.recStats.RecordsUndone += undo.Undone
		e.recStats.TxUndone += undo.TxUndone
		e.recStats.RollbacksResumed += undo.Resumed
	}
	for _, an := range per {
		if an.MaxXID > e.nextXID.Load() {
			// Resume XID allocation above every XID in any shard's log tail,
			// so a new transaction can never share an XID with a stale loser
			// record.
			e.nextXID.Store(an.MaxXID)
		}
		e.recStats.LogRecordsScanned += an.Scanned
		e.recStats.Winners += len(an.Winners)
		e.recStats.Losers += len(an.Losers)
		e.recStats.RollbacksComplete += len(an.RolledBack)
	}

	e.SetConcurrency(cfg.Agents)
	return e, nil
}

// restoreSnapshot loads a checkpoint image: catalog, heap rows and indexes.
func (e *Engine) restoreSnapshot(snap *recovery.Snapshot) error {
	for _, ts := range snap.Tables {
		tbl, err := e.cat.RestoreTable(ts.Meta)
		if err != nil {
			return err
		}
		e.installTable(tbl)
		rt := e.tableRuntimeByID(tbl.ID)
		hf, pk := rt.hf, rt.pk
		for _, data := range ts.Rows {
			row, err := tbl.Schema.Decode(data)
			if err != nil {
				return fmt.Errorf("core: checkpoint row of %q: %w", tbl.Name, err)
			}
			rid, err := hf.Insert(nil, data)
			if err != nil {
				return err
			}
			pk.tree.insert(record.EncodeKey(tbl.PrimaryKeyOf(row)...), rid)
		}
	}
	for _, im := range snap.Indexes {
		ix, err := e.cat.RestoreIndex(im)
		if err != nil {
			return err
		}
		if err := e.installIndex(ix); err != nil {
			return err
		}
	}
	return nil
}

// redoRuntime returns the runtime of a table a redo record references.
func (e *Engine) redoRuntime(tableID uint32) (*tableRuntime, error) {
	rt := e.tableRuntimeByID(tableID)
	if rt == nil {
		return nil, fmt.Errorf("core: redo references unknown table %d", tableID)
	}
	return rt, nil
}

// engineApplier adapts the engine's heap files and B+trees to the recovery
// package's redo interface. Redo runs single-threaded before the agent pool
// starts, so no locks or log appends are taken.
type engineApplier struct{ e *Engine }

func (a engineApplier) CreateTable(m catalog.TableMeta) error {
	if _, ok := a.e.cat.TableByID(m.ID); ok {
		// Already present — restored from the checkpoint; DDL redo is
		// idempotent because checkpointing and DDL logging can overlap.
		return nil
	}
	tbl, err := a.e.cat.RestoreTable(m)
	if err != nil {
		return err
	}
	a.e.installTable(tbl)
	return nil
}

func (a engineApplier) CreateIndex(m catalog.IndexMeta) error {
	if _, ok := a.e.cat.Index(m.Name); ok {
		return nil
	}
	ix, err := a.e.cat.RestoreIndex(m)
	if err != nil {
		return err
	}
	return a.e.installIndex(ix)
}

func (a engineApplier) Insert(tableID uint32, after []byte) error {
	rt, err := a.e.redoRuntime(tableID)
	if err != nil {
		return err
	}
	row, err := rt.meta.Schema.Decode(after)
	if err != nil {
		return err
	}
	rid, err := rt.hf.Insert(nil, after)
	if err != nil {
		return err
	}
	rt.pk.tree.insert(record.EncodeKey(rt.meta.PrimaryKeyOf(row)...), rid)
	for _, sec := range rt.secs {
		sec.tree.insert(indexKey(sec.meta.KeyOf(row), rid, sec.meta.Unique), rid)
	}
	return nil
}

func (a engineApplier) Update(tableID uint32, before, after []byte) error {
	rt, err := a.e.redoRuntime(tableID)
	if err != nil {
		return err
	}
	newRow, err := rt.meta.Schema.Decode(after)
	if err != nil {
		return err
	}
	rid, ok := rt.pk.tree.get(record.EncodeKey(rt.meta.PrimaryKeyOf(newRow)...))
	if !ok {
		return fmt.Errorf("core: redo update of missing row in table %d", tableID)
	}
	if err := rt.hf.Update(nil, rid, after); err != nil {
		return err
	}
	if len(rt.secs) > 0 {
		oldRow, derr := rt.meta.Schema.Decode(before)
		if derr != nil {
			return derr
		}
		for _, sec := range rt.secs {
			oldKey := indexKey(sec.meta.KeyOf(oldRow), rid, sec.meta.Unique)
			newKey := indexKey(sec.meta.KeyOf(newRow), rid, sec.meta.Unique)
			if oldKey == newKey {
				continue
			}
			sec.tree.remove(oldKey)
			sec.tree.insert(newKey, rid)
		}
	}
	return nil
}

func (a engineApplier) Delete(tableID uint32, before []byte) error {
	rt, err := a.e.redoRuntime(tableID)
	if err != nil {
		return err
	}
	oldRow, err := rt.meta.Schema.Decode(before)
	if err != nil {
		return err
	}
	pkKey := record.EncodeKey(rt.meta.PrimaryKeyOf(oldRow)...)
	rid, ok := rt.pk.tree.get(pkKey)
	if !ok {
		return fmt.Errorf("core: redo delete of missing row in table %d", tableID)
	}
	for _, sec := range rt.secs {
		sec.tree.remove(indexKey(sec.meta.KeyOf(oldRow), rid, sec.meta.Unique))
	}
	rt.pk.tree.remove(pkKey)
	return rt.hf.Delete(nil, rid)
}

// Checkpoint persists a point-in-time image of the database and truncates
// the write-ahead log, bounding the work a future restart has to do. It
// briefly quiesces transaction execution (new transactions wait, in-flight
// ones drain), forces the log, snapshots the catalog and every table's rows
// to the checkpoint file, and deletes log segments the snapshot covers.
// Calling Checkpoint from inside a transaction body deadlocks.
func (e *Engine) Checkpoint() error {
	if e.closed.Load() {
		return ErrClosed
	}
	if len(e.segs) == 0 {
		return ErrNotDurable
	}
	e.execGate.Lock()
	defer e.execGate.Unlock()

	// Force every shard and capture the per-shard durable boundary vector.
	// The gate quiesces execution, so no transaction's records straddle it:
	// the table images reflect everything below the vector on every shard.
	vec := make([]wal.LSN, e.nShards)
	for s, l := range e.logs {
		if err := l.Flush(l.LastLSN()); err != nil {
			return err
		}
		vec[s] = l.DurableLSN()
	}

	snap := &recovery.Snapshot{LSN: vec[0], NextXID: e.nextXID.Load()}
	if e.nShards > 1 {
		snap.LSNs = vec
	}
	for _, tbl := range e.cat.Tables() {
		hf := e.tableRuntimeByID(tbl.ID).hf
		ts := recovery.TableSnapshot{Meta: catalog.TableMetaOf(tbl)}
		err := hf.Scan(nil, func(rid heap.RID, rec []byte) bool {
			ts.Rows = append(ts.Rows, rec)
			return true
		})
		if err != nil {
			return err
		}
		snap.Tables = append(snap.Tables, ts)
		for _, ix := range e.cat.TableIndexes(tbl.ID) {
			snap.Indexes = append(snap.Indexes, catalog.IndexMetaOf(ix))
		}
	}
	if err := recovery.WriteCheckpoint(e.cfg.Dir, snap); err != nil {
		return err
	}
	for s, sg := range e.segs {
		if err := sg.Checkpoint(vec[s]); err != nil {
			return err
		}
	}
	return nil
}
