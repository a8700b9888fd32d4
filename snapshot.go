package iamdb

import (
	"iamdb/internal/kv"
)

// Snapshot is a consistent read-only view of the DB as of its creation.
// Merges retain every record version a live snapshot can still see
// (Sec. 5.2's deferred deletes respect this), so release snapshots
// promptly to let compaction reclaim space.
type Snapshot struct {
	db       *DB
	seq      kv.Seq
	released bool
}

// GetSnapshot captures the current state.  Callers must Release it.
// The sequence is the watermark — a consistent cut no torn cross-shard
// batch can straddle — registered in the DB's snapshot registry, which
// every engine job consults for its horizon (see horizon).  Loading the
// watermark and registering it happen under one snapMu hold, so no job
// can pick a horizon above the snapshot in between.
func (db *DB) GetSnapshot() *Snapshot {
	db.snapMu.Lock()
	s := &Snapshot{db: db, seq: db.seqr.Visible()}
	db.snaps[s.seq]++
	db.snapMu.Unlock()
	return s
}

// Release ends the snapshot's protection; idempotent.  It nudges the
// value-log collectors: deferred segment deletions wait for the last
// snapshot.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	db := s.db
	db.snapMu.Lock()
	if db.snaps[s.seq]--; db.snaps[s.seq] <= 0 {
		delete(db.snaps, s.seq)
	}
	db.snapMu.Unlock()
	for _, p := range db.pipes {
		if p.vl != nil {
			p.kickVlogGC()
		}
	}
}

// horizon is the sequence an engine job may drop shadowed versions at
// or below: the oldest live snapshot, and never above the watermark.
// Records a pipeline committed above the watermark (another pipeline's
// earlier allocation is still open) are invisible to every reader, so
// a version they shadow must survive until the watermark passes them.
// Jobs read it when they start; the watermark only rises, so a horizon
// read earlier is merely conservative.
func (db *DB) horizon() kv.Seq {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	h := db.seqr.Visible()
	for seq := range db.snaps {
		h = min(h, seq)
	}
	return h
}

// refreshHorizon hands the engine the current horizon; call it before
// every engine job (flush, compaction step, compaction drain).
func (p *pipeline) refreshHorizon() {
	p.eng.SetHorizon(p.db.horizon())
}

// Get reads a key as of the snapshot.  Pointer records resolve
// through the owning pipeline's value log; GC keeps every segment a
// live snapshot can still reference.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if s.released || s.db.closedA.Load() {
		return nil, ErrClosed
	}
	v, kind, err := s.db.getAt(key, s.seq)
	if err != nil {
		return nil, err
	}
	return finishGet(v, kind)
}

// NewIterator iterates the DB as of the snapshot.
func (s *Snapshot) NewIterator() *Iterator {
	return s.db.newIteratorAt(s.seq)
}
