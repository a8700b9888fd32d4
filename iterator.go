package iamdb

import (
	"time"

	"iamdb/internal/iterator"
	"iamdb/internal/kv"
)

// Iterator walks live user keys in ascending order at a fixed snapshot,
// hiding MVCC versions and tombstones.  Usage:
//
//	it := db.NewIterator()
//	defer it.Close()
//	for it.First(); it.Valid(); it.Next() {
//	    use(it.Key(), it.Value())
//	}
//
// Key and Value return copies safe to retain.
type Iterator struct {
	db   *DB
	in   *shardConcat
	snap kv.Seq
	key  []byte
	val  []byte
	// vkind is the raw kind behind val: a KindValuePtr val is a value-log
	// pointer that Value resolves lazily — scans that never call Value on
	// a key pay nothing for its large value — against vpipe, the
	// pipeline the record came from.
	vkind    kv.Kind
	vpipe    *pipeline
	valid    bool
	err      error
	backward bool
	closed   bool
}

// NewIterator returns an iterator over the DB at the current sequence
// number.  A scan merges both memtables and, per level, every sequence
// of at most one node (Sec. 5.2).  On a sharded DB the scan
// concatenates the shards' disjoint ranges in key order, forward and
// backward.
func (db *DB) NewIterator() *Iterator {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	return db.newIteratorAt(db.seqr.Visible())
}

// newIteratorAt builds the merged iterator from the read views at snap:
// the sequence must have been loaded before the states so the view
// covers it (see getAt).  The caller holds snapMu or a snapshot at
// snap, so no engine job can take a horizon above snap and drop a
// version the view needs while the views are captured.  Each pipeline
// counts the open iterator before its state is loaded: pointers a live
// view captured must stay resolvable, so value-log segment deletion
// waits for it.
func (db *DB) newIteratorAt(snap kv.Seq) *Iterator {
	kids := make([]iterator.ReverseIterator, len(db.pipes))
	for i, p := range db.pipes {
		p.iterOpen.Add(1)
		st := p.state.Load()
		sub := []iterator.Iterator{st.mem.NewIter()}
		if st.imm != nil {
			sub = append(sub, st.imm.NewIter())
		}
		sub = append(sub, p.eng.NewIter())
		kids[i] = iterator.NewMerging(kv.CompareInternal, sub...)
	}
	return &Iterator{
		db:   db,
		in:   &shardConcat{part: db.part, kids: kids, pipes: db.pipes, cur: -1},
		snap: snap,
	}
}

// First positions at the smallest live key.  Positioning latency
// (First and Seek) feeds the DB's scan histogram.
func (it *Iterator) First() {
	var start time.Duration
	if it.db.timing {
		start = it.db.clock.Now()
	}
	it.backward = false
	it.in.First()
	it.advance(nil)
	if it.db.timing {
		it.db.scanHist.Record(it.db.clock.Now() - start)
	}
}

// Seek positions at the first live key >= ukey.
func (it *Iterator) Seek(ukey []byte) {
	var start time.Duration
	if it.db.timing {
		start = it.db.clock.Now()
	}
	it.backward = false
	it.in.Seek(kv.MakeInternalKey(ukey, it.snap, kv.MaxKind))
	it.advance(nil)
	if it.db.timing {
		it.db.scanHist.Record(it.db.clock.Now() - start)
	}
}

// Next advances past the current key to the next live key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	if it.backward {
		// Direction switch: the inner iterator rests before the
		// emitted key; jump to the first record past all its versions.
		it.backward = false
		it.in.Seek(kv.MakeInternalKey(it.key, 0, kv.KindDelete))
		it.advance(it.key)
		return
	}
	prev := it.key
	it.in.Next()
	it.advance(prev)
}

// advance finds the next visible, live user key, skipping versions
// above the snapshot, shadowed versions, tombstones, and skipKey.
func (it *Iterator) advance(skipKey []byte) {
	it.valid = false
	var shadowed []byte // user key whose newest visible version was consumed
	if skipKey != nil {
		shadowed = append([]byte(nil), skipKey...)
	}
	for it.in.Valid() {
		u, seq, kind, ok := kv.ParseInternalKey(it.in.Key())
		if !ok {
			it.err = errBadBatch
			return
		}
		if seq > it.snap {
			it.in.Next()
			continue
		}
		if shadowed != nil && kv.CompareUser(u, shadowed) == 0 {
			it.in.Next()
			continue
		}
		if kind == kv.KindDelete {
			shadowed = append(shadowed[:0], u...)
			it.in.Next()
			continue
		}
		it.key = append(it.key[:0], u...)
		it.val = append(it.val[:0], it.in.Value()...)
		it.vkind = kind
		it.vpipe = it.in.pipes[it.in.cur]
		it.valid = true
		return
	}
	if err := it.in.Err(); err != nil {
		it.err = err
	}
}

// Valid reports whether the iterator is positioned at a live entry.
func (it *Iterator) Valid() bool { return it.valid && it.err == nil }

// Key returns the current user key.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value, resolving key-value-separated
// records through the value log on first access (the result is cached
// for repeated calls at the same position).  A resolution failure —
// always a typed corruption — invalidates the iterator and surfaces
// through Err.
func (it *Iterator) Value() []byte {
	if it.valid && it.vkind == kv.KindValuePtr {
		v, err := it.vpipe.resolvePointer(it.key, it.val)
		if err != nil {
			it.err = err
			it.valid = false
			return nil
		}
		it.val = append(it.val[:0], v...)
		it.vkind = kv.KindSet
	}
	return it.val
}

// Err reports the first error encountered.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's resources.
func (it *Iterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	for _, p := range it.db.pipes {
		p.iterRelease()
	}
	return it.in.Close()
}
