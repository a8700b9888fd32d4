package iamdb

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"

	"iamdb/internal/corrupt"
	"iamdb/internal/kv"
	"iamdb/internal/metrics"
	"iamdb/internal/vlog"
)

// Key-value separation (WiscKey/Bitcask style; see DESIGN.md "Key-value
// separation").  Values at or above Options.ValueThreshold are appended
// once to a segmented, CRC-per-record value log and the tree carries a
// fixed-size pointer record (kv.KindValuePtr), so flushes, merges,
// splits and combines move O(pointer) bytes per large value instead of
// O(value).  The commit leader performs the separation inside the group
// commit — value durable before the WAL record carrying its pointer —
// and a background collector rewrites the live remainder of
// low-density segments through the normal write path, deleting a
// segment only once its replacement records are engine-durable.

// errVlogGCUncertain aborts a segment collection whose conditional
// rewrite could not prove every surviving record was superseded.
var errVlogGCUncertain = errors.New("iamdb: vlog GC liveness check failed; segment kept")

// openVLog opens the pipeline's value log when separation is
// configured or segment files already exist from an earlier run (so
// pointers written then stay resolvable even with separation now off).
// Runs during openPipeline, after WAL recovery and before any worker
// starts.
func (p *pipeline) openVLog() error {
	if p.opt.ValueThreshold <= 0 {
		names, err := p.db.fs.List(p.dir)
		if err != nil {
			return err
		}
		found := false
		for _, name := range names {
			if _, ok := vlog.ParseSegmentName(name); ok {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	vl, st, err := vlog.Open(p.db.fs, p.dir, p.opt.VlogSegmentSize)
	if err != nil {
		return err
	}
	p.vl = vl
	p.vlogOpenSt = st
	return nil
}

// kickVlogGC nudges the collector; safe from any goroutine, never
// blocks.
func (p *pipeline) kickVlogGC() {
	select {
	case p.vlogGCC <- struct{}{}:
	default:
	}
}

// vlogOnDrop is the engine's drop observer: every value-pointer record
// a merge discards credits its segment's discard bytes — the signal
// density GC runs on.  It runs with engine locks held, so it touches
// only the log's stats leaf lock.  Recovery flushes run before the log
// opens; their drops are skipped (their segments' density is simply
// undercounted until later drops).
func (p *pipeline) vlogOnDrop(kind kv.Kind, val []byte) {
	vl := p.vl
	if vl == nil || !vlog.IsValuePointer(kind, val) {
		return
	}
	ptr, _ := vlog.DecodePointer(val)
	vl.NoteDiscard(ptr.Segment, int64(ptr.Len))
	p.kickVlogGC()
}

// separateGroup is the commit leader's separation step, called with
// commitMu held before the group is encoded: large values move to the
// value log (their batches are substituted with shallow copies carrying
// pointer records — the caller's Batch is never mutated), GC rewrite
// batches are filtered against the current state, and the log is synced
// before the WAL append when SyncWrites is on, so a surviving pointer
// always has a surviving value underneath it — the same
// data-before-metadata discipline iamlint's syncorder pass checks.
//
// The returned byte count is what separation removed from the encoded
// group relative to what the user logically wrote (original value bytes
// minus pointer bytes), so user-byte accounting — the denominator of
// write amplification — stays in terms of user payload.
func (p *pipeline) separateGroup(group []*commitOp) (int64, error) {
	// Keys ordinary batches in this group write: a GC rewrite op for any
	// of them is dropped outright, so a rewrite can never shadow — and
	// thereby resurrect over — a same-group user write or delete,
	// regardless of sequence order within the group.
	var userKeys map[string]struct{}
	for _, op := range group {
		if op.b.gcOld != nil {
			continue
		}
		for _, bop := range op.b.ops {
			if userKeys == nil {
				userKeys = make(map[string]struct{})
			}
			userKeys[string(bop.key)] = struct{}{}
		}
	}
	th := p.opt.ValueThreshold
	var extra int64
	appended := false
	for _, op := range group {
		if op.b.gcOld != nil {
			if p.filterGCBatch(op.b, userKeys) {
				appended = true // rewritten values await the sync below
			}
			continue
		}
		if th <= 0 {
			continue
		}
		need := false
		for _, bop := range op.b.ops {
			if bop.kind == kv.KindSet && len(bop.val) >= th {
				need = true
				break
			}
		}
		if !need {
			continue
		}
		ops := make([]batchOp, len(op.b.ops))
		copy(ops, op.b.ops)
		for i := range ops {
			if ops[i].kind != kv.KindSet || len(ops[i].val) < th {
				continue
			}
			ptr, err := p.vl.Append(ops[i].key, ops[i].val)
			if err != nil {
				return 0, err
			}
			extra += int64(len(ops[i].val)) - vlog.PointerLen
			ops[i] = batchOp{kind: kv.KindValuePtr, key: ops[i].key, val: ptr.Encode()}
			p.vlogAppendsC.Inc()
			appended = true
		}
		op.b = &Batch{ops: ops}
	}
	if appended && p.opt.SyncWrites {
		if err := p.vl.Sync(); err != nil {
			return 0, err
		}
	}
	return extra, nil
}

// filterGCBatch drops every rewrite op whose key no longer resolves to
// exactly the pointer it is replacing — the key was overwritten,
// deleted, or is being written in this very group — and reports whether
// any op survived.  Caller holds commitMu, so the view it checks
// against includes every previously committed group.  A read failure
// (not ErrNotFound) leaves liveness unprovable: the op is dropped and
// the batch poisoned so the collector keeps the old segment.
func (p *pipeline) filterGCBatch(b *Batch, userKeys map[string]struct{}) bool {
	st := p.state.Load()
	kept := b.ops[:0]
	for i, op := range b.ops {
		stale := false
		if _, ok := userKeys[string(op.key)]; ok {
			stale = true
		} else {
			cur, kind, err := p.getRawAt(op.key, kv.MaxSeq, st.mem, st.imm)
			if err != nil && !errors.Is(err, ErrNotFound) {
				b.gcFailed = true
			}
			stale = err != nil || kind != kv.KindValuePtr ||
				string(cur) != string(b.gcOld[i])
		}
		if stale {
			// The freshly re-appended copy is garbage before it was ever
			// referenced; credit it so density accounting stays honest.
			if ptr, ok := vlog.DecodePointer(op.val); ok {
				p.vl.NoteDiscard(ptr.Segment, int64(ptr.Len))
			}
			continue
		}
		kept = append(kept, op)
	}
	b.ops = kept
	return len(kept) > 0
}

// maybeResolve rewrites a raw (value, kind) pair from the tree into the
// user-visible form: pointer records resolve through the value log
// (CRC-checked, key-verified), everything else passes through.
func (p *pipeline) maybeResolve(key, v []byte, kind kv.Kind) ([]byte, kv.Kind, error) {
	if kind != kv.KindValuePtr {
		return v, kind, nil
	}
	rv, err := p.resolvePointer(key, v)
	if err != nil {
		return nil, 0, err
	}
	return rv, kv.KindSet, nil
}

// resolvePointer reads one pointer's value from the log.  Every failure
// — malformed encoding, missing segment, CRC mismatch, key mismatch —
// is a typed corruption: the tree acknowledged a value the log cannot
// produce.
func (p *pipeline) resolvePointer(key, enc []byte) ([]byte, error) {
	ptr, ok := vlog.DecodePointer(enc)
	if !ok || p.vl == nil {
		err := corrupt.New(corrupt.LayerVLog, p.dir, -1, vlog.ErrBad,
			"tree carries an unresolvable value pointer")
		p.noteCorruption(err)
		return nil, err
	}
	v, err := p.vl.Read(ptr, key)
	if err != nil {
		p.noteCorruption(err)
		return nil, err
	}
	p.vlogResolvesC.Inc()
	return v, nil
}

// iterRelease undoes an iterator's count, kicking the collector when
// the last iterator closes so deferred segment deletions can proceed.
func (p *pipeline) iterRelease() {
	if p.iterOpen.Add(-1) == 0 && p.vl != nil {
		p.kickVlogGC()
	}
}

// vlogGCWorker is the background collector: woken by discard credits
// (and by iterators/snapshots releasing), it collects low-density
// segments until none qualifies.
func (p *pipeline) vlogGCWorker() {
	defer p.db.wg.Done()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("iamdb", "vlog-gc-worker")))
	for {
		select {
		case <-p.db.quit:
			return
		case <-p.vlogGCC:
		}
		for p.vlogGCOnce() {
			select {
			case <-p.db.quit:
				return
			default:
			}
		}
	}
}

// vlogGCOnce retries deferred deletions and collects at most one
// segment, reporting whether it did rewrite work.
func (p *pipeline) vlogGCOnce() bool {
	p.vlogTryDeletes()
	seg, ok := p.vl.PickGC(p.opt.VlogGCDiscardRatio)
	if !ok {
		return false
	}
	if err := p.vlogCollect(seg); err != nil {
		if p.db.closedA.Load() {
			return false
		}
		if IsCorruption(err) {
			// An unreadable segment must not wedge the collector; fence
			// it and surface the detection.
			p.noteCorruption(err)
			p.vl.MarkBad(seg)
		}
		return false
	}
	return true
}

// vlogCollect rewrites segment seg's live records through the normal
// write path and schedules the segment for deletion.  Liveness is
// checked twice: a lock-free pre-filter here (key still resolves to
// exactly this record's pointer) and the authoritative conditional
// check the commit leader runs under commitMu (filterGCBatch) — so a
// rewrite never resurrects a value a concurrent write or delete
// superseded.  The segment is deleted only after Flush makes the
// rewritten pointers engine-durable, and only once no iterator or
// snapshot that might still chase the old pointers remains open.
func (p *pipeline) vlogCollect(seg uint64) error {
	const (
		maxBatchOps   = 128
		maxBatchBytes = 4 << 20
	)
	newGC := func() *Batch { return &Batch{gcOld: make([][]byte, 0)} }
	b := newGC()
	var pending int
	flush := func() error {
		if b.Len() == 0 {
			return nil
		}
		if err := p.write(b, 0); err != nil {
			return err
		}
		if b.gcFailed {
			return errVlogGCUncertain
		}
		b = newGC()
		pending = 0
		return nil
	}
	err := p.vl.ScanSegment(seg, func(key, val []byte, ptr vlog.Pointer) error {
		if p.db.closedA.Load() {
			return ErrClosed
		}
		st := p.state.Load()
		cur, kind, err := p.getRawAt(key, kv.MaxSeq, st.mem, st.imm)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return nil // key gone: record is dead
			}
			return err
		}
		if kind != kv.KindValuePtr {
			return nil // overwritten inline or deleted
		}
		curp, ok := vlog.DecodePointer(cur)
		if !ok || curp != ptr {
			return nil // superseded by a newer log record
		}
		np, err := p.vl.Append(key, val)
		if err != nil {
			return err
		}
		b.putPointer(key, np.Encode(), cur)
		p.vlogGCRewrites.Inc()
		pending += len(val)
		if b.Len() >= maxBatchOps || pending >= maxBatchBytes {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	// Durability order: Flush pushes the rewritten pointers out of
	// WAL+memtable into the engine, whose manifest commit syncs them —
	// deleting the segment can then never orphan a recoverable pointer.
	if err := p.flush(); err != nil {
		return err
	}
	p.vlogGCSegments.Inc()
	p.vlogDeferDelete(seg)
	p.vlogTryDeletes()
	return nil
}

// vlogDeferDelete queues a fully-rewritten segment for deletion.
func (p *pipeline) vlogDeferDelete(seg uint64) {
	p.vlogPendMu.Lock()
	p.vlogPend = append(p.vlogPend, seg)
	p.vlogPendMu.Unlock()
}

// vlogTryDeletes removes queued segments once no iterator or snapshot
// is open.  Views created after a rewrite committed resolve only the
// rewritten pointers (newer sequences shadow the old ones), so the
// instant zero-check is sufficient: a view opened concurrently with the
// removal is already safe, and one opened before it holds the counter
// above zero.
func (p *pipeline) vlogTryDeletes() {
	if p.iterOpen.Load() != 0 {
		return
	}
	p.db.snapMu.Lock()
	pinned := len(p.db.snaps)
	p.db.snapMu.Unlock()
	if pinned != 0 {
		return
	}
	p.vlogPendMu.Lock()
	pend := p.vlogPend
	p.vlogPend = nil
	p.vlogPendMu.Unlock()
	for _, seg := range pend {
		if err := p.vl.RemoveSegment(seg); err != nil {
			p.vlogDeferDelete(seg) // head or transient failure: retry later
		}
	}
}

// closeVlog closes the value log at DB close.
func (p *pipeline) closeVlog() error {
	if p.vl == nil {
		return nil
	}
	return p.vl.Close()
}

// noteVlogOpenSuspicion reports the open scan's unparseable head-tail
// bytes as a detection (mirroring truncated WAL tails): a torn append
// and rotted records are physically indistinguishable, so dropped bytes
// must always be visible to the operator.
func (p *pipeline) noteVlogOpenSuspicion() {
	if p.vl == nil || p.vlogOpenSt.SuspectBytes == 0 {
		return
	}
	p.corrDetected.Inc()
	p.db.events.CorruptionDetected(metrics.CorruptionInfo{
		Path:   vlog.SegmentName(p.dir, p.vl.Head()),
		Layer:  corrupt.LayerVLog,
		Offset: p.vlogOpenSt.SuspectOffset,
		Detail: fmt.Sprintf("unparseable value-log tail: %d bytes", p.vlogOpenSt.SuspectBytes),
	})
}
