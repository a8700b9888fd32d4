// Package iamdb is a persistent, crash-recovering, MVCC key-value
// storage library — the implementation of the LSA- and IAM-trees from
// "On Integration of Appends and Merges in Log-Structured Merge Trees"
// (ICPP 2019), together with LevelDB- and RocksDB-style leveled-LSM
// baselines behind the same API.
//
// Quickstart:
//
//	db, err := iamdb.Open("./data", &iamdb.Options{Engine: iamdb.IAM})
//	defer db.Close()
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
//	it := db.NewIterator()
//	for it.Seek([]byte("a")); it.Valid(); it.Next() { ... }
//	it.Close()
package iamdb

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iamdb/internal/cache"
	"iamdb/internal/core"
	"iamdb/internal/corrupt"
	"iamdb/internal/engine"
	"iamdb/internal/histogram"
	"iamdb/internal/kv"
	"iamdb/internal/lsm"
	"iamdb/internal/memtable"
	"iamdb/internal/metrics"
	"iamdb/internal/shard"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
	"iamdb/internal/wal"
)

var (
	// ErrNotFound reports that a key has no visible value.
	ErrNotFound = errors.New("iamdb: not found")
	// ErrClosed reports use of a closed DB.
	ErrClosed = errors.New("iamdb: closed")
	// ErrReadOnly reports that the DB degraded to read-only mode after
	// repeated background failures.  Reads still work; writes fail with
	// an error wrapping both ErrReadOnly and the background cause.  The
	// DB heals automatically once a background retry succeeds, or
	// explicitly via Resume.
	ErrReadOnly = errors.New("iamdb: read-only (background error)")
)

// BackgroundError is the error recorded when background flush or
// compaction work fails.  It wraps the underlying cause, so
// errors.Is/As see through it.
type BackgroundError struct {
	// Op names the failed operation ("flush" or "compact").
	Op string
	// Err is the underlying error.
	Err error
}

func (e *BackgroundError) Error() string {
	return fmt.Sprintf("iamdb: background %s: %v", e.Op, e.Err)
}

// Unwrap returns the underlying cause.
func (e *BackgroundError) Unwrap() error { return e.Err }

// metaEngine is the extra contract both engines provide beyond
// engine.Engine: durable WAL position tracking.
type metaEngine interface {
	engine.Engine
	SetLogMeta(lastSeq kv.Seq, logNum uint64) error
	LogMeta() (kv.Seq, uint64)
}

// DB is a key-value store.  All methods are safe for concurrent use.
//
// A DB routes over one or more commit pipelines (see pipeline), each
// owning a disjoint key range.  part maps a key to its pipeline, and
// one Sequencer issues every sequence number and the visible watermark
// every read view starts from.  With Options.Shards ≤ 1 there is one
// pipeline, living in the database directory itself.
type DB struct {
	opt    Options
	fs     vfs.FS
	io     *vfs.IOStats
	events *EventListener
	clock  Clock
	// timing enables the per-operation latency histograms and the
	// commit-queue wait counter.  It is set when the caller attached a
	// listener or injected a clock — i.e. opted into observability — so
	// the default configuration skips the two clock reads per operation.
	timing bool
	tr     *trace.Recorder

	part  shard.Partition
	seqr  *shard.Sequencer
	pipes []*pipeline

	putHist  *histogram.Concurrent
	getHist  *histogram.Concurrent
	scanHist *histogram.Concurrent
	getOps   atomic.Int64 // point lookups served

	// snaps counts live snapshots per sequence; engine jobs take their
	// horizon from it (see horizon).  NewIterator holds snapMu while it
	// captures the engines' views, whose own mutexes nest under it.
	//
	//iamlint:lockorder snapMu < core.Tree.mu; snapMu < lsm.DB.mu
	snapMu sync.Mutex
	snaps  map[kv.Seq]int

	// Introspection (see debug.go): samplerA holds the active timeline
	// sampler, and the debug server exposes it over HTTP when
	// Options.DebugAddr is set.  labelCommit, when non-nil, is the pprof
	// label set commit leaders wear; it stays nil unless the debug server
	// is on so the default commit path pays nothing.  It is written once,
	// before any worker or writer starts.
	samplerA    atomic.Pointer[metrics.Sampler]
	debugLn     net.Listener
	debugSrv    *http.Server
	labelCommit context.Context

	// mu guards closed; goroutines spawned after Open (a debug-started
	// scrub) register with wg under it so Close's wg.Wait covers them.
	// Nothing else is acquired while it is held.
	mu      sync.Mutex
	closed  bool
	closedA atomic.Bool

	// scrub holds the state of the current / most recent Scrub pass
	// (see scrub.go).  scrub.mu is a leaf lock: nothing else is
	// acquired while it is held.
	scrub struct {
		mu      sync.Mutex
		running bool
		last    *ScrubReport
		lastErr error
		tables  atomic.Int64
		blocks  atomic.Int64
		bytes   atomic.Int64
	}

	// quit stops every background goroutine — each pipeline's workers
	// and the debug server's — and wg waits for them.
	quit chan struct{}
	wg   sync.WaitGroup
}

// pipeline is one commit pipeline — the paper's single-tree design:
// a WAL, a mutable/immutable memtable pair, one engine instance, an
// optional value log, the leader/follower commit queue, a snapshot
// registry and the background workers, all over one key range in one
// directory.  Its sequence numbers come from the DB's Sequencer.
type pipeline struct {
	db  *DB
	opt Options // the DB's options, with cache and memory budget divided across pipelines
	dir string

	cache *cache.Cache
	eng   metaEngine

	// The hot paths hold direct pointers to these instruments so no
	// map lookup happens per operation.
	stallCount   *metrics.Counter
	stallNanos   *metrics.Counter
	walRotations *metrics.Counter

	// Commit pipeline (leader/follower group commit).  Writers enqueue
	// a commitOp under qmu and then race for commitMu; the winner
	// becomes leader, drains the whole queue and commits it as one WAL
	// record.  Everyone else finds its op already resolved when it gets
	// the lock.  Lock order is commitMu before mu, never the reverse.
	// The leader takes its group's sequence ticket under commitMu.  The
	// declared hierarchy below is checked statically by iamlint's
	// lockorder pass against the inferred acquisition graph.
	//
	// With Options.InlineBackground the leader also runs the flush and
	// compaction pipeline while holding commitMu, so the engine locks
	// (and through them the trace recorder and vfs locks) nest under it.
	//
	//iamlint:lockorder commitMu < qmu; commitMu < iamdb.pipeline.mu; iamdb.pipeline.mu < vfs.*; commitMu < trace.Recorder.mu; iamdb.pipeline.mu < trace.Recorder.mu; commitMu < core.Tree.mu; commitMu < lsm.DB.mu; commitMu < vlog.Log.mu; commitMu < vlog.Log.statsMu; commitMu < shard.Sequencer.mu; commitMu < snapMu; qmu leaf
	qmu      sync.Mutex
	pendingQ []*commitOp
	commitMu sync.Mutex
	// seq is the largest sequence number in this pipeline's WAL, owned
	// by whoever holds commitMu (and by Open before any writer exists).
	// It becomes the flushed memtable's log-meta sequence, from which
	// Open resumes the Sequencer.
	seq kv.Seq
	// walBuf is the leader's scratch encoding buffer (commitMu), and
	// baseBuf its per-op start-sequence scratch.
	walBuf  []byte
	baseBuf []kv.Seq

	// state is re-published on every memtable swap.  Readers load the
	// Sequencer's watermark and then state, with no mutex; the
	// watermark only passes a group after every memtable insert of it
	// landed, so the pair always describes a consistent, torn-batch-free
	// view.
	state atomic.Pointer[dbState]

	userBytes atomic.Int64 // total key+value bytes written
	putOps    atomic.Int64 // records committed (sequence numbers consumed)

	commitGroups  *metrics.Counter
	commitBatches *metrics.Counter
	commitWait    *metrics.Counter
	groupSize     *histogram.Concurrent

	mu         sync.Mutex
	cond       *sync.Cond
	mem        *memtable.MemTable
	imm        *memtable.MemTable
	immWalNum  uint64
	immLastSeq kv.Seq
	walW       *wal.Writer
	walF       vfs.File
	walNum     uint64
	walRetired int64 // bytes in WAL files already rotated out
	closed     bool
	bgErr      error // last background failure (*BackgroundError), nil when healthy
	readonly   bool  // degraded: writes rejected until a retry succeeds
	bgFails    int   // consecutive background failures
	bgErrSince int64 // clock nanos when bgErr was first latched

	bgRetries   *metrics.Counter
	bgReadonly  *metrics.Counter
	bgHealNanos *metrics.Counter
	bgNoSpace   *metrics.Counter

	// Latent-fault accounting (see DESIGN.md "Latent-fault model").
	corrDetected    *metrics.Counter
	corrQuarantined *metrics.Counter
	scrubBlocksC    *metrics.Counter

	// Key-value separation (see vlogdb.go and DESIGN.md "Key-value
	// separation").  vl is nil when the store has no value log; it is
	// set once during open, before any worker or user operation runs.
	// iterOpen counts open iterators and gates deferred segment
	// deletion; vlogPendMu is a leaf lock guarding that queue.
	vl         *vlog.Log
	vlogOpenSt vlog.OpenStats
	vlogGCC    chan struct{}
	iterOpen   atomic.Int64
	vlogPendMu sync.Mutex
	vlogPend   []uint64

	vlogAppendsC   *metrics.Counter
	vlogResolvesC  *metrics.Counter
	vlogGCRewrites *metrics.Counter
	vlogGCSegments *metrics.Counter

	// walDrops records WAL tails truncated during recovery, reported as
	// detections by noteOpenSuspicion: a torn tail after a crash and a
	// rotted final record are physically indistinguishable, so recovery
	// that drops bytes must always be visible to the operator.
	walDrops []walDrop

	flushC   chan struct{}
	compactC chan struct{}
}

// dbState is the immutable read view published through
// pipeline.state after every memtable swap.  A reader that loads the
// watermark and then state gets a state that is current or newer than
// that sequence, and since records only ever move down the hierarchy
// (mem → imm → engine) the view contains every record at or below the
// loaded sequence.
type dbState struct {
	mem *memtable.MemTable
	imm *memtable.MemTable
}

// publishStateLocked re-publishes the (mem, imm) pair.  Caller holds
// p.mu, which serializes all memtable swaps.
func (p *pipeline) publishStateLocked() {
	p.state.Store(&dbState{mem: p.mem, imm: p.imm})
}

// commitOp is one writer's seat in the commit queue.  done, err and
// end are written by the leader while it holds commitMu and read by
// the owner only after it acquires commitMu itself, so the mutex
// orders them.  base, when nonzero, is the first sequence number of a
// range the router pre-allocated for this cross-shard sub-batch; zero
// lets the leader assign a range from its group ticket.  end is the
// op's last sequence number.
type commitOp struct {
	b    *Batch
	base kv.Seq
	end  kv.Seq
	err  error
	done bool
}

// Open opens (creating as needed) a database in dir.  A nil opt uses
// defaults (IAM engine, OS filesystem).  With Options.Shards > 1 — or
// when dir carries a SHARDS marker from an earlier sharded open — the
// keyspace is range-partitioned across that many pipelines, each in
// its own shard-NNN subdirectory.
func Open(dir string, opt *Options) (*DB, error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	o = o.withDefaults()
	// Every DB measures device IO.  Reuse the caller's StatsFS counters
	// when one is supplied (the bench harness does) so traffic is not
	// double-counted; otherwise wrap the filesystem ourselves.  All
	// pipelines share it, so device IO is counted once.
	var io *vfs.IOStats
	if sfs, ok := o.FS.(*vfs.StatsFS); ok {
		io = sfs.Stats()
	} else {
		io = &vfs.IOStats{}
		o.FS = vfs.NewStatsFS(o.FS, io)
	}
	db := &DB{
		opt: o, fs: o.FS, io: io,
		events: o.EventListener.EnsureDefaults(),
		clock:  o.Clock,
		timing: o.EventListener != nil || o.Clock != nil,
		tr:     o.Trace,
		snaps:  make(map[kv.Seq]int),
		quit:   make(chan struct{}),
	}
	if db.clock == nil {
		db.clock = newWallClock()
	}
	reg := metrics.NewRegistry()
	db.putHist = reg.Histogram("latency.put")
	db.getHist = reg.Histogram("latency.get")
	db.scanHist = reg.Histogram("latency.scan")
	if err := db.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	part, err := loadOrInitPartition(db.fs, dir, o.Shards, o.ShardSplits)
	if err != nil {
		return nil, err
	}
	db.part = part

	// The block-cache budget models total RAM, so it is divided across
	// the pipelines instead of multiplied by them.
	n := part.Count()
	po := o
	po.CacheSize = max(o.CacheSize/int64(n), 1)
	if o.MemBudget > 0 {
		po.MemBudget = o.MemBudget / int64(n)
	}
	db.pipes = make([]*pipeline, n)
	var maxSeq kv.Seq
	for i := range db.pipes {
		p, err := openPipeline(db, db.pipeDir(dir, i), po)
		if err != nil {
			for _, q := range db.pipes[:i] {
				_ = q.closeFiles()
			}
			if n > 1 {
				err = fmt.Errorf("iamdb: open shard %d: %w", i, err)
			}
			return nil, err
		}
		db.pipes[i] = p
		maxSeq = max(maxSeq, p.seq)
	}
	// The sequencer resumes after the largest recovered sequence
	// anywhere, so new allocations never collide with replayed records.
	db.seqr = shard.NewSequencer(maxSeq)
	if o.DebugAddr != "" {
		if err := db.startDebugServer(o.DebugAddr); err != nil {
			_ = db.Close()
			return nil, err
		}
	}
	for _, p := range db.pipes {
		p.startWorkers()
	}
	return db, nil
}

// openPipeline opens one pipeline in dir: engine, WAL recovery, value
// log.  Its background workers start later (startWorkers), once the
// DB's sequencer exists.
func openPipeline(db *DB, dir string, o Options) (*pipeline, error) {
	p := &pipeline{
		db: db, opt: o, dir: dir,
		cache:  cache.New(o.CacheSize),
		mem:    memtable.New(),
		flushC: make(chan struct{}, 1), compactC: make(chan struct{}, 1),
		vlogGCC: make(chan struct{}, 1),
	}
	reg := metrics.NewRegistry()
	p.stallCount = reg.Counter("stall.count")
	p.stallNanos = reg.Counter("stall.nanos")
	p.walRotations = reg.Counter("wal.rotations")
	p.bgRetries = reg.Counter("bg.retries")
	p.bgReadonly = reg.Counter("bg.readonly")
	p.bgHealNanos = reg.Counter("bg.heal.nanos")
	p.bgNoSpace = reg.Counter("bg.nospace")
	p.corrDetected = reg.Counter("corruption.detected")
	p.corrQuarantined = reg.Counter("corruption.quarantined")
	p.scrubBlocksC = reg.Counter("scrub.blocks")
	p.commitGroups = reg.Counter("commit.groups")
	p.commitBatches = reg.Counter("commit.batches")
	p.commitWait = reg.Counter("commit.wait.nanos")
	p.groupSize = reg.Histogram("commit.group.size")
	p.vlogAppendsC = reg.Counter("vlog.appends")
	p.vlogResolvesC = reg.Counter("vlog.resolves")
	p.vlogGCRewrites = reg.Counter("vlog.gc.rewrites")
	p.vlogGCSegments = reg.Counter("vlog.gc.segments")
	p.cond = sync.NewCond(&p.mu)
	if err := db.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if err := p.openEngine(); err != nil {
		return nil, err
	}
	if err := p.recover(); err != nil {
		p.eng.Close()
		return nil, err
	}
	if err := p.openVLog(); err != nil {
		_ = p.walF.Close()
		p.eng.Close()
		return nil, err
	}
	p.noteOpenSuspicion()
	p.noteVlogOpenSuspicion()
	p.mu.Lock()
	p.publishStateLocked()
	p.mu.Unlock()
	return p, nil
}

// startWorkers launches the background flush, compaction and
// value-log GC goroutines (none with Options.InlineBackground).
func (p *pipeline) startWorkers() {
	if p.opt.InlineBackground {
		return
	}
	p.db.wg.Add(1)
	go p.flushWorker()
	for i := 0; i < p.opt.CompactionThreads; i++ {
		p.db.wg.Add(1)
		go p.compactWorker()
	}
	if p.vl != nil {
		p.db.wg.Add(1)
		go p.vlogGCWorker()
	}
}

func (p *pipeline) openEngine() error {
	switch p.opt.Engine {
	case IAM, LSA:
		policy := core.IAM
		if p.opt.Engine == LSA {
			policy = core.LSA
		}
		budget := p.opt.MemBudget
		if p.opt.Engine == LSA {
			budget = 0 // LSA ignores the budget (appends everywhere)
		}
		tr, err := core.Open(core.Config{
			FS: p.db.fs, Dir: p.dir, Cache: p.cache,
			NodeCapacity: p.opt.MemtableSize, Fanout: p.opt.Fanout,
			Policy: policy, K: p.opt.K, MemBudget: budget,
			FixedM: p.opt.FixedM, BitsPerKey: p.opt.BitsPerKey,
			Compression: p.opt.Compression, OnDrop: p.vlogOnDrop,
			Events: p.db.events, Clock: p.db.clock, Trace: p.db.tr,
		})
		if err != nil {
			return err
		}
		p.eng = tr
	case LevelDB, RocksDB:
		profile := lsm.ProfileLevelDB
		if p.opt.Engine == RocksDB {
			profile = lsm.ProfileRocksDB
		}
		d, err := lsm.Open(lsm.Config{
			FS: p.db.fs, Dir: p.dir, Cache: p.cache,
			FileSize: p.opt.FileSize, LevelSizeBase: p.opt.LevelSizeBase,
			Fanout: p.opt.Fanout, L0CompactTrigger: p.opt.L0CompactTrigger,
			Profile: profile, BitsPerKey: p.opt.BitsPerKey,
			Compression: p.opt.Compression, OnDrop: p.vlogOnDrop,
			Events: p.db.events, Clock: p.db.clock, Trace: p.db.tr,
		})
		if err != nil {
			return err
		}
		p.eng = d
	default:
		return fmt.Errorf("iamdb: unknown engine %v", p.opt.Engine)
	}
	return nil
}

func logName(dir string, num uint64) string {
	return fmt.Sprintf("%s/%06d.log", dir, num)
}

// recover replays WAL files at or after the engine's recorded log
// number, then starts a fresh log.
func (p *pipeline) recover() error {
	lastSeq, logNum := p.eng.LogMeta()
	p.seq = lastSeq

	names, err := p.db.fs.List(p.dir)
	if err != nil {
		return err
	}
	var logs []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".log") {
			n, err := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64)
			if err == nil {
				logs = append(logs, n)
			}
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	maxLog := logNum
	for _, num := range logs {
		if num < logNum {
			_ = p.db.fs.Remove(logName(p.dir, num)) // already flushed; best-effort cleanup
			continue
		}
		if num > maxLog {
			maxLog = num
		}
		if err := p.replayLog(num); err != nil {
			return err
		}
	}
	// Flush everything recovered so the replayed logs can be dropped.
	if p.mem.Count() > 0 {
		if err := p.eng.Flush(p.mem.NewIter()); err != nil {
			return err
		}
		p.mem = memtable.New()
	}
	p.walNum = maxLog + 1
	if err := p.eng.SetLogMeta(p.seq, p.walNum); err != nil {
		return err
	}
	for _, num := range logs {
		// Obsolete after the flush above; a leftover log is re-deleted on
		// the next recovery, so failure here is not fatal.
		_ = p.db.fs.Remove(logName(p.dir, num))
	}
	f, err := p.db.fs.Create(logName(p.dir, p.walNum))
	if err != nil {
		return err
	}
	p.walF = f
	p.walW = wal.NewWriter(f)
	p.walW.SetSync(p.opt.SyncWrites)
	return nil
}

func (p *pipeline) replayLog(num uint64) error {
	f, err := p.db.fs.Open(logName(p.dir, num))
	if err != nil {
		return err
	}
	defer f.Close()
	// Strict replay: a torn tail (crash mid-append) is tolerated and
	// truncated, but a damaged record with valid data after it is
	// corruption of already-acknowledged writes — it aborts the open
	// with a typed error instead of silently dropping the suffix.
	dropped, err := wal.ReplayAllStrict(f, logName(p.dir, num), func(rec []byte) error {
		last, err := decodeRecordInto(rec, p.mem)
		if err != nil {
			return err
		}
		if last > p.seq {
			p.seq = last
		}
		if p.mem.ApproximateSize() >= p.opt.MemtableSize {
			if err := p.eng.Flush(p.mem.NewIter()); err != nil {
				return err
			}
			p.mem = memtable.New()
		}
		return nil
	})
	if dropped > 0 {
		p.walDrops = append(p.walDrops, walDrop{num: num, bytes: dropped})
	}
	return err
}

// walDrop records one truncated recovery tail for noteOpenSuspicion.
type walDrop struct {
	num   uint64
	bytes int64
}

// Put stores a key/value pair.
func (db *DB) Put(key, value []byte) error {
	var b Batch
	b.Put(key, value)
	return db.Write(&b)
}

// Delete removes a key.
func (db *DB) Delete(key []byte) error {
	var b Batch
	b.Delete(key)
	return db.Write(&b)
}

// Write applies a batch atomically: consecutive sequence numbers and
// all-or-nothing visibility.  A batch whose keys all belong to one
// shard is one WAL record; one spanning shards is split by key range
// and committed under one pre-allocated sequence range, so readers
// still never observe part of it.
func (db *DB) Write(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	if !db.timing {
		return db.write(b)
	}
	start := db.clock.Now()
	err := db.write(b)
	db.putHist.Record(db.clock.Now() - start)
	return err
}

// write is Write's body; the wrapper measures commit latency (stall
// and queue time included — the tails Sec. 6.2 measures).
//
// A batch on one shard (always true for Put and Delete) joins that
// pipeline's queue and takes its sequences from the leader's group
// ticket.  A cross-shard batch allocates one contiguous range up front
// and carves it into per-shard contiguous sub-ranges in shard order, so
// each pipeline reuses the ordinary batch encoding; the range is always
// Ended (a failed sub-commit burns its part, the same gap semantics a
// failed WAL append has), and on success the writer waits for the
// watermark so it reads its own write.
//
// Failure relaxation: when a sub-commit fails partway, earlier shards'
// sub-batches are already durable and become visible once the watermark
// passes them — a cross-shard batch is atomic under concurrency, not
// under mid-commit I/O failure (see DESIGN.md "Sharded front-end").
func (db *DB) write(b *Batch) error {
	first := db.part.IndexOf(b.ops[0].key)
	multi := false
	for _, op := range b.ops[1:] {
		if db.part.IndexOf(op.key) != first {
			multi = true
			break
		}
	}
	if !multi {
		return db.pipes[first].write(b, 0)
	}

	t := db.seqr.Begin(b.Len())
	subs := make([]Batch, len(db.pipes))
	for _, op := range b.ops {
		i := db.part.IndexOf(op.key)
		subs[i].ops = append(subs[i].ops, op)
	}
	base := t.Base
	var firstErr error
	for i := range subs {
		if subs[i].Len() == 0 {
			continue
		}
		// Keep committing the remaining shards after a failure: their
		// records are independently durable and the burned range only
		// covers what actually failed.
		if err := db.pipes[i].write(&subs[i], base); err != nil && firstErr == nil {
			firstErr = err
		}
		base += kv.Seq(subs[i].Len())
	}
	db.seqr.End(t)
	if firstErr != nil {
		return firstErr
	}
	db.seqr.WaitVisible(t.End)
	return nil
}

// write commits a batch through this pipeline.  base is the start of
// a router-allocated range for a cross-shard sub-batch, or zero.
//
// The writer enqueues its batch and then races for commitMu.  The
// winner is the leader: it drains everything queued so far and commits
// the whole group.  A loser wakes up holding commitMu with its op
// already resolved — or, if it got the lock before any leader served
// it, becomes the leader itself.  Every op is therefore resolved by
// exactly one leader, with no lost wakeups and no condition variable.
func (p *pipeline) write(b *Batch, base kv.Seq) error {
	p.throttle()

	esp := p.db.tr.Begin("commit.enqueue")
	op := &commitOp{b: b, base: base}
	p.qmu.Lock()
	p.pendingQ = append(p.pendingQ, op)
	p.qmu.Unlock()

	var qstart time.Duration
	if p.db.timing {
		qstart = p.db.clock.Now()
	}
	p.commitMu.Lock()
	esp.End()
	if p.db.timing {
		p.commitWait.Add(int64(p.db.clock.Now() - qstart))
	}
	if !op.done {
		p.qmu.Lock()
		group := p.pendingQ
		p.pendingQ = nil
		p.qmu.Unlock()
		p.commitGroup(group)
	}
	p.commitMu.Unlock()
	if op.err == nil && base == 0 {
		// Read-your-writes: another pipeline's earlier ticket may still
		// hold the watermark below this op.  With one pipeline, tickets
		// end in commit order and this returns at once.  A router-placed
		// op is waited for by the router, after its whole range ended.
		p.db.seqr.WaitVisible(op.end)
	}
	return op.err
}

// finishGroup resolves every op in the group.  Caller holds commitMu.
func finishGroup(group []*commitOp, err error) {
	for _, op := range group {
		op.err = err
		op.done = true
	}
}

// commitGroup commits every queued batch as one WAL record: the leader
// takes one sequence ticket for the group, appends (and, when
// SyncWrites is on, syncs) once, applies all memtable inserts outside
// p.mu, and only then ends the ticket, advancing the visible watermark
// — so a reader can never observe part of a batch, and one fsync
// covers the whole group.  Caller holds commitMu.
func (p *pipeline) commitGroup(group []*commitOp) {
	p.mu.Lock()
	for !p.closed && !p.readonly && p.imm != nil &&
		p.mem.ApproximateSize() >= p.opt.MemtableSize {
		p.cond.Wait() // both memtables full: wait for the flusher
	}
	if p.closed {
		p.mu.Unlock()
		finishGroup(group, ErrClosed)
		return
	}
	if p.readonly {
		// Join keeps both the mode and the cause visible to errors.Is.
		err := errors.Join(ErrReadOnly, p.bgErr)
		p.mu.Unlock()
		finishGroup(group, err)
		return
	}
	mem, walW := p.mem, p.walW
	// A successful append below heals a previously-latched WAL error
	// (space came back); flush/compaction errors are left for their own
	// retry loops to clear.
	healWal := false
	if be, ok := p.bgErr.(*BackgroundError); ok && (be.Op == "wal" || be.Op == "vlog") {
		healWal = true
	}
	p.mu.Unlock()

	if ctx := p.db.labelCommit; ctx != nil {
		pprof.SetGoroutineLabels(ctx)
		defer pprof.SetGoroutineLabels(context.Background())
	}
	sp := p.db.tr.Begin("commit.group")
	sp.SetCount(int64(len(group)))

	// Key-value separation: move large values to the value log (synced
	// before the WAL append carrying their pointers) and filter GC
	// rewrites against the committed state.  See vlogdb.go.
	var sepExtra int64
	if p.vl != nil {
		var err error
		sepExtra, err = p.separateGroup(group)
		if err != nil {
			sp.End()
			p.noteCommitError("vlog", err)
			finishGroup(group, err)
			return
		}
	}

	// One ticket covers every op the router did not place: taken after
	// separation (GC filtering can shrink batches) and before encoding.
	var n int
	for _, op := range group {
		if op.base == 0 {
			n += op.b.Len()
		}
	}
	seq := p.seq
	next := seq + 1 // start of an empty op when the group takes no ticket
	var t shard.Ticket
	if n > 0 {
		t = p.db.seqr.Begin(n)
		next = t.Base
	}

	// One record of concatenated batch encodings; recovery decodes
	// them back-to-back (decodeRecordInto).  seq advances to the largest
	// end, so it always bounds everything in this pipeline's WAL.
	buf := p.walBuf[:0]
	bases := p.baseBuf[:0]
	for _, op := range group {
		start := op.base
		if start == 0 {
			start = next
			next += kv.Seq(op.b.Len())
		}
		bases = append(bases, start)
		buf = op.b.appendEncoded(buf, start)
		op.end = start + kv.Seq(op.b.Len()) - 1
		if op.end > seq {
			seq = op.end
		}
	}
	p.walBuf = buf
	p.baseBuf = bases
	wsp := sp.Child("commit.wal")
	wsp.SetBytes(int64(len(buf)))
	if err := walW.Append(buf); err != nil {
		// The record may be partially durable; ending the ticket burns
		// its range, so a replay after crash can never collide with a
		// reuse.
		p.seq = seq
		if n > 0 {
			p.db.seqr.End(t)
		}
		sp.End()
		p.noteCommitError("wal", err)
		finishGroup(group, err)
		return
	}
	wsp.End()
	if healWal {
		p.noteBgSuccess()
	}

	asp := sp.Child("commit.apply")
	var user, applied int64
	for gi, op := range group {
		s := bases[gi] - 1
		for _, bop := range op.b.ops {
			s++
			mem.Add(s, bop.kind, bop.key, bop.val)
			user += int64(len(bop.key) + len(bop.val))
		}
		applied += int64(op.b.Len())
	}
	p.seq = seq
	// sepExtra restores the original value bytes separation replaced
	// with pointers, so user-byte accounting (the write-amplification
	// denominator) stays in terms of what the user logically wrote.
	user += sepExtra
	p.userBytes.Add(user)
	p.putOps.Add(applied)
	// Publish: every record of the ticket is inserted, so the watermark
	// may pass it once every earlier allocation has ended too.
	if n > 0 {
		p.db.seqr.End(t)
	}
	asp.SetCount(applied)
	asp.End()

	p.commitGroups.Inc()
	p.commitBatches.Add(int64(len(group)))
	p.groupSize.Record(time.Duration(len(group)))
	sp.SetBytes(user)
	sp.End()

	var err error
	if mem.ApproximateSize() >= p.opt.MemtableSize {
		p.mu.Lock()
		if p.mem == mem && p.imm == nil && !p.closed {
			err = p.rotateLocked()
		}
		p.mu.Unlock()
		if err == nil && p.opt.InlineBackground {
			p.inlineBG()
		}
	}
	finishGroup(group, err)
}

// inlineBG runs the background pipeline synchronously on the commit
// leader (Options.InlineBackground): drain the immutable memtable just
// rotated out, then run compaction steps until the engine is settled.
// Caller holds commitMu, so the engine locks nest under it — the
// declared lock order covers this nesting.
func (p *pipeline) inlineBG() {
	p.drainImm()
	for {
		did, err := p.workStep()
		if err != nil {
			if !p.noteBgError("compact", err) {
				return
			}
			continue
		}
		if !did {
			return
		}
		p.noteBgSuccess()
	}
}

// throttle applies the engine's write-stall policy in the writer's own
// goroutine, so stall time shows up as write latency — the behaviour
// whose tails Sec. 6.2 measures.  Stalled intervals are measured and
// reported as paired WriteStallBegin/WriteStallEnd events plus the
// cumulative stall counters in Metrics; the unstalled fast path reads
// one atomic and returns.
func (p *pipeline) throttle() {
	lvl := p.eng.StallLevel()
	if lvl == 0 {
		return
	}
	start := p.db.clock.Now()
	sp := p.db.tr.Begin("write.stall")
	sp.SetLevel(lvl)
	p.db.events.WriteStallBegin(metrics.StallInfo{Level: lvl})
	p.stallWork(lvl)
	d := p.db.clock.Now() - start
	p.stallCount.Inc()
	p.stallNanos.Add(int64(d))
	sp.End()
	p.db.events.WriteStallEnd(metrics.StallInfo{Level: lvl, Duration: d})
}

// workStep runs one engine compaction step under a fresh horizon.
func (p *pipeline) workStep() (bool, error) {
	p.refreshHorizon()
	return p.eng.WorkStep()
}

// stallWork runs compaction steps in the stalled writer's goroutine
// until the stall clears: a hard stall (2) works until no work is
// left, a slowdown (1) contributes one step.
func (p *pipeline) stallWork(lvl int) {
	for {
		switch lvl {
		case 2:
			if did, _ := p.workStep(); !did {
				return
			}
		case 1:
			p.workStep()
			return
		default:
			return
		}
		lvl = p.eng.StallLevel()
	}
}

// rotateLocked swaps the full memtable to the immutable slot and opens
// a fresh WAL.  Caller holds p.mu.
func (p *pipeline) rotateLocked() error {
	newNum := p.walNum + 1
	f, err := p.db.fs.Create(logName(p.dir, newNum))
	if err != nil {
		return err
	}
	// Close the old WAL before swapping state: a failed close may mean
	// lost appends, and the immutable memtable would depend on them for
	// recovery.  On failure, drop the new log and leave state untouched.
	if err := p.walF.Close(); err != nil {
		_ = f.Close()
		_ = p.db.fs.Remove(logName(p.dir, newNum))
		return err
	}
	oldNum, oldBytes := p.walNum, p.walW.Offset()
	p.walRetired += oldBytes
	p.walRotations.Inc()
	sp := p.db.tr.Begin("wal.rotate")
	sp.SetBytes(oldBytes)
	sp.End()
	p.db.events.WALRotated(metrics.WALRotationInfo{OldNum: oldNum, NewNum: newNum, OldBytes: oldBytes})
	p.imm = p.mem
	p.immWalNum = p.walNum
	p.immLastSeq = p.seq
	p.mem = memtable.New()
	p.publishStateLocked()
	p.walF = f
	p.walW = wal.NewWriter(f)
	p.walW.SetSync(p.opt.SyncWrites)
	p.walNum = newNum
	select {
	case p.flushC <- struct{}{}:
	default:
	}
	return nil
}

// fileNumFromPath recovers the table file number from a path like
// "dir/000123.mst", so a corruption error's provenance can be mapped
// back to the engine's quarantine list.
func fileNumFromPath(path string) (uint64, bool) {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	base, ok := strings.CutSuffix(path, ".mst")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// noteCorruption inspects an error from the read path (or scrub).  If
// it carries corruption provenance the detection is counted, the event
// fired, and — when the damage names a table file — the table is
// quarantined so compaction never rewrites (and thereby launders or
// spreads) the damaged data.  Reads keep being served from quarantined
// tables: intact blocks are still correct, and damaged ones keep
// returning the typed error.
func (p *pipeline) noteCorruption(err error) {
	ce := AsCorruption(err)
	if ce == nil {
		return
	}
	p.corrDetected.Inc()
	p.db.events.CorruptionDetected(metrics.CorruptionInfo{
		Path: ce.Path, Layer: ce.Layer, Offset: ce.Offset, Detail: ce.Detail,
	})
	num, ok := fileNumFromPath(ce.Path)
	if !ok {
		return
	}
	q, ok := p.eng.(engine.Quarantiner)
	if !ok {
		return
	}
	if q.Quarantine(num, ce.Error()) {
		p.corrQuarantined.Inc()
		p.db.events.TableQuarantined(metrics.TableInfo{FileNum: num, Level: -1})
	}
}

// noteOpenSuspicion surfaces the damage evidence recovery gathered:
// tables the engine quarantined at load (footer-slot fallback or a
// failed higher-generation candidate — the signature of either a crash
// mid-commit or a rotted footer) and manifest tail bytes dropped by
// strict replay.  Runs once from Open, before workers start.
func (p *pipeline) noteOpenSuspicion() {
	if q, ok := p.eng.(engine.Quarantiner); ok {
		for _, qi := range q.Quarantined() {
			p.corrDetected.Inc()
			p.corrQuarantined.Inc()
			p.db.events.CorruptionDetected(metrics.CorruptionInfo{
				Path: qi.Path, Layer: corrupt.LayerTableFooter, Offset: -1, Detail: qi.Reason,
			})
			p.db.events.TableQuarantined(metrics.TableInfo{FileNum: qi.FileNum, Level: qi.Level})
		}
	}
	for _, wd := range p.walDrops {
		p.corrDetected.Inc()
		p.db.events.CorruptionDetected(metrics.CorruptionInfo{
			Path: logName(p.dir, wd.num), Layer: corrupt.LayerWAL, Offset: -1,
			Detail: fmt.Sprintf("recovery truncated %d trailing bytes", wd.bytes),
		})
	}
	if rd, ok := p.eng.(interface{ RecoveryDropped() int64 }); ok {
		if n := rd.RecoveryDropped(); n > 0 {
			p.corrDetected.Inc()
			p.db.events.CorruptionDetected(metrics.CorruptionInfo{
				Path: p.dir, Layer: corrupt.LayerManifest, Offset: -1,
				Detail: fmt.Sprintf("manifest replay dropped %d trailing bytes", n),
			})
		}
	}
}

// noteCommitError latches a log-append failure from the commit path
// (op "wal" or "vlog") as a background error.  Unlike noteBgError it
// never sleeps and never calls Resume — the failing writer is a
// foreground goroutine and gets its error back immediately — but the
// same consecutive-failure counting degrades the DB to read-only once
// the limit is exceeded, so a full disk stops the write path instead
// of burning sequence ranges forever.  It reports the consecutive
// failure count, or 0 when the pipeline is closed.
func (p *pipeline) noteCommitError(op string, err error) int {
	if errors.Is(err, vfs.ErrNoSpace) {
		p.bgNoSpace.Inc()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0
	}
	if p.bgErr == nil {
		p.bgErrSince = int64(p.db.clock.Now())
	}
	p.bgErr = &BackgroundError{Op: op, Err: err}
	p.bgFails++
	try := p.bgFails
	p.bgRetries.Inc()
	enteredRO := false
	if !p.readonly && try > p.opt.BgRetryLimit {
		p.readonly = true
		enteredRO = true
		p.bgReadonly.Inc()
	}
	cause := p.bgErr
	p.cond.Broadcast()
	p.mu.Unlock()
	p.db.events.BackgroundError(metrics.BackgroundErrorInfo{Op: op, Err: err, Retries: try})
	if enteredRO {
		p.db.events.ReadOnlyEnter(metrics.ReadOnlyInfo{Cause: cause})
	}
	return try
}

// noteBgError records one failed background attempt: it latches the
// error as noteCommitError does, asks the engine to Resume (rewrite its
// manifest so half-applied edits are superseded before the retry), and
// applies the backoff policy.  It reports whether the worker should
// retry; false means the DB is closing or the backoff abandoned the
// loop (the worker goes back to waiting for a kick).
func (p *pipeline) noteBgError(op string, err error) bool {
	p.noteCorruption(err)
	try := p.noteCommitError(op, err)
	if try == 0 {
		return false
	}
	if r, ok := p.eng.(engine.Resumer); ok {
		// Best-effort: a failed Resume is retried with the work itself.
		_ = r.Resume()
	}
	if p.opt.BgBackoff != nil {
		return p.opt.BgBackoff(try)
	}
	d := time.Millisecond << uint(min(try, 7))
	select {
	case <-p.db.quit:
		return false
	case <-time.After(d):
		return true
	}
}

// noteBgSuccess clears background-error state after a successful
// attempt, leaving read-only mode and recording the heal duration.
func (p *pipeline) noteBgSuccess() {
	p.mu.Lock()
	if p.bgErr == nil && !p.readonly {
		p.mu.Unlock()
		return
	}
	cause := p.bgErr
	wasRO := p.readonly
	heal := int64(p.db.clock.Now()) - p.bgErrSince
	p.bgErr, p.readonly, p.bgFails = nil, false, 0
	p.bgHealNanos.Add(heal)
	p.cond.Broadcast()
	p.mu.Unlock()
	if wasRO {
		p.db.events.ReadOnlyExit(metrics.ReadOnlyInfo{Cause: cause, Duration: time.Duration(heal)})
	}
}

func (p *pipeline) flushWorker() {
	defer p.db.wg.Done()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("iamdb", "flush-worker")))
	for {
		select {
		case <-p.db.quit:
			return
		case <-p.flushC:
		}
		p.drainImm()
	}
}

// drainImm flushes the immutable memtable, retrying failures until it
// succeeds, the backoff abandons, or the DB closes.  The worker never
// exits on error: a healed DB resumes without reopening.
func (p *pipeline) drainImm() {
	flushed := false // the Flush itself succeeded; only SetLogMeta remains
	for {
		p.mu.Lock()
		imm := p.imm
		immWal := p.immWalNum
		immSeq := p.immLastSeq
		curWal := p.walNum
		p.mu.Unlock()
		if imm == nil {
			return
		}
		var err error
		if !flushed {
			p.refreshHorizon()
			err = p.eng.Flush(imm.NewIter())
		}
		if err == nil {
			flushed = true
			err = p.eng.SetLogMeta(immSeq, curWal)
		}
		if err != nil {
			if !p.noteBgError("flush", err) {
				return
			}
			continue
		}
		p.noteBgSuccess()
		flushed = false
		p.mu.Lock()
		p.imm = nil
		p.publishStateLocked()
		p.cond.Broadcast()
		p.mu.Unlock()
		// The flushed log is re-deleted on next recovery if this
		// best-effort removal fails.
		_ = p.db.fs.Remove(logName(p.dir, immWal))
		select {
		case p.compactC <- struct{}{}:
		default:
		}
	}
}

func (p *pipeline) compactWorker() {
	defer p.db.wg.Done()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("iamdb", "compact-worker")))
	for {
		did, err := p.workStep()
		if err != nil {
			if !p.noteBgError("compact", err) {
				select {
				case <-p.db.quit:
					return
				case <-p.compactC:
				}
			}
			continue
		}
		if did {
			p.noteBgSuccess()
			continue
		}
		select {
		case <-p.db.quit:
			return
		case <-p.compactC:
		}
	}
}

// pipeDir is pipeline i's directory: the database root itself when it
// is the only one (the unsharded on-disk layout), its shard-NNN
// subdirectory otherwise.
func (db *DB) pipeDir(root string, i int) string {
	if len(db.pipes) == 1 {
		return root
	}
	return shardDirName(root, i)
}

// fanout runs fn over every pipeline.  A single failure is returned
// as is; several are joined.
func (db *DB) fanout(fn func(*pipeline) error) error {
	var errs []error
	for _, p := range db.pipes {
		if err := fn(p); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 1 {
		return errs[0]
	}
	return errors.Join(errs...)
}

// Resume clears background-error state once the operator believes the
// underlying fault is gone: the engine rewrites its manifest, the DB
// leaves read-only mode, and the background workers are kicked.  The
// DB also heals itself when a background retry succeeds; Resume just
// forces the attempt now.
func (db *DB) Resume() error { return db.fanout((*pipeline).resume) }

func (p *pipeline) resume() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.mu.Unlock()
	if r, ok := p.eng.(engine.Resumer); ok {
		if err := r.Resume(); err != nil {
			return err
		}
	}
	p.noteBgSuccess()
	select {
	case p.flushC <- struct{}{}:
	default:
	}
	select {
	case p.compactC <- struct{}{}:
	default:
	}
	return nil
}

// CheckInvariants asks the engine to validate its structural
// invariants (crash-recovery tests use it as an oracle); engines
// without a checker report nil.
func (db *DB) CheckInvariants() error { return db.fanout((*pipeline).checkInvariants) }

func (p *pipeline) checkInvariants() error {
	if c, ok := p.eng.(engine.Checker); ok {
		return c.CheckInvariants()
	}
	return nil
}

// Get returns the value for key, or ErrNotFound.  The returned slice
// is a fresh copy the caller may retain; use GetInto to reuse a buffer
// across lookups.
func (db *DB) Get(key []byte) ([]byte, error) {
	if !db.timing {
		return db.get(key)
	}
	start := db.clock.Now()
	v, err := db.get(key)
	db.getHist.Record(db.clock.Now() - start)
	return v, err
}

// GetInto appends the value for key to dst and returns the extended
// slice — the copy-into-caller fast path that avoids the per-call
// allocation Get makes.  dst may be nil.
func (db *DB) GetInto(key, dst []byte) ([]byte, error) {
	var start time.Duration
	if db.timing {
		start = db.clock.Now()
	}
	v, kind, err := db.getRaw(key)
	if err == nil {
		if kind == kv.KindDelete {
			err = ErrNotFound
		} else {
			dst = append(dst, v...)
		}
	}
	if db.timing {
		db.getHist.Record(db.clock.Now() - start)
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

func (db *DB) get(key []byte) ([]byte, error) {
	v, kind, err := db.getRaw(key)
	if err != nil {
		return nil, err
	}
	return finishGet(v, kind)
}

// getRaw resolves key at the current watermark.  The returned value
// aliases internal storage and must be copied before the call returns
// to the user.
func (db *DB) getRaw(key []byte) ([]byte, kv.Kind, error) {
	if db.closedA.Load() {
		return nil, 0, ErrClosed
	}
	db.getOps.Add(1)
	return db.getAt(key, db.seqr.Visible())
}

// getAt resolves key at sequence snap against the owning pipeline's
// lock-free read view: snap must have been loaded before the state
// pointer is.  The state may be newer than the sequence but never
// older, and records only move down the hierarchy, so the pair is a
// consistent view — and since no incomplete allocation sits at or
// below the watermark, it cannot expose part of a batch.  Pointer
// records resolve through the owning pipeline's value log.
func (db *DB) getAt(key []byte, snap kv.Seq) ([]byte, kv.Kind, error) {
	p := db.pipes[db.part.IndexOf(key)]
	st := p.state.Load()
	v, kind, err := p.getRawAt(key, snap, st.mem, st.imm)
	if err != nil {
		return nil, 0, err
	}
	return p.maybeResolve(key, v, kind)
}

func (p *pipeline) getRawAt(key []byte, snap kv.Seq, mem, imm *memtable.MemTable) ([]byte, kv.Kind, error) {
	if v, kind, _, found := mem.Get(key, snap); found {
		return v, kind, nil
	}
	if imm != nil {
		if v, kind, _, found := imm.Get(key, snap); found {
			return v, kind, nil
		}
	}
	v, kind, _, found, err := p.eng.Get(key, snap)
	if err != nil {
		p.noteCorruption(err)
		return nil, 0, err
	}
	if !found {
		return nil, 0, ErrNotFound
	}
	return v, kind, nil
}

func finishGet(v []byte, kind kv.Kind) ([]byte, error) {
	if kind == kv.KindDelete {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Close flushes nothing (recovery replays the WAL), stops background
// work and releases resources.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	db.closedA.Store(true)
	db.mu.Unlock()
	for _, p := range db.pipes {
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	close(db.quit)
	if db.debugSrv != nil {
		// Unblocks the Serve goroutine so wg.Wait below can finish.
		_ = db.debugSrv.Close()
	}
	db.wg.Wait()
	return db.fanout((*pipeline).closeFiles)
}

// closeFiles releases the pipeline's files once no worker runs.
func (p *pipeline) closeFiles() error {
	// Barrier: wait out any in-flight commit leader so the WAL writer
	// is idle before closing it.  Leaders that acquire commitMu later
	// observe closed under p.mu and never touch the WAL.
	p.commitMu.Lock()
	p.commitMu.Unlock()
	return errors.Join(p.walF.Close(), p.closeVlog(), p.eng.Close())
}

// CompactAll flushes both memtables and settles every pending
// compaction — the paper's "tuning phase" run to completion.  Used by
// experiments before measuring stable performance.
func (db *DB) CompactAll() error { return db.fanout((*pipeline).compactAll) }

func (p *pipeline) compactAll() error {
	if err := p.flush(); err != nil {
		return err
	}
	if d, ok := p.eng.(*lsm.DB); ok {
		p.refreshHorizon()
		return d.DrainCompactions()
	}
	return nil
}

// MixedLevel reports IAM's current (m, k) tuning; zero for baselines.
// Shards tune independently; a sharded DB reports shard 0.
func (db *DB) MixedLevel() (m, k int) { return db.pipes[0].mixedLevel() }

func (p *pipeline) mixedLevel() (m, k int) {
	if tr, ok := p.eng.(*core.Tree); ok {
		return tr.MixedLevel()
	}
	return 0, 0
}

// Flush forces the current memtable into the tree, waiting for the
// flush to finish.  Reads are unaffected; use it before measuring
// on-disk state or creating external copies.
func (db *DB) Flush() error { return db.fanout((*pipeline).flush) }

func (p *pipeline) flush() error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if p.opt.InlineBackground {
		// No workers in inline mode: drain any leftover immutable
		// memtable (e.g. from an earlier failed Flush) ourselves.
		p.inlineBG()
	}
	p.mu.Lock()
	for p.imm != nil && !p.closed && !p.readonly {
		p.cond.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.readonly {
		err := errors.Join(ErrReadOnly, p.bgErr)
		p.mu.Unlock()
		return err
	}
	if p.mem.Count() == 0 {
		p.mu.Unlock()
		return nil
	}
	// Move the memtable through the same immutable-slot pipeline as
	// automatic flushes: a failed engine flush then keeps the data
	// readable (and retried) in the immutable memtable instead of
	// dropping acknowledged writes on the floor.
	err := p.rotateLocked()
	p.mu.Unlock()
	if err != nil {
		// The memtable is still in place; count the failure like any
		// other commit-path fault so a full disk degrades the store
		// instead of failing opaquely forever.
		p.noteCommitError("wal", err)
		return err
	}
	if p.opt.InlineBackground {
		p.inlineBG()
	}
	p.mu.Lock()
	for p.imm != nil && !p.closed && !p.readonly && p.bgErr == nil {
		p.cond.Wait()
	}
	switch {
	case p.imm == nil:
		err = nil
	case p.readonly:
		err = errors.Join(ErrReadOnly, p.bgErr)
	case p.bgErr != nil:
		// The flush attempt failed; the background worker keeps
		// retrying with the data safe in the immutable memtable.
		err = p.bgErr
	default:
		err = ErrClosed
	}
	p.mu.Unlock()
	return err
}

// ApproximateSize estimates the on-disk bytes of data stored in the
// user-key range [start, limit], excluding memtable contents.  The
// estimate counts whole nodes inside the range and half of each node
// straddling a boundary.
func (db *DB) ApproximateSize(start, limit []byte) int64 {
	var total int64
	for _, p := range db.pipes {
		if rs, ok := p.eng.(engine.RangeSizer); ok {
			total += rs.ApproximateSize(start, limit)
		}
	}
	return total
}
