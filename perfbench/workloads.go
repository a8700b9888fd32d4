package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"iamdb"
	"iamdb/internal/metrics"
	"iamdb/internal/vfs"
	"iamdb/internal/ycsb"
)

type opKind int

const (
	opPut opKind = iota
	opGet
	opScan
	numOps
)

var opNames = [numOps]string{"put", "get", "scan"}

// workload is one traffic mix over one configuration.  Sizes are scaled
// the way internal/harness scales the paper: a node (memtable) capacity
// far below the dataset and a block cache of stated size.
type workload struct {
	name, why string
	clients   int
	// records is the number of records loaded during setup; 0 means the
	// measured phase fills an empty DB with fresh keys.
	records   int
	valueSize int
	// getFrac and scanFrac are the shares of Get and scan operations;
	// the rest are Puts.
	getFrac, scanFrac float64
	// zipf draws keys from ycsb's scrambled zipfian; otherwise uniform.
	zipf bool
	opts iamdb.Options
	// proves checks that a phase did the work the workload was chosen
	// for; a run fails otherwise.
	proves func(p *phase) error
}

const keyLen = 23 // len(ycsb.KeyName(i)): "user" + 19 digits

var workloads = []workload{
	{
		name:    "fillrandom",
		why:     "Put-only fill of 1 KiB values in hashed key order into an empty DB: commit path, WAL, memtable, flush cascade and table writes; read layers idle",
		clients: 1, valueSize: 1024,
		opts:   iamdb.Options{Shards: 1, MemtableSize: 1 << 20, CacheSize: 8 << 20},
		proves: provesFill,
	},
	{
		name:    "readrandom",
		why:     "90% zipfian Get and 10% scans of 1-100 keys over a compacted dataset 10x the block cache: bloom, index, cache, table reads and merging iterators; write path idle",
		clients: 1, records: 40000, valueSize: 1024, getFrac: 0.9, scanFrac: 0.1, zipf: true,
		opts:   iamdb.Options{Shards: 1, MemtableSize: 2 << 20, CacheSize: 4 << 20},
		proves: provesUncached,
	},
	{
		name:    "ycsba_sync",
		why:     "YCSB-A, 2 clients, 50% zipfian Get and 50% synced Put over a dataset under half the cache: group commit, WAL fsync and hot cached reads",
		clients: 2, records: 6000, valueSize: 1024, getFrac: 0.5, zipf: true,
		opts:   iamdb.Options{Shards: 1, MemtableSize: 1 << 20, CacheSize: 16 << 20, SyncWrites: true},
		proves: provesGroupCommit,
	},
	{
		name:    "kvsep_overwrite",
		why:     "80% uniform overwrites and 20% Get of 8 KiB values above ValueThreshold with a small memtable: value-log append, lazy resolve and density GC",
		clients: 1, records: 4000, valueSize: 8 << 10, getFrac: 0.2,
		opts: iamdb.Options{Shards: 1, MemtableSize: 256 << 10, CacheSize: 8 << 20,
			ValueThreshold: 4 << 10, VlogSegmentSize: 8 << 20},
		proves: provesVlogGC,
	},
}

func provesFill(p *phase) error {
	levels := 0
	for _, li := range p.m1.Levels {
		if li.Nodes > 0 {
			levels++
		}
	}
	if merges := p.m1.Engine.Merges - p.m0.Engine.Merges; levels < 3 || merges == 0 {
		return fmt.Errorf("fill reached %d levels with %d merges, want >= 3 levels and merges", levels, merges)
	}
	return nil
}

// provesUncached demands device reads: the only files a read-only
// phase reads are tables, so a read means the block cache missed.
func provesUncached(p *phase) error {
	if p.m1.IO.BytesRead == p.m0.IO.BytesRead {
		return errors.New("no table reads: the dataset is cache-resident")
	}
	return nil
}

func provesGroupCommit(p *phase) error {
	batches := p.m1.CommitBatches - p.m0.CommitBatches
	groups := p.m1.CommitGroups - p.m0.CommitGroups
	if batches <= groups {
		return fmt.Errorf("%d batches in %d commit groups: no group commit", batches, groups)
	}
	return nil
}

func provesVlogGC(p *phase) error {
	if p.m1.VLogGCSegments == p.m0.VLogGCSegments {
		return errors.New("value-log GC collected no segment")
	}
	return nil
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// traceCapacity is the span ring size of a traced run.  A traced phase
// ends once the ring is three quarters full, so no span is overwritten
// (a Put records four commit spans; 2^19 spans hold about 100k Puts).
const traceCapacity = 1 << 19

// bench is one workload at one seed: its value generator, the
// acknowledged version of every record, and the data directory root.
type bench struct {
	w       workload
	seed    int64
	vals    *values
	ver     versions
	filled  atomic.Uint64 // records written so far by a fill
	keyID   map[string]uint64
	sorted  [][]byte // every loaded key in order, for checking scans
	workdir string
}

func newBench(w workload, seed int64, workdir string) *bench {
	b := &bench{w: w, seed: seed, vals: newValues(seed, w.valueSize), workdir: workdir,
		ver: make(versions, w.records)}
	if w.zipf || w.scanFrac > 0 {
		b.keyID = make(map[string]uint64, w.records)
		b.sorted = make([][]byte, w.records)
		for i := range w.records {
			k := ycsb.KeyName(uint64(i))
			b.keyID[string(k)] = uint64(i)
			b.sorted[i] = k
		}
		slices.SortFunc(b.sorted, bytes.Compare)
	}
	return b
}

// store is an open DB ready for a measured phase.  A traced store also
// carries the span recorder, its clock and the device wrapper.
type store struct {
	db    *iamdb.DB
	dir   string
	tfs   *timingFS
	rec   *iamdb.TraceRecorder
	clock iamdb.Clock
}

func (s *store) close() error {
	err := s.db.Close()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// setup opens a fresh DB, loads the workload's records, compacts, and
// closes and reopens it, so every since-open counter of the returned
// store covers only what follows.  It returns the time all that took.
// The filesystem is synced first, so the timing does not include
// writing back what an earlier phase left dirty.
func (b *bench) setup(traced bool) (_ *store, _ time.Duration, err error) {
	syscall.Sync()
	start := time.Now()
	dir, err := os.MkdirTemp(b.workdir, "data-")
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			_ = os.RemoveAll(dir)
		}
	}()
	o := b.w.opts
	db, err := iamdb.Open(dir, &o)
	if err != nil {
		return nil, 0, err
	}
	b.filled.Store(0)
	err = b.load(db)
	if err == nil {
		err = db.CompactAll()
	}
	if err = errors.Join(err, db.Close()); err != nil {
		return nil, 0, err
	}
	s := &store{dir: dir}
	o = b.w.opts
	if traced {
		s.clock = iamdb.NewWallClock()
		s.rec = iamdb.NewTraceRecorder(traceCapacity, s.clock)
		s.tfs = newTimingFS(vfs.NewOSFS())
		o.FS, o.Clock, o.Trace = s.tfs, s.clock, s.rec
	}
	if s.db, err = iamdb.Open(dir, &o); err != nil {
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// load writes version 1 of every record in batches.
func (b *bench) load(db *iamdb.DB) error {
	const batchSize = 100
	var batch iamdb.Batch
	var val []byte
	for i := 0; i < b.w.records; i++ {
		val = b.vals.appendValue(val[:0], uint64(i), 1)
		batch.Put(ycsb.KeyName(uint64(i)), val)
		b.ver[i].Store(1)
		if batch.Len() == batchSize || i == b.w.records-1 {
			if err := db.Write(&batch); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			batch.Reset()
		}
	}
	return nil
}

// client is one closed-loop client: it sends its next operation only
// after the previous one returned.
type client struct {
	b      *bench
	db     *iamdb.DB
	idx    int
	rng    *rand.Rand
	runner *ycsb.Runner
	traced bool

	lat       [numOps]samples
	ops       [numOps]int64
	failed    int64
	userBytes int64
	errs      []string

	// Iterator call timings, kept only on a traced phase.
	iterNew, iterSeek, iterNext time.Duration
	nIter, nNext                int64

	val     []byte
	scanBuf []byte
	scanOff []int
}

func (b *bench) newClient(db *iamdb.DB, idx int, traced bool) *client {
	seed := b.seed*1000003 + int64(idx)
	c := &client{b: b, db: db, idx: idx, rng: rand.New(rand.NewSource(seed)), traced: traced}
	if b.w.zipf {
		c.runner = ycsb.NewRunner(ycsb.Workload{
			Name: b.w.name, ReadProp: b.w.getFrac, ScanProp: b.w.scanFrac,
			UpdateProp: 1 - b.w.getFrac - b.w.scanFrac, MaxScanLen: 100,
		}, uint64(b.w.records), seed)
	}
	return c
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// next draws the client's next operation: its kind, record and scan
// length.
func (c *client) next() (opKind, uint64, int) {
	w := &c.b.w
	if w.records == 0 {
		return opPut, c.b.filled.Add(1) - 1, 0
	}
	var kind opKind
	var id uint64
	n := 0
	if c.runner != nil {
		op := c.runner.Next()
		id = c.b.keyID[string(op.Key)]
		switch op.Type {
		case ycsb.OpRead:
			kind = opGet
		case ycsb.OpScan:
			kind, n = opScan, op.ScanLen
		default:
			kind = opPut
		}
	} else {
		kind = opPut
		if c.rng.Float64() < w.getFrac {
			kind = opGet
		}
		id = uint64(c.rng.Intn(w.records))
	}
	if kind == opPut && w.clients > 1 {
		// Each record has one writing client, so versions stay ordered.
		k := uint64(w.clients)
		id = id - id%k + uint64(c.idx)
		if id >= uint64(w.records) {
			id -= k
		}
	}
	return kind, id, n
}

// run issues operations until stop reports true.
func (c *client) run(stop func(n int64) bool) {
	for n := int64(0); !stop(n); n++ {
		kind, id, scanLen := c.next()
		switch kind {
		case opPut:
			c.put(id)
		case opGet:
			c.get(id)
		case opScan:
			c.scan(id, scanLen)
		}
		c.ops[kind]++
	}
}

func (c *client) put(id uint64) {
	key := ycsb.KeyName(id)
	ver := uint32(1)
	if c.b.w.records > 0 {
		ver = c.b.ver[id].Load() + 1
	}
	c.val = c.b.vals.appendValue(c.val[:0], id, ver)
	start := time.Now()
	err := c.db.Put(key, c.val)
	c.lat[opPut].add(time.Since(start))
	if err != nil {
		c.fail("put %s: %v", key, err)
		return
	}
	if c.b.w.records > 0 {
		c.b.ver[id].Store(ver)
	}
	c.userBytes += int64(len(key) + len(c.val))
}

func (c *client) get(id uint64) {
	key := ycsb.KeyName(id)
	lo := c.b.ver[id].Load()
	start := time.Now()
	v, err := c.db.Get(key)
	c.lat[opGet].add(time.Since(start))
	hi := c.b.ver[id].Load()
	if c.b.w.clients > 1 {
		hi++ // the record's writer may have a newer version in flight
	}
	if err != nil {
		c.fail("get %s: %v", key, err)
		return
	}
	if err := c.b.vals.check(id, v, lo, hi); err != nil {
		c.fail("get %s: %v", key, err)
	}
}

// scan times NewIterator + Seek + n×Next + Close, copying out each key
// and value as a reader would, and checks the copies afterwards.  Scans
// run only on read-only workloads, so the expected keys are the next n
// loaded keys in order.
func (c *client) scan(id uint64, n int) {
	start := ycsb.KeyName(id)
	c.scanBuf, c.scanOff = c.scanBuf[:0], c.scanOff[:0]
	t0 := time.Now()
	it := c.db.NewIterator()
	var t1, t2 time.Time
	if c.traced {
		t1 = time.Now()
	}
	it.Seek(start)
	if c.traced {
		t2 = time.Now()
	}
	for i := 0; i < n && it.Valid(); i++ {
		c.scanBuf = append(c.scanBuf, it.Key()...)
		c.scanOff = append(c.scanOff, len(c.scanBuf))
		c.scanBuf = append(c.scanBuf, it.Value()...)
		c.scanOff = append(c.scanOff, len(c.scanBuf))
		if c.traced {
			t := time.Now()
			it.Next()
			c.iterNext += time.Since(t)
			c.nNext++
		} else {
			it.Next()
		}
	}
	iterErr := it.Err()
	closeErr := it.Close()
	c.lat[opScan].add(time.Since(t0))
	if c.traced {
		c.iterNew += t1.Sub(t0)
		c.iterSeek += t2.Sub(t1)
		c.nIter++
	}
	if err := errors.Join(iterErr, closeErr); err != nil {
		c.fail("scan %s: %v", start, err)
		return
	}
	if err := c.checkScan(start, n); err != nil {
		c.fail("scan %s+%d: %v", start, n, err)
	}
}

func (c *client) checkScan(start []byte, n int) error {
	sorted := c.b.sorted
	pos := sort.Search(len(sorted), func(i int) bool { return bytes.Compare(sorted[i], start) >= 0 })
	want := min(n, len(sorted)-pos)
	if got := len(c.scanOff) / 2; got != want {
		return fmt.Errorf("returned %d keys, want %d", got, want)
	}
	prev, from := []byte(nil), 0
	for i := 0; i < want; i++ {
		key := c.scanBuf[from:c.scanOff[2*i]]
		val := c.scanBuf[c.scanOff[2*i]:c.scanOff[2*i+1]]
		from = c.scanOff[2*i+1]
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			return fmt.Errorf("key %q does not follow %q", key, prev)
		}
		if !bytes.Equal(key, sorted[pos+i]) {
			return fmt.Errorf("key %d is %q, want %q", i, key, sorted[pos+i])
		}
		v := c.b.ver[c.b.keyID[string(key)]].Load()
		if err := c.b.vals.checkKeyed(key, val, v, v); err != nil {
			return err
		}
		prev = key
	}
	return nil
}

// phase is what one measured phase produced.
type phase struct {
	clients    []*client
	wall       time.Duration
	heapPeakMB float64
	spaceAmp   float64 // median over all but the phase's first tenth
	m0, m1     iamdb.Metrics
	c0, c1     metrics.Cumulative
	// io0 and io1 are the device wrapper's counters at the phase's
	// start and end (traced phases only).
	io0, io1 [numClasses]ioCounts
	// start and end are clock readings bracketing the phase, on the
	// trace recorder's clock (traced phases only).
	start, end time.Duration
}

func (p *phase) total() (ops [numOps]int64, all, failed, user int64) {
	for _, c := range p.clients {
		for k := range ops {
			ops[k] += c.ops[k]
			all += c.ops[k]
		}
		failed += c.failed
		user += c.userBytes
	}
	return
}

func (p *phase) lat(k opKind) latencies {
	ss := make([]*samples, len(p.clients))
	for i, c := range p.clients {
		ss[i] = &c.lat[k]
	}
	return mergeSamples(ss...)
}

// measure runs the workload's clients against s until d has passed or
// maxOps operations were issued (0: no limit).  A traced phase also ends
// before the span ring could overwrite anything.
func (b *bench) measure(s *store, d time.Duration, maxOps int64) *phase {
	// Setup's dirty pages are written back and its garbage collected
	// first, so neither lands in the phase.
	syscall.Sync()
	runtime.GC()
	p := &phase{m0: s.db.Metrics(), c0: s.db.SampleCumulative()}
	traced := s.rec != nil
	if traced {
		p.io0 = s.tfs.snapshot()
		p.start = s.clock.Now()
	}
	var issued atomic.Int64
	var ringFull atomic.Bool
	begin := time.Now()
	deadline := begin.Add(d)
	stop := func(n int64) bool {
		if maxOps > 0 && issued.Add(1) > maxOps {
			return true
		}
		if n%256 == 0 {
			if traced && s.rec.Len() > traceCapacity*3/4 {
				ringFull.Store(true)
			}
		}
		return ringFull.Load() || !time.Now().Before(deadline)
	}
	space := func() float64 { return float64(s.db.Metrics().SpaceUsed) / float64(b.liveBytes()) }
	smp := startSampler(space, begin.Add(d/10))
	var wg sync.WaitGroup
	for i := 0; i < b.w.clients; i++ {
		c := b.newClient(s.db, i, traced)
		p.clients = append(p.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(stop)
		}()
	}
	wg.Wait()
	p.wall = time.Since(begin)
	p.heapPeakMB, p.spaceAmp = smp.end(space)
	if traced {
		p.end = s.clock.Now()
	}
	p.m1, p.c1 = s.db.Metrics(), s.db.SampleCumulative()
	if traced {
		p.io1 = s.tfs.snapshot()
	}
	return p
}

// verify re-reads a sample of records once the phase has quiesced and
// demands each hold exactly its last acknowledged version, then checks
// the engine's structural invariants.  It returns the reads made and
// those that failed.
func (b *bench) verify(db *iamdb.DB) (attempted, failed int64, errs []string) {
	n := uint64(b.w.records)
	if n == 0 {
		n = b.filled.Load()
	}
	rng := rand.New(rand.NewSource(b.seed ^ 0x7e51f7))
	for i := 0; i < 2000 && n > 0; i++ {
		id := uint64(rng.Int63n(int64(n)))
		want := uint32(1)
		if b.w.records > 0 {
			want = b.ver[id].Load()
		}
		attempted++
		v, err := db.Get(ycsb.KeyName(id))
		if err == nil {
			err = b.vals.check(id, v, want, want)
		}
		if err != nil {
			failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("verify: %v", err))
			}
		}
	}
	if err := db.CheckInvariants(); err != nil {
		failed++
		errs = append(errs, fmt.Sprintf("invariants: %v", err))
	}
	return attempted, failed, errs
}
