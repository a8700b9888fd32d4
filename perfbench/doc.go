// Command perfbench is IamDB's repository benchmark: wall-clock
// workloads against the public iamdb API on the host filesystem, from a
// single process, with every result checked.  Run it from the root of
// the repository:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module (its go.mod points at the repository root)
// into .bench_build and runs it there; data directories are temporary
// directories under .bench_build, removed when each phase ends.  The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it, all
// starting with "#", repeat every metric with its unit and print the
// run metadata (CPU count, GOMAXPROCS, Go version, git revision, seed,
// filesystem type, and each workload's clients, SyncWrites policy,
// dataset size against CacheSize and MemtableSize, and Options).  The
// command exits 1 on any wrong result and 2 when it cannot run.
//
// # Configuration
//
// Every workload runs the IAM engine (the default and the paper's
// contribution) with Shards=1, scaled like internal/harness: a node
// (memtable) capacity far below the dataset and a block cache of stated
// size.  Keys are ycsb.KeyName(i).  A value is a function of (record,
// version, seed): a 12-byte header holding the record and version, then
// a slice of a seeded pseudo-random pool, so every read is checkable.
// Every client is closed-loop: it sends its next operation only after
// the previous one returned.
//
// # Workloads
//
//	fillrandom       1 client, Put-only load of 1 KiB values in hashed key order
//	                 into an empty DB, SyncWrites=false, 1 MiB memtable, 8 MiB
//	                 cache.  Every phase ends with >= 3 levels and merges.  It
//	                 exercises the commit path, WAL, memtable, the core flush
//	                 cascade and table writes with the read layers idle; on 2
//	                 CPUs background compaction competes with the client.
//	readrandom       1 client, 90% zipfian Get and 10% forward scans of 1-100
//	                 keys (YCSB-E lengths) over 40000 records (~10x the 4 MiB
//	                 cache; 2 MiB memtable) loaded and CompactAll'd in setup.
//	                 It exercises memtable/level probes, bloom, index, block
//	                 cache, table reads and merging iterators with the write
//	                 path idle; it is the larger-than-cache workload.  The OS page cache
//	                 serves most table reads, so its latencies are this host's,
//	                 not a device's.
//	ycsba_sync       2 clients, YCSB-A: 50% zipfian Get, 50% Put of 1 KiB
//	                 values, SyncWrites=true, 1 MiB memtable, 6000 records
//	                 (under half the 16 MiB cache).  It prices durable
//	                 acknowledged writes, group commit under 2 writers and WAL
//	                 fsync, and reads of hot, freshly written keys from a
//	                 resident cache.  Each
//	                 record has one writing client, so versions stay ordered.
//	kvsep_overwrite  1 client, 80% uniform overwrites and 20% uniform Get of
//	                 4000 records of 8 KiB values, ValueThreshold 4 KiB,
//	                 8 MiB value-log segments and a 256 KiB memtable, so
//	                 pointer flushes drive the compactions that report
//	                 discards.  It is the only workload that exercises
//	                 internal/vlog: append, lazy resolve and density GC.
//	                 The log syncs every sealed segment, so every value
//	                 reaches the disk: with 16 KiB values a run wrote about
//	                 6 GB, and ten runs in a row slowed by a third as the
//	                 host throttled the disk.
//
// # Run structure
//
// Setup opens a fresh DB, loads the records, runs CompactAll, and closes
// and reopens the DB, so every since-open counter (Metrics().IO,
// CacheHitRate, commit and value-log counts) covers only the measured
// phase; the reopen is part of setup_s.  Every ratio below is also taken
// as a delta over the phase itself.
//
// An untraced run (--trace 0) sets up and measures four times, each
// phase a quarter of --seconds, and reports the median of each
// end-to-end metric over the four.  The filesystem is synced before each
// setup and each phase, and garbage collected before each phase, so
// neither timing pays for the writeback or garbage of what came before.
// The run sets up further times, unmeasured, while its setups together
// took under a second (at most 20), and setup_s is the median over all
// of them.
//
// A traced run (--trace 1) passes Options.Trace with a recorder on the
// same NewWallClock as Options.Clock, and a device wrapper as
// Options.FS.  Its phase runs for half of --seconds or until the span
// ring is three quarters full, whichever comes first, and the run fails
// if the recorder dropped a span.  Once the DB is idle, the wrapper's
// byte totals must equal Metrics().IO exactly.  The run then sets up
// again untraced and runs the same number of operations.  That phase
// gives the per-operation latencies and the tracing overhead.
//
// Every phase is checked.  Each Get must return the value last
// acknowledged for its key, or the one its writer has in flight.  Each
// scan must return the next keys of the loaded set in strictly
// increasing order with their expected values.  After the phase, 2000
// sampled records must hold exactly their last acknowledged version,
// and DB.CheckInvariants must pass.  Each phase must also do the work
// its workload was chosen for:
//
//	fillrandom       >= 3 levels and core merges > 0
//	readrandom       device reads > 0 (not cache-resident)
//	ycsba_sync       batches per commit group > 1
//	kvsep_overwrite  value-log segments collected > 0
//
// # End-to-end metrics (--trace 0)
//
//	ops_per_s      ops/s       operations completed / phase wall time
//	op_p50_us      us          op-mix median latency: the geometric mean of each
//	                           operation type's median, weighted by the type's
//	                           share of operations
//	op_p99_us      us          the same over each type's p99
//	io_kib_per_op  KiB         (Metrics().IO bytes written + read) over the phase
//	                           / operations; base: the phase's operations
//	space_amp      bytes/byte  SpaceUsed / live user bytes (distinct records ×
//	                           (key + value)), median of samples taken every
//	                           100 ms after the phase's first tenth
//	heap_peak_mb   MiB         peak Go heap object bytes during the phase,
//	                           sampled every 5 ms
//	setup_s        s           open, load, compaction and reopen before a phase
//
// Latency is one time.Now pair around each public call: Put, Get, and
// for a scan NewIterator + Seek + n×Next + Close with the keys and
// values copied out.  Every metric above applies to every workload.  So
// a latency mixes the workload's operation types geometrically rather
// than taking a quantile of their union.  A plain median of ycsba_sync's
// 50/50 mix would fall in the gap between Gets of a few microseconds
// and synced Puts near 100 µs, and flip between them from run to run.
//
// The untraced run also prints, per repetition, each operation type's
// sample count, p50, p99 and p99.9 (the p99.9 is not gated: it did not
// repeat within a tenth), and the per-operation metrics listed under
// "Public calls" below.
//
// # Per-layer metrics (--trace 1)
//
// Layers are measured from outside, at three boundaries the program
// already exposes: the public calls, the device (the wrapper times every
// write, read and sync and counts bytes, split into wal (*.log), table
// (*.mst), vlog (*.vlg) and manifest (MANIFEST*) files), and the spans
// and Metrics() snapshots the DB already keeps.  The benchmark adds no
// spans or counters inside the program.  Means are per call or per span;
// "per op" means per read operation (Get or scan).  The map says which
// end-to-end figures each layer should move, and where it should not,
// so a claim can be named as <metric> on <workload>.
//
//	commit pipeline (db.go, batch.go): commit.batches_per_group (Metrics
//	  batches/groups), commit.wait_us (CommitWait per batch),
//	  commit.enqueue_us and commit.group_self_us (span commit.enqueue;
//	  commit.group minus its children), write.stall_count,
//	  write.stall_frac (stall time / phase wall time).
//	  Moves put_p99_us and ops_per_s on ycsba_sync; not readrandom.
//	internal/wal: wal.append_us (span commit.wal), wal.bytes_per_user_byte
//	  (WAL bytes / user key+value bytes Put), vfs.wal.syncs,
//	  vfs.wal.sync_us, vfs.wal.write_us.
//	  Moves put_p50_us on ycsba_sync (sync) and fillrandom (append); not
//	  readrandom.
//	internal/memtable: memtable.apply_us (span commit.apply),
//	  memtable.rotations.
//	  Moves put_p50_us on fillrandom; not readrandom.
//	internal/core: core.flush_count and core.flush_busy_frac (spans
//	  core.flush; busy time / phase wall time),
//	  core.{append,merge,split,move,combine}_count, core.{append,merge}_us
//	  (spans), core.write_amp (tree flush bytes / user bytes, tree only),
//	  core.levels, core.mixed_level.
//	  Moves write_amp, ops_per_s and put_p99_us on fillrandom; not get_*
//	  on readrandom.
//	internal/table, block, bloom (at the FS boundary):
//	  get.table_reads_per_op, get.table_read_bytes_per_op,
//	  vfs.table.read_us, vfs.table.write_bytes, vfs.table.sync_us.
//	  Moves get_p50_us and get_p99_us on readrandom; not put_* on
//	  fillrandom.
//	internal/cache: cache.hit_rate (hits / lookups over the phase).
//	  Moves get_p50_us on readrandom; not ycsba_sync, where the dataset
//	  is resident.
//	internal/iterator: iter.new_us, iter.seek_us, iter.next_ns (timed
//	  around the public calls).
//	  Moves scan_p50_us and scan_p99_us on readrandom; not fillrandom.
//	internal/vlog: vlog.appends, vlog.resolves_per_get (resolves per read
//	  op), vlog.gc_segments, vlog.discard_frac (discard / log bytes at the
//	  end), vfs.vlog.{write_bytes,write_us,read_us,syncs}.
//	  Moves write_amp, put_p50_us and get_p50_us on kvsep_overwrite; no
//	  other workload.
//	internal/vfs (manifest): vfs.manifest.write_bytes, vfs.manifest.syncs.
//	  Moves write_amp on fillrandom; not readrandom.
//	Public calls, from the untraced phase: put_p50_us, put_p99_us,
//	  get_p50_us, get_p99_us, scan_p50_us, scan_p99_us (0 where the
//	  workload has no such operation), write_amp (Metrics().IO bytes
//	  written, covering WAL, tables, manifest and value log, / user
//	  key+value bytes Put; not Metrics.WriteAmplification, which excludes
//	  the value log), failed_ops_frac ((errors + wrong results) /
//	  operations attempted).
//	Tracing: trace.ops_per_s and trace.untraced_ops_per_s over the same
//	  operations, trace.overhead_frac (1 - traced/untraced), trace.dropped.
//
// # Out of scope
//
// internal/lsm: the LevelDB and RocksDB baselines stay on the
// virtual-clock paper experiments in cmd/iambench.  internal/shard: the
// benchmark runs Shards=1.
package main
