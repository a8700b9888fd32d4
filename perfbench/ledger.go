package main

import (
	"math"
	"time"

	"iamdb"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd computes the gated metrics of an untraced phase, but for
// setup_s.
func (b *bench) endToEnd(p *phase) []metric {
	ops, all, _, _ := p.total()
	io := p.m1.IO.Sub(p.m0.IO)
	return []metric{
		{"ops_per_s", "ops/s", float64(all) / p.wall.Seconds()},
		{"op_p50_us", "us", p.mixQuantile(ops, all, 0.50)},
		{"op_p99_us", "us", p.mixQuantile(ops, all, 0.99)},
		{"io_kib_per_op", "KiB", float64(io.BytesWritten+io.BytesRead) / float64(all) / 1024},
		{"space_amp", "bytes/byte", p.spaceAmp},
		{"heap_peak_mb", "MiB", p.heapPeakMB},
	}
}

// mixQuantile is the op-mix latency quantile: the geometric mean of
// each operation type's q-quantile, weighted by the type's share of the
// operations.  With one type it is that type's quantile; with several it
// moves with each type in proportion to its share, and it cannot fall
// into the gap between types whose latencies do not overlap, as a plain
// quantile of the union does when a type holds close to 1-q of the ops.
func (p *phase) mixQuantile(ops [numOps]int64, all int64, q float64) float64 {
	var logSum float64
	for k := range ops {
		if ops[k] == 0 {
			continue
		}
		logSum += float64(ops[k]) / float64(all) * math.Log(p.lat(opKind(k)).quantileUs(q))
	}
	return math.Exp(logSum)
}

// liveBytes is the user data a run leaves live: distinct records times
// key plus value bytes.
func (b *bench) liveBytes() int64 {
	n := int64(b.w.records)
	if n == 0 {
		n = int64(b.filled.Load())
	}
	return n * int64(keyLen+b.w.valueSize)
}

// perOp is the public-call ledger of an untraced phase: each operation
// type's latency quantiles by the names the layer map uses, write
// amplification and the failed fraction.  Types the workload does not
// issue read 0.
func (b *bench) perOp(p *phase, attempted, failed int64) []metric {
	var out []metric
	for _, k := range []opKind{opPut, opGet, opScan} {
		l := p.lat(k)
		out = append(out,
			metric{opNames[k] + "_p50_us", "us", l.quantileUs(0.50)},
			metric{opNames[k] + "_p99_us", "us", l.quantileUs(0.99)})
	}
	_, _, _, user := p.total()
	io := p.m1.IO.Sub(p.m0.IO)
	return append(out,
		metric{"write_amp", "bytes/byte", ratio(io.BytesWritten, user)},
		metric{"failed_ops_frac", "fraction", ratio(failed, attempted)})
}

// layers computes the per-layer ledger of a traced phase from the spans
// the DB already records, the device wrapper and Metrics deltas.
func (b *bench) layers(s *store, p *phase) []metric {
	ops, all, _, user := p.total()
	reads := ops[opGet] + ops[opScan]
	m0, m1 := p.m0, p.m1
	sp := summarize(s.rec.Snapshot(), p.start, p.end)
	var io [numClasses]ioCounts
	for i := range io {
		io[i] = p.io1[i].sub(p.io0[i])
	}
	wal, table, vlg, man := io[classWAL], io[classTable], io[classVlog], io[classManifest]
	wallNs := float64(p.end - p.start)

	var levels int
	for _, li := range m1.Levels {
		if li.Nodes > 0 {
			levels++
		}
	}
	mixed, _ := s.db.MixedLevel()
	e0, e1 := m0.Engine, m1.Engine
	var iterNew, iterSeek, iterNext time.Duration
	var nIter, nNext int64
	for _, c := range p.clients {
		iterNew += c.iterNew
		iterSeek += c.iterSeek
		iterNext += c.iterNext
		nIter += c.nIter
		nNext += c.nNext
	}
	discardFrac := 0.0
	if m1.VLogBytes > 0 {
		discardFrac = float64(m1.VLogDiscardBytes) / float64(m1.VLogBytes)
	}
	return []metric{
		{"commit.batches_per_group", "batches", ratio(m1.CommitBatches-m0.CommitBatches, m1.CommitGroups-m0.CommitGroups)},
		{"commit.wait_us", "us", ratio(int64(m1.CommitWait-m0.CommitWait), m1.CommitBatches-m0.CommitBatches) / 1e3},
		{"commit.enqueue_us", "us", sp["commit.enqueue"].meanUs()},
		{"commit.group_self_us", "us", sp["commit.group"].meanSelfUs()},
		{"write.stall_count", "count", float64(m1.StallCount - m0.StallCount)},
		{"write.stall_frac", "fraction", float64(m1.StallTime-m0.StallTime) / wallNs},
		{"wal.append_us", "us", sp["commit.wal"].meanUs()},
		{"wal.bytes_per_user_byte", "bytes/byte", ratio(wal.WriteBytes, user)},
		{"vfs.wal.syncs", "count", float64(wal.Syncs)},
		{"vfs.wal.sync_us", "us", ratio(wal.SyncNanos, wal.Syncs) / 1e3},
		{"vfs.wal.write_us", "us", ratio(wal.WriteNanos, wal.Writes) / 1e3},
		{"memtable.apply_us", "us", sp["commit.apply"].meanUs()},
		{"memtable.rotations", "count", float64(m1.WALRotations - m0.WALRotations)},
		{"core.flush_count", "count", float64(sp["core.flush"].n)},
		{"core.flush_busy_frac", "fraction", float64(sp["core.flush"].busy) / wallNs},
		{"core.append_count", "count", float64(e1.Appends - e0.Appends)},
		{"core.merge_count", "count", float64(e1.Merges - e0.Merges)},
		{"core.split_count", "count", float64(e1.Splits - e0.Splits)},
		{"core.move_count", "count", float64(e1.Moves - e0.Moves)},
		{"core.combine_count", "count", float64(e1.Combines - e0.Combines)},
		{"core.append_us", "us", sp["core.append"].meanUs()},
		{"core.merge_us", "us", sp["core.merge"].meanUs()},
		{"core.write_amp", "bytes/byte", ratio(e1.TotalFlushBytes()-e0.TotalFlushBytes(), user)},
		{"core.levels", "count", float64(levels)},
		{"core.mixed_level", "level", float64(mixed)},
		{"get.table_reads_per_op", "reads", ratio(table.Reads, reads)},
		{"get.table_read_bytes_per_op", "bytes", ratio(table.ReadBytes, reads)},
		{"vfs.table.read_us", "us", ratio(table.ReadNanos, table.Reads) / 1e3},
		{"vfs.table.write_bytes", "bytes", float64(table.WriteBytes)},
		{"vfs.table.sync_us", "us", ratio(table.SyncNanos, table.Syncs) / 1e3},
		{"cache.hit_rate", "fraction", cacheHitRate(p)},
		{"iter.new_us", "us", ratio(int64(iterNew), nIter) / 1e3},
		{"iter.seek_us", "us", ratio(int64(iterSeek), nIter) / 1e3},
		{"iter.next_ns", "ns", ratio(int64(iterNext), nNext)},
		{"vlog.appends", "count", float64(m1.VLogAppends - m0.VLogAppends)},
		{"vlog.resolves_per_get", "resolves", ratio(m1.VLogResolves-m0.VLogResolves, reads)},
		{"vlog.gc_segments", "count", float64(m1.VLogGCSegments - m0.VLogGCSegments)},
		{"vlog.discard_frac", "fraction", discardFrac},
		{"vfs.vlog.write_bytes", "bytes", float64(vlg.WriteBytes)},
		{"vfs.vlog.write_us", "us", ratio(vlg.WriteNanos, vlg.Writes) / 1e3},
		{"vfs.vlog.read_us", "us", ratio(vlg.ReadNanos, vlg.Reads) / 1e3},
		{"vfs.vlog.syncs", "count", float64(vlg.Syncs)},
		{"vfs.manifest.write_bytes", "bytes", float64(man.WriteBytes)},
		{"vfs.manifest.syncs", "count", float64(man.Syncs)},
		{"trace.ops_per_s", "ops/s", float64(all) / p.wall.Seconds()},
		{"trace.dropped", "spans", float64(s.rec.Dropped())},
	}
}

// cacheHitRate is the block-cache hit fraction over the phase's lookups.
func cacheHitRate(p *phase) float64 {
	return ratio(p.c1.CacheHits-p.c0.CacheHits, p.c1.CacheLookups-p.c0.CacheLookups)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spanStats aggregates the spans of one name that fall in the phase.
type spanStats struct {
	n     int64
	total time.Duration // summed durations
	self  time.Duration // summed durations minus their children's
	busy  time.Duration // summed durations, clipped to start in the phase
}

func (s spanStats) meanUs() float64     { return ratio(int64(s.total), s.n) / 1e3 }
func (s spanStats) meanSelfUs() float64 { return ratio(int64(s.self), s.n) / 1e3 }

// summarize folds the recorder's spans into per-name statistics.  A
// span counts when it ended inside [from, to]; busy clips its start to
// the phase.
func summarize(spans []iamdb.TraceSpan, from, to time.Duration) map[string]spanStats {
	child := make(map[uint64]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]spanStats)
	for _, s := range spans {
		if s.End < from || s.End > to {
			continue
		}
		st := out[s.Name]
		d := s.End - s.Start
		st.n++
		st.total += d
		st.self += d - child[s.ID]
		st.busy += s.End - max(s.Start, from)
		out[s.Name] = st
	}
	return out
}
