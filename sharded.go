package iamdb

import (
	"fmt"
	"io"

	"iamdb/internal/corrupt"
	"iamdb/internal/engine"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/shard"
	"iamdb/internal/vfs"
)

// Range sharding (Options.Shards > 1): the DB routes the keyspace
// across N pipelines, each owning a disjoint key range with its own
// WAL, memtable, engine and commit queue in its own shard-NNN
// subdirectory.  Writers on different shards never contend on a commit
// lock, so sharding multiplies group-commit throughput under sync
// latency — the "multiple independent trees" scaling the paper's
// single-pipeline design leaves on the table.  One pipeline is the
// same code with a one-range partition and the unsharded layout.
//
// Cross-shard atomicity: every sequence number comes from one
// shard.Sequencer.  Commit leaders take one ticket per group; a batch
// spanning shards takes one contiguous range up front and carves it
// into per-shard sub-ranges.  Readers take the sequencer's watermark —
// the end of the longest fully-committed allocation prefix — as their
// snapshot, so a batch spanning shards is visible all-or-nothing even
// while other writers commit concurrently.  See DESIGN.md "Sharded
// front-end".

// shardsFileName is the root marker of a sharded database directory: a
// CRC-guarded record of the shard count and split keys (see
// shard.Partition.Encode).  Reopening adopts the recorded layout;
// damage surfaces as a typed corruption error at Open.
const shardsFileName = "SHARDS"

// shardDirName is shard i's subdirectory under the database root.
func shardDirName(dir string, i int) string {
	return fmt.Sprintf("%s/shard-%03d", dir, i)
}

// loadOrInitPartition resolves the shard layout: adopt the recorded
// SHARDS marker (rejecting a conflicting explicit layout), or record
// the requested one when the directory is fresh.  Shard data without a
// readable marker is corruption — routing would be guesswork.  A store
// that is not sharded gets the one-range partition and no marker, so
// its directory keeps the unsharded layout.
func loadOrInitPartition(fs vfs.FS, dir string, shards int, splits [][]byte) (shard.Partition, error) {
	path := dir + "/" + shardsFileName
	if fs.Exists(path) {
		data, err := readWholeFile(fs, path)
		if err != nil {
			return shard.Partition{}, err
		}
		part, err := shard.DecodePartition(data)
		if err != nil {
			return shard.Partition{}, corrupt.New(corrupt.LayerManifest, path, -1, err,
				"SHARDS marker unreadable")
		}
		if shards > 1 {
			want, err := shard.NewPartition(shards, splits)
			if err != nil {
				return shard.Partition{}, err
			}
			if !want.Equal(part) {
				return shard.Partition{}, fmt.Errorf(
					"iamdb: %s records %d shards with a different layout than the %d requested; "+
						"reopen without explicit shard options to adopt it", path, part.Count(), shards)
			}
		}
		return part, nil
	}
	if fs.Exists(shardDirName(dir, 0) + "/MANIFEST") {
		// Shard directories with no marker: a checkpoint that crashed
		// before its commit point, or a lost/deleted marker.  Refuse
		// rather than guess a routing over existing data.
		return shard.Partition{}, corrupt.New(corrupt.LayerManifest, path, -1,
			shard.ErrBadShardsFile, "shard directories present but SHARDS marker missing")
	}
	if shards < 2 {
		return shard.Partition{}, nil
	}
	part, err := shard.NewPartition(shards, splits)
	if err != nil {
		return shard.Partition{}, err
	}
	if err := writeShardsFile(fs, dir, part); err != nil {
		return shard.Partition{}, err
	}
	return part, nil
}

// writeShardsFile durably records the partition: tmp + sync + rename,
// so the marker is either absent or complete.
func writeShardsFile(fs vfs.FS, dir string, part shard.Partition) error {
	path := dir + "/" + shardsFileName
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	enc := part.Encode()
	if _, err := f.WriteAt(enc, 0); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return nil
}

func readWholeFile(fs vfs.FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// NumShards reports how many independent shards back this DB; 1 for a
// classic single-tree database.
func (db *DB) NumShards() int { return len(db.pipes) }

// ShardRange describes shard i's key range as [Lo, Hi); Lo is nil for
// the first shard and Hi nil for the last, so an unsharded DB's only
// shard 0 is unbounded both ways.  Like ShardMetrics, it panics unless
// 0 <= i < NumShards().
func (db *DB) ShardRange(i int) (lo, hi []byte) {
	splits := db.part.Splits()
	if i > 0 {
		lo = splits[i-1]
	}
	if i < len(splits) {
		hi = splits[i]
	}
	return lo, hi
}

// mergeEngineStats folds one shard's traffic snapshot into the sum.
func mergeEngineStats(dst *engine.StatsSnapshot, src engine.StatsSnapshot) {
	for len(dst.PerLevel) < len(src.PerLevel) {
		dst.PerLevel = append(dst.PerLevel, engine.LevelStats{})
	}
	for i, ls := range src.PerLevel {
		d := &dst.PerLevel[i]
		d.WriteBytes += ls.WriteBytes
		d.ReadBytes += ls.ReadBytes
		d.Appends += ls.Appends
		d.Merges += ls.Merges
		d.Moves += ls.Moves
		d.Splits += ls.Splits
		d.Combines += ls.Combines
	}
	for len(dst.FlushBytes) < len(src.FlushBytes) {
		dst.FlushBytes = append(dst.FlushBytes, 0)
	}
	for i, fb := range src.FlushBytes {
		dst.FlushBytes[i] += fb
	}
	dst.Appends += src.Appends
	dst.Merges += src.Merges
	dst.Moves += src.Moves
	dst.Splits += src.Splits
	dst.Combines += src.Combines
	dst.Flushes += src.Flushes
}

// mergeLevelInfos folds per-level shape by level index, keeping the
// result sorted by level.
func mergeLevelInfos(dst, src []engine.LevelInfo) []engine.LevelInfo {
	for _, li := range src {
		found := false
		for i := range dst {
			if dst[i].Level == li.Level {
				dst[i].Nodes += li.Nodes
				dst[i].Bytes += li.Bytes
				dst[i].Seqs += li.Seqs
				dst[i].Quarantined += li.Quarantined
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, li)
		}
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Level < dst[j-1].Level; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// shardConcat concatenates per-shard iterators into one totally ordered
// stream over internal keys, in both directions — the ranges are
// disjoint and ordered, so no heap is needed and a scan only pays for
// the shards it actually touches.  Seek targets are routed by user key;
// exhausting one shard moves to the next (forward) or previous
// (backward) one.  pipes mirrors kids: pipes[cur] is the pipeline whose
// value log resolves the current position's pointer records.
type shardConcat struct {
	part  shard.Partition
	kids  []iterator.ReverseIterator
	pipes []*pipeline
	cur   int // current child, -1 when exhausted
	err   error
}

func (c *shardConcat) note(err error) {
	if err != nil && c.err == nil {
		c.err = err
	}
}

// fwd settles on the first valid child at or after i; children before i
// must already be positioned, children after get First.
func (c *shardConcat) fwd(i int) {
	for ; i < len(c.kids); i++ {
		if c.kids[i].Valid() {
			c.cur = i
			return
		}
		c.note(c.kids[i].Err())
		if i+1 < len(c.kids) {
			c.kids[i+1].First()
		}
	}
	c.cur = -1
}

// bwd settles on the last valid child at or before i.
func (c *shardConcat) bwd(i int) {
	for ; i >= 0; i-- {
		if c.kids[i].Valid() {
			c.cur = i
			return
		}
		c.note(c.kids[i].Err())
		if i > 0 {
			c.kids[i-1].Last()
		}
	}
	c.cur = -1
}

// First implements iterator.Iterator.
func (c *shardConcat) First() {
	c.kids[0].First()
	c.fwd(0)
}

// Seek implements iterator.Iterator.
func (c *shardConcat) Seek(target []byte) {
	u, _, _, ok := kv.ParseInternalKey(target)
	if !ok {
		c.note(errBadBatch)
		c.cur = -1
		return
	}
	i := c.part.IndexOf(u)
	c.kids[i].Seek(target)
	c.fwd(i)
}

// Next implements iterator.Iterator.
func (c *shardConcat) Next() {
	if c.cur < 0 {
		return
	}
	c.kids[c.cur].Next()
	c.fwd(c.cur)
}

// Last implements iterator.ReverseIterator.
func (c *shardConcat) Last() {
	last := len(c.kids) - 1
	c.kids[last].Last()
	c.bwd(last)
}

// SeekForPrev implements iterator.ReverseIterator.
func (c *shardConcat) SeekForPrev(target []byte) {
	u, _, _, ok := kv.ParseInternalKey(target)
	if !ok {
		c.note(errBadBatch)
		c.cur = -1
		return
	}
	i := c.part.IndexOf(u)
	c.kids[i].SeekForPrev(target)
	c.bwd(i)
}

// Prev implements iterator.ReverseIterator.
func (c *shardConcat) Prev() {
	if c.cur < 0 {
		return
	}
	c.kids[c.cur].Prev()
	c.bwd(c.cur)
}

// Valid implements iterator.Iterator.
func (c *shardConcat) Valid() bool { return c.cur >= 0 && c.err == nil }

// Key implements iterator.Iterator.
func (c *shardConcat) Key() []byte {
	if c.cur < 0 {
		return nil
	}
	return c.kids[c.cur].Key()
}

// Value implements iterator.Iterator.
func (c *shardConcat) Value() []byte {
	if c.cur < 0 {
		return nil
	}
	return c.kids[c.cur].Value()
}

// Err implements iterator.Iterator.
func (c *shardConcat) Err() error { return c.err }

// Close implements iterator.Iterator.
func (c *shardConcat) Close() error {
	var first error
	for _, kid := range c.kids {
		if err := kid.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
