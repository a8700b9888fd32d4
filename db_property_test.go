package iamdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"iamdb/internal/vfs"
)

// TestModelCheckAgainstOracle drives each engine with a long random
// operation sequence — puts, deletes, batches, gets, scans, snapshots
// and full reopens — and checks every observable result against an
// in-memory oracle.  This is the repository's strongest end-to-end
// correctness test: any lost write, resurrected delete, mis-ordered
// scan or snapshot leak fails it.  Every engine runs unsharded and at
// four shards, with splits inside the oracle's keyspace so batches,
// scans and snapshots cross shard boundaries.
func TestModelCheckAgainstOracle(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					opts := func(fs vfs.FS) *Options {
						o := smallOpts(e, fs)
						if shards > 1 {
							o.Shards = shards
							o.ShardSplits = [][]byte{[]byte("key00750"), []byte("key01500"), []byte("key02250")}
						}
						return o
					}
					modelCheck(t, opts, 12000, 64+int64(e))
				})
			}
		})
	}
}

type oracleSnap struct {
	snap *Snapshot
	view map[string]string
}

func modelCheck(t *testing.T, opts func(vfs.FS) *Options, steps int, seed int64) {
	t.Helper()
	fs := vfs.NewMemFS()
	db, err := Open("db", opts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()

	rng := rand.New(rand.NewSource(seed))
	oracle := make(map[string]string)
	var snaps []oracleSnap

	key := func() string { return fmt.Sprintf("key%05d", rng.Intn(3000)) }
	val := func() string { return fmt.Sprintf("v%d", rng.Int63()) }

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // put
			k, v := key(), val()
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("step %d put: %v", step, err)
			}
			oracle[k] = v

		case op < 50: // delete
			k := key()
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatalf("step %d del: %v", step, err)
			}
			delete(oracle, k)

		case op < 55: // batch
			var b Batch
			n := 1 + rng.Intn(20)
			type change struct {
				k, v string
				del  bool
			}
			var changes []change
			for i := 0; i < n; i++ {
				k := key()
				if rng.Intn(4) == 0 {
					b.Delete([]byte(k))
					changes = append(changes, change{k: k, del: true})
				} else {
					v := val()
					b.Put([]byte(k), []byte(v))
					changes = append(changes, change{k: k, v: v})
				}
			}
			if err := db.Write(&b); err != nil {
				t.Fatalf("step %d batch: %v", step, err)
			}
			for _, c := range changes {
				if c.del {
					delete(oracle, c.k)
				} else {
					oracle[c.k] = c.v
				}
			}

		case op < 80: // get
			k := key()
			v, err := db.Get([]byte(k))
			want, ok := oracle[k]
			switch {
			case err == ErrNotFound:
				if ok {
					t.Fatalf("step %d: %s lost (want %q)", step, k, want)
				}
			case err != nil:
				t.Fatalf("step %d get: %v", step, err)
			case !ok:
				t.Fatalf("step %d: %s resurrected as %q", step, k, v)
			case string(v) != want:
				t.Fatalf("step %d: %s = %q want %q", step, k, v, want)
			}

		case op < 84: // bounded forward scan
			start := key()
			limit := 1 + rng.Intn(30)
			it := db.NewIterator()
			var got []string
			for it.Seek([]byte(start)); it.Valid() && len(got) < limit; it.Next() {
				got = append(got, string(it.Key())+"="+string(it.Value()))
			}
			if err := it.Err(); err != nil {
				t.Fatalf("step %d scan: %v", step, err)
			}
			it.Close()
			var want []string
			keys := make([]string, 0, len(oracle))
			for k := range oracle {
				if k >= start {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				if len(want) == limit {
					break
				}
				want = append(want, k+"="+oracle[k])
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d scan from %s mismatch:\n got %v\nwant %v",
					step, start, got, want)
			}

		case op < 88: // bounded reverse scan
			start := key()
			limit := 1 + rng.Intn(30)
			it := db.NewIterator()
			var got []string
			for it.SeekForPrev([]byte(start)); it.Valid() && len(got) < limit; it.Prev() {
				got = append(got, string(it.Key())+"="+string(it.Value()))
			}
			if err := it.Err(); err != nil {
				t.Fatalf("step %d rscan: %v", step, err)
			}
			it.Close()
			var want []string
			keys := make([]string, 0, len(oracle))
			for k := range oracle {
				if k <= start {
					keys = append(keys, k)
				}
			}
			sort.Sort(sort.Reverse(sort.StringSlice(keys)))
			for _, k := range keys {
				if len(want) == limit {
					break
				}
				want = append(want, k+"="+oracle[k])
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d rscan from %s mismatch:\n got %v\nwant %v",
					step, start, got, want)
			}

		case op < 91: // take snapshot
			if len(snaps) < 3 {
				view := make(map[string]string, len(oracle))
				for k, v := range oracle {
					view[k] = v
				}
				snaps = append(snaps, oracleSnap{db.GetSnapshot(), view})
			}

		case op < 94: // verify + release a snapshot
			if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				s := snaps[i]
				for probe := 0; probe < 5; probe++ {
					k := key()
					v, err := s.snap.Get([]byte(k))
					want, ok := s.view[k]
					if (err == ErrNotFound) == ok {
						t.Fatalf("step %d snap get %s: err=%v want-exists=%v",
							step, k, err, ok)
					}
					if err == nil && string(v) != want {
						t.Fatalf("step %d snap %s = %q want %q", step, k, v, want)
					}
				}
				s.snap.Release()
				snaps = append(snaps[:i], snaps[i+1:]...)
			}

		default: // reopen (crash-free restart)
			for _, s := range snaps {
				s.snap.Release()
			}
			snaps = nil
			if err := db.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			db, err = Open("db", opts(fs))
			if err != nil {
				t.Fatalf("step %d reopen: %v", step, err)
			}
		}
	}

	// Final exhaustive check.
	for k, want := range oracle {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("final: %s = %q (%v) want %q", k, v, err, want)
		}
	}
	it := db.NewIterator()
	defer it.Close()
	count := 0
	var prev []byte
	for it.First(); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("final scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != len(oracle) {
		t.Fatalf("final scan saw %d keys, oracle has %d", count, len(oracle))
	}
}
