package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"iamdb/internal/ycsb"
)

// valueHeader is the prefix every generated value carries: the record
// id (8 bytes) and the write version (4 bytes), so a read can say which
// write it is looking at before it compares the payload.
const valueHeader = 12

// poolSize is the pseudo-random pool value payloads are cut from.  A
// payload is the pool slice at an offset hashed from (id, version,
// seed), so generating or checking a value is a copy or a compare, not
// a random-number loop that would dominate the client's time.
const poolSize = 1 << 20

// values generates and checks the benchmark's values.  Every value is a
// function of (record id, version, seed), so any read can be checked
// against the write it should observe.
type values struct {
	seed uint64
	size int
	pool []byte
}

func newValues(seed int64, size int) *values {
	v := &values{seed: uint64(seed), size: size, pool: make([]byte, poolSize+size)}
	s := splitmix(uint64(seed) ^ 0x5eed)
	for i := 0; i+8 <= len(v.pool); i += 8 {
		s = splitmix(s)
		binary.LittleEndian.PutUint64(v.pool[i:], s)
	}
	return v
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *values) payload(id uint64, ver uint32) []byte {
	off := splitmix(id*0x100000001b3^uint64(ver)<<40^g.seed) % poolSize
	return g.pool[off : off+uint64(g.size-valueHeader)]
}

// appendValue appends the value of record id at version ver to dst.
func (g *values) appendValue(dst []byte, id uint64, ver uint32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, ver)
	return append(dst, g.payload(id, ver)...)
}

// check reports whether v is the value of record id at some version in
// [lo, hi], byte for byte.
func (g *values) check(id uint64, v []byte, lo, hi uint32) error {
	if len(v) != g.size {
		return fmt.Errorf("record %d: value is %d bytes, want %d", id, len(v), g.size)
	}
	if got := binary.LittleEndian.Uint64(v); got != id {
		return fmt.Errorf("record %d: value belongs to record %d", id, got)
	}
	ver := binary.LittleEndian.Uint32(v[8:])
	if ver < lo || ver > hi {
		return fmt.Errorf("record %d: version %d, want %d..%d", id, ver, lo, hi)
	}
	if !bytes.Equal(v[valueHeader:], g.payload(id, ver)) {
		return fmt.Errorf("record %d version %d: payload differs", id, ver)
	}
	return nil
}

// checkKeyed is check for a read that returned its key too (a scan):
// the key must be the record's ycsb key.
func (g *values) checkKeyed(key, v []byte, lo, hi uint32) error {
	if len(v) < valueHeader {
		return fmt.Errorf("key %q: value is %d bytes", key, len(v))
	}
	id := binary.LittleEndian.Uint64(v)
	if want := ycsb.KeyName(id); !bytes.Equal(key, want) {
		return fmt.Errorf("key %q holds the value of %q", key, want)
	}
	return g.check(id, v, lo, hi)
}

// versions is the acknowledged version of each record.  Each record has
// exactly one writing client, so a record's version only grows, and a
// concurrent read may see the acknowledged version or the one its
// writer has in flight.
type versions []atomic.Uint32
