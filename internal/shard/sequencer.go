package shard

import (
	"sync"
	"sync/atomic"

	"iamdb/internal/kv"
)

// Sequencer allocates sequence ranges and tracks the visible
// watermark: the end of the longest prefix of allocations whose commits
// have fully completed.  It is the only source of sequence numbers in
// a DB, whatever its shard count: commit leaders take one ticket per
// group, and a batch spanning shards takes one range it carves into
// per-shard sub-ranges.  Readers take the watermark as their snapshot,
// so a batch spanning shards becomes visible atomically — every record
// of a ticket at or below the watermark has been applied to its shard's
// memtable, and no record of any incomplete ticket is at or below it
// (ranges are contiguous and allocated in order).
//
// A ticket MUST be ended even when its commit failed: a leaked ticket
// stalls the watermark forever.  A failed commit's sequence range then
// reads as burned — the same gap semantics a failed WAL append has.
type Sequencer struct {
	// visibleA is the watermark, readable without the mutex.
	visibleA atomic.Uint64

	// mu orders allocation and completion.  It is a leaf: nothing else
	// is ever acquired while it is held.
	//
	//iamlint:lockorder Sequencer.mu leaf
	mu   sync.Mutex
	cond *sync.Cond
	last kv.Seq // last allocated sequence number
	// pending lists outstanding allocations, FIFO.  Entries are values
	// and completed ones are compacted to the front of the same backing
	// array, so a steady Begin/End cycle allocates nothing.
	pending []pendingTicket
}

// Ticket is one contiguous sequence-range allocation [Base, End].
type Ticket struct {
	Base, End kv.Seq
}

// pendingTicket is an outstanding allocation, identified by its End.
type pendingTicket struct {
	end  kv.Seq
	done bool
}

// NewSequencer starts allocation after start (the recovered maximum
// sequence across all shards); the watermark begins there too.
func NewSequencer(start kv.Seq) *Sequencer {
	s := &Sequencer{last: start}
	s.cond = sync.NewCond(&s.mu)
	s.visibleA.Store(uint64(start))
	return s
}

// Begin allocates the next n sequence numbers as one ticket.  n must be
// positive: an empty ticket would share its End with the previous one.
func (s *Sequencer) Begin(n int) Ticket {
	if n < 1 {
		panic("shard: Sequencer.Begin of an empty range")
	}
	s.mu.Lock()
	t := Ticket{Base: s.last + 1, End: s.last + kv.Seq(n)}
	s.last = t.End
	s.pending = append(s.pending, pendingTicket{end: t.End})
	s.mu.Unlock()
	return t
}

// End marks the ticket's commits complete (applied or abandoned) and
// advances the watermark past every completed prefix ticket.
func (s *Sequencer) End(t Ticket) {
	s.mu.Lock()
	for i := range s.pending {
		if s.pending[i].end == t.End {
			s.pending[i].done = true
			break
		}
	}
	k := 0
	for k < len(s.pending) && s.pending[k].done {
		k++
	}
	if k > 0 {
		s.visibleA.Store(uint64(s.pending[k-1].end))
		s.pending = s.pending[:copy(s.pending, s.pending[k:])]
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Visible returns the watermark: the largest sequence at which every
// allocation at or below it has completed.
func (s *Sequencer) Visible() kv.Seq {
	return kv.Seq(s.visibleA.Load())
}

// WaitVisible blocks until the watermark reaches seq — a writer's
// read-your-writes barrier after a commit.
func (s *Sequencer) WaitVisible(seq kv.Seq) {
	if kv.Seq(s.visibleA.Load()) >= seq {
		return
	}
	s.mu.Lock()
	for kv.Seq(s.visibleA.Load()) < seq {
		s.cond.Wait()
	}
	s.mu.Unlock()
}
