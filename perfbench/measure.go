package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// samples holds one latency per operation, in nanoseconds.  It grows in
// fixed chunks so recording never copies what it already holds.
type samples struct {
	chunks [][]uint32
}

const sampleChunk = 1 << 15

func (s *samples) add(d time.Duration) {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == sampleChunk {
		s.chunks = append(s.chunks, make([]uint32, 0, sampleChunk))
		n++
	}
	ns := uint64(d)
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	s.chunks[n-1] = append(s.chunks[n-1], uint32(ns))
}

// latencies is the sorted union of several clients' samples.
type latencies []uint32

func mergeSamples(ss ...*samples) latencies {
	var all []uint32
	for _, s := range ss {
		for _, c := range s.chunks {
			all = append(all, c...)
		}
	}
	slices.Sort(all)
	return all
}

// quantileUs returns the q-quantile in microseconds (nearest rank), or
// 0 with no samples.
func (l latencies) quantileUs(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(l)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(l[i]) / 1e3
}

// sampler watches a measured phase from its own goroutine: the Go
// heap's object bytes every 5 ms (runtime/metrics reads need no
// stop-the-world), and space amplification every 100 ms from the given
// time on, so the figure does not hang on where background work happens
// to stand at one instant.
type sampler struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	heapPeak uint64
	space    []float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startSampler(spaceAmp func() float64, from time.Time) *sampler {
	h := &sampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for tick := 0; ; tick++ {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.heapPeak {
				h.heapPeak = v
			}
			if tick%20 == 0 && time.Now().After(from) {
				h.space = append(h.space, spaceAmp())
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the heap peak in MiB and the median
// space amplification.
func (h *sampler) end(spaceAmp func() float64) (heapMB, space float64) {
	close(h.stop)
	h.wg.Wait()
	if len(h.space) == 0 {
		h.space = append(h.space, spaceAmp())
	}
	return float64(h.heapPeak) / (1 << 20), median(h.space)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
