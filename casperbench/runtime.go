package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"
)

// Runtime metrics read around a measured phase.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocs      = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
	mSchedLat    = "/sched/latencies:seconds"
)

type rtMark struct {
	allocs          uint64
	gcCPU, totalCPU float64
	sched           *metrics.Float64Histogram
}

func readRT() rtMark {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mSchedLat}}
	metrics.Read(s)
	return rtMark{
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		sched:    s[3].Value.Float64Histogram(),
	}
}

// rtDelta is the runtime's account of a phase.
type rtDelta struct {
	allocBytes      uint64
	gcCPUFrac       float64
	schedP99Seconds float64
}

func (b rtMark) since(a rtMark) rtDelta {
	d := rtDelta{
		allocBytes: b.allocs - a.allocs,
		gcCPUFrac:  ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
	// p99 of the scheduling latencies observed during the phase, read
	// off the histogram difference at the bucket's upper edge.
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		want := uint64(math.Ceil(0.99 * float64(total)))
		var run uint64
		for i, c := range counts {
			run += c
			if run >= want {
				d.schedP99Seconds = b.sched.Buckets[i+1]
				if math.IsInf(d.schedP99Seconds, 1) {
					d.schedP99Seconds = b.sched.Buckets[i]
				}
				break
			}
		}
	}
	return d
}

// sampler tracks peak heap and goroutine counts while it runs.
type sampler struct {
	stop, done     chan struct{}
	heapPeak       uint64
	goroutinesPeak int
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: mHeapObjects}}
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.heapPeak {
				s.heapPeak = v
			}
			if n := runtime.NumGoroutine(); n > s.goroutinesPeak {
				s.goroutinesPeak = n
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}
