package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The yardstick is a fixed piece of work owned by the benchmark: 8
// goroutines hashing string keys into mutex-guarded maps, much as the
// store's hot path does, without allocating and using only the
// standard library, so no change to the system can change it. It runs
// for yardstickBurst at every phase boundary, with the workload paused,
// and its rate tracks how fast the shared host is at that moment.
//
// The reference machine's speed drifts by ±20 % within a minute and
// between minutes, so raw wall-clock figures of two runs differ by that
// much whatever the code does. The end-to-end wall-clock metrics are
// therefore reported at a nominal host speed: throughput is divided by
// the run's host factor (median yardstick rate ÷ yardstickNominal), and
// latency and CPU per op are multiplied by it. README.md gives the
// spreads with and without the scaling.

const (
	yardstickBurst   = 100 * time.Millisecond
	yardstickWorkers = 8
	yardstickKeys    = 4096
	yardstickShards  = 16
	// yardstickNominal is the yardstick's median rate, in ops/s, on the
	// reference machine (2 vCPUs of an Intel Xeon @ 2.10GHz, shared).
	yardstickNominal = 5.0e6
)

type yardstickShard struct {
	mu sync.Mutex
	m  map[string]string
	_  [48]byte // keep shards on separate cache lines
}

var (
	yardShards [yardstickShards]yardstickShard
	yardKeys   [yardstickKeys]string
	yardVals   [8]string
)

func init() {
	for i := range yardKeys {
		yardKeys[i] = "y" + strconv.Itoa(i)
	}
	for i := range yardVals {
		yardVals[i] = "value-" + strconv.Itoa(i)
	}
	// Every shard holds every key up front, so the timed loop only
	// overwrites existing entries and never allocates.
	for s := range yardShards {
		yardShards[s].m = make(map[string]string, yardstickKeys)
		for _, k := range yardKeys {
			yardShards[s].m[k] = yardVals[0]
		}
	}
}

// yardstick runs the reference work for d and returns its rate in
// ops/s.
func yardstick(d time.Duration) float64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := range yardstickWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint32(g)*2654435761 + 1
			var n int64
			for time.Since(t0) < d {
				for range 64 {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					sh := &yardShards[x>>28]
					k := yardKeys[x%yardstickKeys]
					sh.mu.Lock()
					if sh.m[k] != "" {
						sh.m[k] = yardVals[x>>8&7]
					}
					sh.mu.Unlock()
				}
				n += 64
			}
			total.Add(n)
		}()
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(t0).Seconds()
}
