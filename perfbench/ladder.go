package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/golc"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/wal"
)

// The ladder: one rung per layer, each timing calls into that layer's
// public functions on its own, with the workload's traffic stopped. A
// traced run reports a per-layer metric from the workload's own window
// when the workload drives that call, and from the rung otherwise, so
// every traced run reports every per-layer metric.

// kvMixP50 is the in-process p50 of the http-kv mix, in ns: the base
// that lcserve.http_overhead_p50_us subtracts from the HTTP p50. It is
// an internal figure, not a reported metric.
const kvMixP50 = "kvmix.p50_ns"

// rung is one step of the ladder: the metrics it yields and how.
type rung struct {
	yields []string
	run    func(cfg config, m map[string]float64) error
}

var ladder = []rung{
	{[]string{"golc.lock_unlock_uncontended_ns", "golc.contended_vs_sync_ratio"}, probeGolc},
	{[]string{"kv.get_p50_ns", "kv.put_p50_ns", "kv.scan_p50_us", "oltp.txn_p50_us", kvMixP50}, probeKVMix},
	{[]string{"kv.apply_batch_p50_ns"}, probeApplyBatch},
	{[]string{"wal.append_p50_ns", "wal.commit_p50_us", "wal.commit_p99_us", "wal.group_size_mean", "wal.fsync_p50_us"}, probeWAL},
	{[]string{"lcserve.http_overhead_p50_us"}, probeHTTP},
}

// fillLadder runs every rung that yields a metric m does not hold yet.
// Metrics the workload already measured keep the workload's value.
func fillLadder(cfg config, m map[string]float64) error {
	for _, r := range ladder {
		missing := false
		for _, n := range r.yields {
			if _, ok := m[n]; !ok {
				missing = true
			}
		}
		if !missing {
			continue
		}
		got := map[string]float64{kvMixP50: m[kvMixP50]}
		if err := r.run(cfg, got); err != nil {
			return err
		}
		for _, n := range r.yields {
			if _, ok := m[n]; !ok {
				m[n] = got[n]
			}
		}
	}
	return nil
}

// probeGolc times Lock+Unlock of one uncontended golc.Mutex (as a loop
// average: a single pair takes about as long as reading the clock),
// and 8 goroutines hammering one golc.Mutex against the same on a
// sync.Mutex.
func probeGolc(_ config, m map[string]float64) error {
	mu := golc.New("perfbench/uncontended")
	defer mu.Close()
	const n = 1 << 20
	var per []float64
	for range 5 {
		t0 := time.Now()
		for range n {
			mu.Lock()
			mu.Unlock()
		}
		per = append(per, float64(time.Since(t0))/n)
	}
	m["golc.lock_unlock_uncontended_ns"] = median(per)

	hot := golc.New("perfbench/contended")
	defer hot.Close()
	var g, s []float64
	for range 5 {
		ns, err := hammer(hot)
		if err != nil {
			return err
		}
		g = append(g, ns)
		if ns, err = hammer(&sync.Mutex{}); err != nil {
			return err
		}
		s = append(s, ns)
	}
	m["golc.contended_vs_sync_ratio"] = median(g) / median(s)
	return nil
}

// hammer runs 8 goroutines doing Lock, a counter increment and Unlock
// on l, and returns wall-clock ns per operation.
func hammer(l sync.Locker) (float64, error) {
	const goroutines, each = 8, 25000
	var counter int
	var wg sync.WaitGroup
	start := make(chan struct{})
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range each {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	el := time.Since(t0)
	if counter != goroutines*each {
		return 0, fmt.Errorf("golc: %d increments under the lock, want %d", counter, goroutines*each)
	}
	return float64(el) / (goroutines * each), nil
}

// probeKVMix replays the http-kv mix in process: the same generator
// and checks, served by a kv.Store and oltp.DB built as lcserve builds
// them, one goroutine per connection. Every fourth request times its
// layer call: Store.Get, Store.Put, Store.Scan, Store.Lookup or
// DB.Run.
func probeKVMix(cfg config, m map[string]float64) error {
	store := kv.New(kv.Options{})
	defer store.Close()
	db := oltp.New(store, oltp.Options{MaxRetries: oltp.DefaultMaxRetries})
	defer db.Close()
	const dur = time.Second
	clients := make([]*kvClient, httpConns)
	for c := range clients {
		clients[c] = newKVClient(c, httpConns)
		if err := clients[c].preload(&localTarget{store: store, db: db}); err != nil {
			return err
		}
	}
	var byKind [httpConns][numKVKinds][]int64
	errs := make([]error, httpConns)
	var wg sync.WaitGroup
	for c := range httpConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := clients[c]
			t := &localTarget{store: store, db: db}
			gen := NewKVGen(cfg.seed, c, httpConns)
			end := time.Now().Add(dur)
			for i := 0; time.Now().Before(end); i++ {
				op := gen.Next()
				t.sample = i%4 == 0
				if errs[c] = cl.do(t, op); errs[c] != nil {
					return
				}
				if t.sample {
					byKind[c][op.Kind] = append(byKind[c][op.Kind], t.last)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("in-process http-kv mix: %w", err)
		}
	}
	var all []int64
	pooled := func(k KVKind) []int64 {
		var s []int64
		for c := range httpConns {
			s = append(s, byKind[c][k]...)
		}
		sortInt64(s)
		all = append(all, s...)
		return s
	}
	m["kv.get_p50_ns"] = quantile(pooled(KVGet), 0.5)
	m["kv.put_p50_ns"] = quantile(pooled(KVPut), 0.5)
	m["kv.scan_p50_us"] = quantile(pooled(KVScan), 0.5) / 1e3
	m["oltp.txn_p50_us"] = quantile(pooled(KVTxn), 0.5) / 1e3
	pooled(KVLookup)
	sortInt64(all)
	m[kvMixP50] = quantile(all, 0.5)
	return nil
}

// Storage keys of the TATP rows as internal/oltp lays them out
// (table + "/" + key), for the rungs that call kv and wal directly.
func subStoreKey(id int) string      { return subTable + "/" + subKeys[id] }
func cfStoreKey(id, slot int) string { return cfTable + "/" + cfKeys[id][slot] }

// tatpWriteSet is the write-set a TATP write transaction commits.
func tatpWriteSet(op TATPOp) []kv.Write {
	switch op.Kind {
	case UpdateLocation:
		return []kv.Write{{Key: subStoreKey(op.Sub), Value: subRow(op.Sub, op.Version)}}
	case UpdateSubscriberData:
		return []kv.Write{
			{Key: subStoreKey(op.Sub), Value: subRow(op.Sub, op.Version)},
			{Key: cfStoreKey(op.Sub, op.Slot), Value: cfRow(op.Sub, op.Slot, op.Version)},
		}
	case InsertCallForwarding:
		return []kv.Write{{Key: cfStoreKey(op.Sub, op.Slot), Value: cfRow(op.Sub, op.Slot, op.Version)}}
	default: // DeleteCallForwarding
		return []kv.Write{{Key: cfStoreKey(op.Sub, op.Slot), Delete: true}}
	}
}

// probeApplyBatch has 8 goroutines apply TATP write-sets to a store
// holding the subscriber population, timing every fourth ApplyBatch.
func probeApplyBatch(cfg config, m map[string]float64) error {
	store := kv.New(kv.Options{})
	defer store.Close()
	for id := range tatpSubscribers {
		store.ApplyBatch([]kv.Write{{Key: subStoreKey(id), Value: subRow(id, 0)}})
	}
	const dur = 500 * time.Millisecond
	samples := make([][]int64, tatpWorkers)
	var wg sync.WaitGroup
	for w := range tatpWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := NewTATPGen(cfg.seed, w, TATPWriteMix)
			end := time.Now().Add(dur)
			for i := 0; time.Now().Before(end); i++ {
				batch := tatpWriteSet(gen.Next())
				if i%4 != 0 {
					store.ApplyBatch(batch)
					continue
				}
				t0 := time.Now()
				store.ApplyBatch(batch)
				samples[w] = append(samples[w], int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	var all []int64
	for _, s := range samples {
		all = append(all, s...)
	}
	sortInt64(all)
	m["kv.apply_batch_p50_ns"] = quantile(all, 0.5)
	return nil
}

// probeWAL has 8 goroutines commit TATP write-sets to a log of its own
// on the disk under test for one second, alternating a timed Log.Commit
// with a timed Log.Append followed by WaitDurable. Group size and fsync
// time come from the log's counters. Each durable record is applied to
// a store, as oltp applies commits; the rung then recovers the log into
// a fresh store and checks that no acknowledged commit was lost. Each
// goroutine writes keys of its own, so apply order cannot differ from
// log order.
func probeWAL(cfg config, m map[string]float64) error {
	if _, err := walFS(cfg.workdir); err != nil {
		return err
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("wal-probe-%d", os.Getpid()))
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	store := kv.New(kv.Options{})
	defer store.Close()
	l, _, err := wal.Open(wal.Options{Dir: dir}, store)
	if err != nil {
		return err
	}
	const dur = time.Second
	appends := make([][]int64, tatpWorkers)
	commits := make([][]int64, tatpWorkers)
	acked := make([]int64, tatpWorkers)
	errs := make([]error, tatpWorkers)
	s0, h0 := l.Stats(), l.SyncHist()
	var wg sync.WaitGroup
	for w := range tatpWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := NewTATPGen(cfg.seed, w, TATPWriteMix)
			own := fmt.Sprintf("w%d/", w)
			end := time.Now().Add(dur)
			for i := 0; time.Now().Before(end); i++ {
				batch := tatpWriteSet(gen.Next())
				for j := range batch {
					batch[j].Key = own + batch[j].Key
				}
				t0 := time.Now()
				var lsn uint64
				var err error
				if i%2 == 0 {
					lsn, err = l.Commit(batch)
					commits[w] = append(commits[w], int64(time.Since(t0)))
				} else {
					lsn, err = l.Append(batch)
					appends[w] = append(appends[w], int64(time.Since(t0)))
					if err == nil {
						err = l.WaitDurable(lsn)
					}
				}
				if err != nil {
					errs[w] = err
					return
				}
				store.ApplyBatch(batch)
				l.NoteApplied(lsn)
				acked[w]++
			}
		}()
	}
	wg.Wait()
	s1, h1 := l.Stats(), l.SyncHist()
	if err := l.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	if err := checkRecovered(dir, store, sum(acked)); err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	var a, c []int64
	for w := range tatpWorkers {
		a = append(a, appends[w]...)
		c = append(c, commits[w]...)
	}
	sortInt64(a)
	sortInt64(c)
	m["wal.append_p50_ns"] = quantile(a, 0.5)
	m["wal.commit_p50_us"] = quantile(c, 0.5) / 1e3
	m["wal.commit_p99_us"] = quantile(c, 0.99) / 1e3
	m["wal.group_size_mean"] = ratio(float64(s1.Appends-s0.Appends), float64(s1.Syncs-s0.Syncs))
	histSub(&h1, h0)
	m["wal.fsync_p50_us"] = float64(h1.Quantile(0.5)) / 1e3
	return nil
}

// probeHTTP drives a fresh lcserve with the http-kv mix for two
// seconds and subtracts the in-process p50 of the same mix.
func probeHTTP(cfg config, m map[string]float64) error {
	r, err := runHTTPWindow(cfg, 2, 1, false)
	if err != nil {
		return fmt.Errorf("http rung: %w", err)
	}
	if len(r.problem) > 0 {
		return fmt.Errorf("http rung: %s", r.problem[0])
	}
	m["lcserve.http_overhead_p50_us"] = r.t.e2e(r.win, r.plain).p50 - m[kvMixP50]/1e3
	return nil
}
