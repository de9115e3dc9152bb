// Package kv is a real (non-simulated) sharded in-memory key-value
// store running on load-controlled locks: the first subsystem that
// exercises the paper's mechanism as an actual service rather than a
// simulation.
//
// The latch structure mirrors internal/storage: N shards each guarded
// by its own reader/writer latch (bucket-per-latch, Fibonacci-spread
// hashing), plus a striped secondary index mapping values back to the
// keys that hold them. All latches register with one process-wide
// load-control runtime, so contention on any shard is governed by the
// same controller — the paper's decoupling claim, end to end.
//
// Costs: each shard keeps, next to its hash map and under the same
// latch, an ordered index of its keys (index.go: sorted chunks of at
// most 256 keys). Get and value-only Put touch only the map. A
// new-key Put or a Delete also does a binary search in the index and
// shifts at most one chunk's worth of positions, so its work is
// bounded by the chunk size, not by the shard size. Scan is a seek
// plus at most limit keys per shard, so it holds each shard latch for
// a seek plus O(limit), not for O(shard size) — short critical
// sections are what load control assumes.
//
// Lock ordering: a shard latch may be held while acquiring index
// stripe latches; stripe latches are always acquired in ascending
// stripe order; neither is ever held while acquiring a shard latch.
// This makes Put/Delete/ApplyBatch deadlock-free against each other
// and against Scan (shard latches only, one at a time) and Lookup
// (one stripe latch only).
package kv

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
)

// LockMode names a latch contention policy. Since the golc API
// redesign every latch is the one policy-parameterized golc.RWMutex;
// LockMode survives as the benchmark-facing selector that maps onto
// the golc built-ins (Options.Policy overrides it directly).
type LockMode int

const (
	// LoadControlled waits under golc.LoadControlled: the real
	// deployment mode, governed by the shared runtime's controller.
	LoadControlled LockMode = iota
	// Spin waits under golc.Spin, the uncontrolled baseline — the
	// paper's "what collapses under oversubscription" comparison.
	Spin
	// Std waits under golc.Block: spin-then-block, the stand-in for a
	// conventional blocking latch (it replaced the old sync.RWMutex
	// mode when the latch types unified).
	Std
)

func (m LockMode) String() string {
	switch m {
	case LoadControlled:
		return "load-control"
	case Spin:
		return "spin"
	case Std:
		return "std"
	default:
		return fmt.Sprintf("LockMode(%d)", int(m))
	}
}

// policy maps the mode onto a golc built-in.
func (m LockMode) policy() golc.ContentionPolicy {
	switch m {
	case Spin:
		return golc.Spin
	case Std:
		return golc.Block
	default:
		return golc.LoadControlled
	}
}

// Options configures a Store.
type Options struct {
	// Shards is the number of primary shards (default 16).
	Shards int
	// IndexStripes is the number of secondary-index stripes
	// (default 8).
	IndexStripes int
	// Mode selects the latch contention policy by benchmark name
	// (default LoadControlled). Ignored when Policy is set.
	Mode LockMode
	// Policy, when non-nil, is the latch contention policy directly —
	// any registered golc policy, not just the three Mode names.
	Policy golc.ContentionPolicy
	// Runtime is the load-control runtime every latch registers with
	// (default: the process-wide runtime).
	Runtime *lcrt.Runtime
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.IndexStripes <= 0 {
		o.IndexStripes = 8
	}
	if o.Policy == nil {
		o.Policy = o.Mode.policy()
	}
	return o
}

// KV is one key-value pair, as returned by Scan.
type KV struct {
	Key   string
	Value string
}

// shard is one primary bucket: a latch, its rows, and the rows' keys
// in order (for Scan and ScanShard). The latch guards both.
type shard struct {
	mu    *golc.RWMutex
	items map[string]string
	keys  keyIndex
}

// stripe is one secondary-index bucket: value -> set of keys. Stripe
// write latches are taken while a shard latch is held, so their
// acquire path is always RWMutex.LockNested (never parks — a parked
// holder would stall every waiter of the shard for up to the sleep
// timeout).
type stripe struct {
	mu   *golc.RWMutex
	keys map[string]map[string]struct{}
}

// Store is the sharded store. Create with New.
type Store struct {
	opts    Options
	pol     atomic.Pointer[golc.ContentionPolicy]
	shards  []*shard
	stripes []*stripe
}

// New builds a store. With a nil Runtime, latches register with the
// process-wide default runtime.
func New(opts Options) *Store {
	o := opts.withDefaults()
	s := &Store{opts: o}
	s.pol.Store(&o.Policy)
	newLatch := func(name string) *golc.RWMutex {
		return golc.NewRW(name, golc.WithPolicy(o.Policy), golc.WithRuntime(o.Runtime))
	}
	for i := 0; i < o.Shards; i++ {
		s.shards = append(s.shards, &shard{
			mu:    newLatch(fmt.Sprintf("kv/shard-%03d", i)),
			items: make(map[string]string),
			keys:  keyIndex{max: chunkCap},
		})
	}
	for i := 0; i < o.IndexStripes; i++ {
		s.stripes = append(s.stripes, &stripe{
			mu:   newLatch(fmt.Sprintf("kv/stripe-%03d", i)),
			keys: make(map[string]map[string]struct{}),
		})
	}
	return s
}

// Close unregisters the store's latches from the load-control runtime.
// The store stays usable.
func (s *Store) Close() {
	for _, sh := range s.shards {
		sh.mu.Close()
	}
	for _, st := range s.stripes {
		st.mu.Close()
	}
}

// SetPolicy hot-swaps the contention policy of every shard and stripe
// latch (see golc.RWMutex.SetPolicy: new waits use the policy
// immediately, standing waits drain under the old one). This is the
// serving-layer flip an operator uses to move a live store from spin
// to load-controlled latches under overload — lcserve exposes it as
// POST /policy.
func (s *Store) SetPolicy(p golc.ContentionPolicy) {
	s.pol.Store(&p)
	for _, sh := range s.shards {
		sh.mu.SetPolicy(p)
	}
	for _, st := range s.stripes {
		st.mu.SetPolicy(p)
	}
}

// Policy returns the contention policy the store's latches currently
// use (the last SetPolicy value, initially Options.Policy).
func (s *Store) Policy() golc.ContentionPolicy { return *s.pol.Load() }

// LatchStats sums the per-latch load-control counters across every
// shard and index stripe. Every policy keeps the counters (spin-policy
// latches count spins but never park, so their Blocks stay zero). The
// TimeoutWakes-vs-UnlockWakes split is the serving-layer view of the
// wake path: timeout wakes mean a latch sat free until the safety
// timeout; unlock wakes mean the release handed it off immediately.
// The wait and hold histograms merge across latches too, so the
// store-wide p99 wait is one Quantile call away.
func (s *Store) LatchStats() lcrt.LockStats {
	agg := lcrt.LockStats{Name: "kv/all"}
	add := func(m *golc.RWMutex) {
		ls := m.Stats()
		agg.Spins += ls.Spins
		agg.Blocks += ls.Blocks
		agg.ControllerWakes += ls.ControllerWakes
		agg.TimeoutWakes += ls.TimeoutWakes
		agg.UnlockWakes += ls.UnlockWakes
		agg.BlameCount += ls.BlameCount
		agg.BlameNs += ls.BlameNs
		agg.Wait.Merge(ls.Wait)
		agg.Hold.Merge(ls.Hold)
	}
	for _, sh := range s.shards {
		add(sh.mu)
	}
	for _, st := range s.stripes {
		add(st.mu)
	}
	return agg
}

// fnv64a is FNV-1a, the key hash.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ShardIndex reports which of n shards key routes to. Exported for the
// routing tests; Fibonacci hashing spreads clustered hash values, the
// same trick internal/storage uses for its bucket latches.
func ShardIndex(key string, n int) int {
	return int((fnv64a(key) * 0x9e3779b97f4a7c15) % uint64(n))
}

// ShardOf reports which of this store's shards key routes to. Layers
// above the store use it as their partition map — internal/oltp's
// partition-level locks are keyed by it, so a "hot partition" in the
// transaction layer is exactly a hot shard latch down here.
func (s *Store) ShardOf(key string) int {
	return ShardIndex(key, len(s.shards))
}

func (s *Store) shardFor(key string) *shard {
	return s.shards[s.ShardOf(key)]
}

func (s *Store) stripeIdx(value string) int {
	return ShardIndex(value, len(s.stripes))
}

// Get returns the value for key.
func (s *Store) Get(key string) (string, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.items[key]
	sh.mu.RUnlock()
	return v, ok
}

// Put stores value under key and returns the previous value, if any.
// The secondary index is updated under the shard latch, so index and
// store never disagree about a key's current value.
func (s *Store) Put(key, value string) (string, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, existed := s.putLocked(sh, key, value)
	sh.mu.Unlock()
	return old, existed
}

// putLocked is Put's body; the caller holds sh's write latch.
func (s *Store) putLocked(sh *shard, key, value string) (string, bool) {
	old, existed := sh.items[key]
	sh.items[key] = value
	if !existed {
		sh.keys.insert(key)
	}
	if !existed || old != value {
		s.reindex(key, old, existed, value, true)
	}
	return old, existed
}

// Delete removes key, returning the removed value, if any.
func (s *Store) Delete(key string) (string, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, existed := s.deleteLocked(sh, key)
	sh.mu.Unlock()
	return old, existed
}

// deleteLocked is Delete's body; the caller holds sh's write latch.
func (s *Store) deleteLocked(sh *shard, key string) (string, bool) {
	old, existed := sh.items[key]
	if existed {
		delete(sh.items, key)
		sh.keys.delete(key)
		s.reindex(key, old, true, "", false)
	}
	return old, existed
}

// Write is one buffered mutation for ApplyBatch: a put, or a delete
// when Delete is set (Value is then ignored).
type Write struct {
	Key    string
	Value  string
	Delete bool
}

// ApplyBatch applies a set of writes grouped by shard, taking each
// affected shard's write latch exactly once, in ascending shard order.
// This is the commit hook for transaction layers that buffer their
// write-set (e.g. internal/oltp): a transaction touching k records on
// one shard pays one latch acquisition instead of k, and the fixed
// shard order keeps concurrent batch commits deadlock-free against
// each other and against single-key writers. Within one shard, writes
// apply in slice order (later writes to the same key win). Like Scan,
// a batch is not a point-in-time snapshot across shards; atomicity
// across the batch is the caller's job (the oltp layer's logical
// record locks provide it).
//
// Grouping allocates nothing for batches of up to smallBatch writes.
func (s *Store) ApplyBatch(writes []Write) {
	// Each entry packs shard<<32 | write index, so one sort groups the
	// writes by ascending shard and keeps slice order within a shard.
	var small [smallBatch]uint64
	order := small[:0]
	if len(writes) > smallBatch {
		order = make([]uint64, 0, len(writes))
	}
	for i, w := range writes {
		order = append(order, uint64(s.ShardOf(w.Key))<<32|uint64(i))
	}
	slices.Sort(order)
	for lo := 0; lo < len(order); {
		idx := order[lo] >> 32
		sh := s.shards[idx]
		sh.mu.Lock()
		for ; lo < len(order) && order[lo]>>32 == idx; lo++ {
			w := &writes[uint32(order[lo])]
			if w.Delete {
				s.deleteLocked(sh, w.Key)
			} else {
				s.putLocked(sh, w.Key, w.Value)
			}
		}
		sh.mu.Unlock()
	}
}

// smallBatch is the largest ApplyBatch write set grouped on the stack.
const smallBatch = 32

// reindex moves key from the old value's posting set to the new one.
// Called with the key's shard latch held; takes the affected stripe
// latches in ascending order (see the package lock-ordering note).
func (s *Store) reindex(key, old string, hadOld bool, value string, hasNew bool) {
	oi, ni := -1, -1
	if hadOld {
		oi = s.stripeIdx(old)
	}
	if hasNew {
		ni = s.stripeIdx(value)
	}
	// Distinct affected stripes, ascending.
	held := make([]int, 0, 2)
	if oi >= 0 {
		held = append(held, oi)
	}
	if ni >= 0 && ni != oi {
		held = append(held, ni)
	}
	sort.Ints(held)
	for _, i := range held {
		//lint:allow lockpair released by the symmetric unlock loop at the end of this function
		s.stripes[i].mu.LockNested() //lint:allow lockorder stripes are taken in ascending index order, so the self-edge cannot close a cycle
	}
	if hadOld {
		set := s.stripes[oi].keys[old]
		delete(set, key)
		if len(set) == 0 {
			delete(s.stripes[oi].keys, old)
		}
	}
	if hasNew {
		set := s.stripes[ni].keys[value]
		if set == nil {
			set = make(map[string]struct{})
			s.stripes[ni].keys[value] = set
		}
		set[key] = struct{}{}
	}
	for _, i := range held {
		s.stripes[i].mu.Unlock()
	}
}

// Lookup returns the keys currently holding value (secondary index).
//
// Ordering contract: the result is in ascending lexicographic
// (byte-wise) key order, always — deterministic output is part of the
// API, not a best-effort nicety, so callers (and tests) may rely on it.
func (s *Store) Lookup(value string) []string {
	st := s.stripes[s.stripeIdx(value)]
	st.mu.RLock()
	set := st.keys[value]
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	st.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Scan returns up to limit pairs whose key has the given prefix
// (limit <= 0 means no limit). It latches one shard at a time, so a
// scan is not a point-in-time snapshot across shards — the same
// non-guarantee internal/storage's table scans make.
//
// Ordering contract: the result is in ascending lexicographic
// (byte-wise) key order, and with a limit it is the first `limit`
// matches in that order — deterministic, callers may rely on it.
//
// Cost: per shard, a seek to prefix in its key index plus a copy of at
// most limit keys — and, once limit matches are in hand, only keys
// below the limit-th — so each shard latch is held for a seek plus
// O(limit), not for the shard's size. Each shard's sorted run is
// merged into a result capped at limit; nothing is sorted.
func (s *Store) Scan(prefix string, limit int) []KV {
	if limit <= 0 {
		limit = math.MaxInt
	}
	var out, run, tmp []KV
	for _, sh := range s.shards {
		// With limit pairs in hand, only keys below the last one can
		// still make the result.
		bound, bounded := "", len(out) == limit
		if bounded {
			bound = out[limit-1].Key
		}
		sh.mu.RLock()
		run = sh.appendRun(run[:0], prefix, limit, bound, bounded)
		sh.mu.RUnlock()
		switch {
		case len(run) == 0:
		case len(out) == 0:
			out, run = run, out
		default:
			tmp = mergeKV(growKV(tmp[:0], len(out)+len(run), limit), out, run, limit)
			out, tmp = tmp, out
		}
	}
	return out
}

// appendRun appends to run, in key order, the shard's pairs whose key
// has prefix and, when bounded, sorts below bound — until run holds
// limit pairs. The caller holds sh's latch.
func (sh *shard) appendRun(run []KV, prefix string, limit int, bound string, bounded bool) []KV {
	c, i, _ := sh.keys.locate(prefix)
	for ; c < len(sh.keys.chunks); c, i = c+1, 0 {
		ch := &sh.keys.chunks[c]
		for _, slot := range ch.ord[i:] {
			k := ch.keys[slot]
			if len(run) == limit || !strings.HasPrefix(k, prefix) || bounded && k >= bound {
				return run
			}
			if len(run) == cap(run) {
				run = growKV(run, len(sh.items), limit)
			}
			run = append(run, KV{Key: k, Value: sh.items[k]})
		}
	}
	return run
}

// growKV returns buf with room for min(n, limit) pairs in all. It
// grows geometrically, so an unlimited scan reallocates O(log n) times.
func growKV(buf []KV, n, limit int) []KV {
	if n = min(n, limit); cap(buf) < n {
		return append(make([]KV, 0, min(max(n, 2*cap(buf)), limit)), buf...)
	}
	return buf
}

// mergeKV appends to dst the first limit pairs of the merge of the
// sorted, key-disjoint runs a and b.
func mergeKV(dst, a, b []KV, limit int) []KV {
	for n := min(len(a)+len(b), limit); n > 0; n-- {
		if len(b) == 0 || len(a) > 0 && a[0].Key < b[0].Key {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return dst
}

// ScanShard returns every pair currently stored in shard idx, in
// ascending lexicographic (byte-wise) key order, under one read latch
// — a consistent point-in-time view of that single shard. This is the
// partition-read hook for internal/oltp: a partition-level shared lock
// plus ScanShard reads a whole partition without touching record
// locks. Panics if idx is out of range (partition ids come from
// ShardOf, which never produces one).
func (s *Store) ScanShard(idx int) []KV {
	sh := s.shards[idx]
	sh.mu.RLock()
	out := make([]KV, 0, len(sh.items))
	for _, ch := range sh.keys.chunks {
		for _, slot := range ch.ord {
			k := ch.keys[slot]
			out = append(out, KV{Key: k, Value: sh.items[k]})
		}
	}
	sh.mu.RUnlock()
	return out
}

// Len returns the total number of keys.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.items)
		sh.mu.RUnlock()
	}
	return n
}

// Shards returns the shard count (for routing tests and stats).
func (s *Store) Shards() int { return len(s.shards) }

// Mode returns the store's construction-time lock mode.
//
// Deprecated: Mode is only meaningful when the store was built through
// Options.Mode; use Policy, which tracks hot-swaps too.
func (s *Store) Mode() LockMode { return s.opts.Mode }
