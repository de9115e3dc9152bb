package kv

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// setChunkCap shrinks every shard's index chunks so that a small store
// exercises splits and emptied chunks. Call it before the first Put.
func setChunkCap(s *Store, n int) {
	for _, sh := range s.shards {
		sh.keys.max = n
	}
}

// checkIndex verifies every shard's key index against its items map:
// the chunks, in order, hold exactly the map's keys in ascending order;
// no chunk is empty or over capacity, and each was sized to full
// capacity up front; the directory lists each chunk's first key; and
// in every run ord is a permutation of the slots and each key has the
// run's prefix and its own head.
func checkIndex(t *testing.T, s *Store) {
	t.Helper()
	checkRun := func(n, c int, r *sortedKeys) []string {
		t.Helper()
		if len(r.ord) != len(r.keys) || len(r.heads) != len(r.keys) {
			t.Fatalf("shard %d run %d: %d keys, %d ord, %d heads", n, c, len(r.keys), len(r.ord), len(r.heads))
		}
		for i, slot := range slices.Sorted(slices.Values(r.ord)) {
			if slot != int32(i) {
				t.Fatalf("shard %d run %d: ord %v is not a permutation", n, c, r.ord)
			}
		}
		var sorted []string
		for i := range r.ord {
			k := r.key(i)
			if !strings.HasPrefix(k, r.prefix) || r.heads[i] != head(k, len(r.prefix)) {
				t.Fatalf("shard %d run %d: key %q, prefix %q, head %x", n, c, k, r.prefix, r.heads[i])
			}
			sorted = append(sorted, k)
		}
		return sorted
	}
	for n, sh := range s.shards {
		var got, firsts []string
		for c := range sh.keys.chunks {
			ch := &sh.keys.chunks[c]
			if len(ch.keys) == 0 || len(ch.keys) > sh.keys.max || cap(ch.keys) != sh.keys.max || cap(ch.ord) != sh.keys.max || cap(ch.heads) != sh.keys.max {
				t.Fatalf("shard %d chunk %d: len %d cap %d/%d/%d, max %d", n, c, len(ch.keys), cap(ch.keys), cap(ch.ord), cap(ch.heads), sh.keys.max)
			}
			keys := checkRun(n, c, ch)
			got = append(got, keys...)
			firsts = append(firsts, keys[0])
		}
		if dir := checkRun(n, -1, &sh.keys.dir); !slices.Equal(dir, firsts) {
			t.Fatalf("shard %d directory %q, chunk firsts %q", n, dir, firsts)
		}
		want := slices.Sorted(maps.Keys(sh.items))
		if !slices.Equal(got, want) {
			t.Fatalf("shard %d index:\n got %q\nwant %q", n, got, want)
		}
	}
}

// chunkCount is the total number of index chunks across shards.
func chunkCount(s *Store) int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.keys.chunks)
	}
	return n
}

// TestKeyIndexModel drives random interleavings of new-key Put,
// value-only Put, Delete (present and absent) and ApplyBatch through a
// store with tiny chunks, checking the index against its items map
// after every operation, and that the run reached every structural
// case: chunk splits, emptied-chunk removal, and inserting and
// deleting the first and the last key of a shard.
func TestKeyIndexModel(t *testing.T) {
	for _, chunk := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			s := newTestStore(t, Options{Shards: 2, IndexStripes: 2, Mode: Spin})
			setChunkCap(s, chunk)
			rng := rand.New(rand.NewSource(int64(chunk)))
			// Short keys, keys that tie on their zero-padded head
			// ("k007" and "k007\x00"), and long keys whose heads tie
			// until the run prefix reaches past their shared part.
			key := func() string {
				switch n := rng.Intn(120); rng.Intn(4) {
				case 0:
					return fmt.Sprintf("k%03d\x00", n)
				case 1:
					return fmt.Sprintf("k-long-shared-segment/%03d", n)
				default:
					return fmt.Sprintf("k%03d", n)
				}
			}
			// edge reports whether k is (or would be) the first or last
			// key of its shard.
			edge := func(k string) bool {
				ch := s.shardFor(k).keys.chunks
				if len(ch) == 0 {
					return true
				}
				last := &ch[len(ch)-1]
				return k <= ch[0].key(0) || k >= last.key(len(last.ord)-1)
			}
			var splits, drops, edgeInserts, edgeDeletes, valueOnly int
			for step := 0; step < 4000; step++ {
				before := chunkCount(s)
				// Grow for the first half, then shrink, so chunks both
				// fill up and drain empty.
				del := rng.Intn(10) < 3
				if step > 2000 {
					del = rng.Intn(10) < 7
				}
				k := key()
				_, present := s.Get(k)
				switch {
				case rng.Intn(8) == 0:
					batch := []Write{{Key: k, Value: "b", Delete: del}}
					for j := rng.Intn(4); j > 0; j-- {
						batch = append(batch, Write{Key: key(), Value: "b", Delete: rng.Intn(2) == 0})
					}
					s.ApplyBatch(batch)
				case del:
					if present && edge(k) {
						edgeDeletes++
					}
					s.Delete(k)
				default:
					if !present && edge(k) {
						edgeInserts++
					}
					if present {
						valueOnly++
					}
					s.Put(k, "v"+strconv.Itoa(rng.Intn(3)))
				}
				checkIndex(t, s)
				switch after := chunkCount(s); {
				case after > before:
					splits++
				case after < before:
					drops++
				}
			}
			t.Logf("splits=%d drops=%d edgeInserts=%d edgeDeletes=%d valueOnly=%d", splits, drops, edgeInserts, edgeDeletes, valueOnly)
			if splits == 0 || drops == 0 || edgeInserts == 0 || edgeDeletes == 0 || valueOnly == 0 {
				t.Fatal("model run missed a structural case")
			}
		})
	}
}

// naiveScan is the reference Scan: filter, sort, truncate.
func naiveScan(model map[string]string, prefix string, limit int) []KV {
	var out []KV
	for k, v := range model {
		if strings.HasPrefix(k, prefix) {
			out = append(out, KV{Key: k, Value: v})
		}
	}
	slices.SortFunc(out, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TestScanReference compares Scan with naiveScan over random prefixes
// and limits — limit <= 0, limits above the match count, the empty
// prefix, a prefix past every key, and keys equal to their prefix —
// and ScanShard with the same reference restricted to one shard, at
// the production chunk size and at a tiny one.
func TestScanReference(t *testing.T) {
	for _, chunk := range []int{chunkCap, 3} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			s := newTestStore(t, Options{Shards: 5, IndexStripes: 2, Mode: Spin})
			setChunkCap(s, chunk)
			rng := rand.New(rand.NewSource(int64(chunk)))
			model := map[string]string{}
			const alphabet = "abc:"
			randKey := func() string {
				b := make([]byte, rng.Intn(5))
				for i := range b {
					b[i] = alphabet[rng.Intn(len(alphabet))]
				}
				return string(b)
			}
			for i := 0; i < 600; i++ {
				k := randKey()
				if rng.Intn(5) == 0 {
					s.Delete(k)
					delete(model, k)
				} else {
					v := "v" + strconv.Itoa(i)
					s.Put(k, v)
					model[k] = v
				}
			}
			// Prefixes: random ones (many equal to a stored key), the
			// empty prefix, and ones sorting past every key.
			prefixes := []string{"", "~", "c:::z", "\xff"}
			for i := 0; i < 200; i++ {
				prefixes = append(prefixes, randKey())
			}
			exact := 0
			for _, p := range prefixes {
				if _, ok := model[p]; ok && p != "" {
					exact++
				}
				matches := len(naiveScan(model, p, 0))
				for _, limit := range []int{-3, 0, 1, 2, 7, matches, matches + 1, matches + 50} {
					want, got := naiveScan(model, p, limit), s.Scan(p, limit)
					if !slices.Equal(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("Scan(%q, %d):\n got %v\nwant %v", p, limit, got, want)
					}
				}
			}
			if exact == 0 {
				t.Fatal("no prefix equal to a stored key")
			}
			for i := 0; i < s.Shards(); i++ {
				part := map[string]string{}
				for k, v := range model {
					if s.ShardOf(k) == i {
						part[k] = v
					}
				}
				want := naiveScan(part, "", 0)
				if got := s.ScanShard(i); !slices.Equal(got, want) {
					t.Fatalf("ScanShard(%d):\n got %v\nwant %v", i, got, want)
				}
			}
		})
	}
}

// TestScanConcurrent runs scans against concurrent Put, Delete and
// ApplyBatch (run it with -race). Every result must be sorted, free of
// duplicates, prefix-matching and within limit, and every value one
// its key has held: writers only store "<key>#<n>" with n below the
// issued counter.
func TestScanConcurrent(t *testing.T) {
	s := newTestStore(t, Options{Shards: 4, IndexStripes: 2})
	setChunkCap(s, 8)
	var seq atomic.Int64
	value := func(k string) string { return k + "#" + strconv.FormatInt(seq.Add(1), 10) }
	key := func(rng *rand.Rand) string { return fmt.Sprintf("%c%03d", 'a'+rng.Intn(3), rng.Intn(300)) }
	var stop atomic.Bool
	var writers, scanners sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				switch k := key(rng); rng.Intn(3) {
				case 0:
					s.Put(k, value(k))
				case 1:
					s.Delete(k)
				default:
					batch := []Write{{Key: k, Value: value(k)}}
					for j := rng.Intn(6); j > 0; j-- {
						k := key(rng)
						batch = append(batch, Write{Key: k, Value: value(k), Delete: rng.Intn(3) == 0})
					}
					s.ApplyBatch(batch)
				}
			}
		}(int64(w))
	}
	errc := make(chan error, 2)
	for r := 0; r < 2; r++ {
		scanners.Add(1)
		go func(seed int64) {
			defer scanners.Done()
			rng := rand.New(rand.NewSource(seed))
			// Scan for as long as the writers run, and at least 100 times.
			for i := 0; i < 100 || !stop.Load(); i++ {
				prefix := []string{"", "a", "b0", "c1", "a05"}[rng.Intn(5)]
				limit := rng.Intn(40) - 5
				rows := s.Scan(prefix, limit)
				if limit > 0 && len(rows) > limit {
					errc <- fmt.Errorf("Scan(%q, %d) returned %d rows", prefix, limit, len(rows))
					return
				}
				for j, r := range rows {
					if j > 0 && rows[j-1].Key >= r.Key {
						errc <- fmt.Errorf("Scan(%q, %d): %q before %q", prefix, limit, rows[j-1].Key, r.Key)
						return
					}
					k, n, ok := strings.Cut(r.Value, "#")
					held, err := strconv.ParseInt(n, 10, 64)
					if !strings.HasPrefix(r.Key, prefix) || !ok || k != r.Key || err != nil || held > seq.Load() {
						errc <- fmt.Errorf("Scan(%q, %d): row %q=%q", prefix, limit, r.Key, r.Value)
						return
					}
				}
			}
		}(int64(r + 100))
	}
	writers.Wait()
	stop.Store(true)
	scanners.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	checkIndex(t, s)
}

// httpKVStore loads the http-kv benchmark's shape: 4096 "k:" keys (so
// prefix "k:0" matches 1000) among 8192.
func httpKVStore(t testing.TB) *Store {
	s := New(Options{Mode: Spin})
	t.Cleanup(s.Close)
	for i := 0; i < 4096; i++ {
		s.Put(fmt.Sprintf("k:%04d", i), fmt.Sprintf("v%d.c0.0", i))
		s.Put(fmt.Sprintf("a%04d", i), fmt.Sprintf("v%d.c0.0", i))
	}
	return s
}

// TestScanAllocs pins Scan's allocations on the http-kv shape: one run
// buffer and two merge buffers, each sized to the limit. (The
// walk-and-sort Scan it replaced made 14.)
func TestScanAllocs(t *testing.T) {
	s := httpKVStore(t)
	for _, tc := range []struct {
		prefix string
		limit  int
		max    float64
	}{
		{"k:0", 50, 3},
		{"k:3", 50, 3},
		{"", 50, 3},
		{"zz", 50, 0},
	} {
		if n := testing.AllocsPerRun(100, func() { s.Scan(tc.prefix, tc.limit) }); n > tc.max {
			t.Errorf("Scan(%q, %d): %v allocs/op, want <= %v", tc.prefix, tc.limit, n, tc.max)
		}
	}
}

// TestApplyBatchGrouping: grouping a batch by shard allocates nothing
// (the writes below change no state, so nothing else allocates either),
// and writes to one key apply in slice order whether the batch is
// grouped on the stack or on the heap.
func TestApplyBatchGrouping(t *testing.T) {
	s := newTestStore(t, Options{Shards: 8, IndexStripes: 2, Mode: Spin})
	var batch []Write
	for i := 0; i < smallBatch; i++ {
		k := fmt.Sprintf("g%02d", i)
		s.Put(k, "same")
		if i%4 == 3 {
			batch = append(batch, Write{Key: "absent" + k, Delete: true})
		} else {
			batch = append(batch, Write{Key: k, Value: "same"})
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.ApplyBatch(batch) }); n != 0 {
		t.Fatalf("ApplyBatch of %d writes: %v allocs/op, want 0", len(batch), n)
	}
	for _, size := range []int{5, smallBatch + 9} {
		batch = batch[:0]
		for i := 0; i < size; i++ {
			batch = append(batch, Write{Key: fmt.Sprintf("o%d", i%4), Value: strconv.Itoa(i)})
		}
		s.ApplyBatch(batch)
		for k := 0; k < 4; k++ {
			last := size - 1 - (size-1-k)%4
			if v, _ := s.Get(fmt.Sprintf("o%d", k)); v != strconv.Itoa(last) {
				t.Fatalf("batch of %d: o%d = %q, want %d", size, k, v, last)
			}
		}
	}
}
