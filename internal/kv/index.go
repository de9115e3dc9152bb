package kv

import (
	"slices"
	"sort"
	"strings"
)

// chunkCap is the most keys one index chunk holds.
const chunkCap = 256

// keyIndex is one shard's keys in ascending byte-wise order: a list of
// sorted chunks of at most max keys each, plus a directory of each
// chunk's first key. Every chunk is non-empty and every key of a chunk
// sorts below every key of the next one. A full chunk splits in half
// and an emptied chunk is dropped, so an insert or delete shifts at
// most max small integers — plus, on a split or a drop, one directory
// entry per chunk — however large the shard grows. It is guarded by
// its shard's latch.
type keyIndex struct {
	dir    sortedKeys // dir.key(c) == chunks[c].key(0)
	chunks []sortedKeys
	max    int // chunk capacity: chunkCap outside tests
}

// sortedKeys is an ascending run of distinct keys that all share
// prefix.
//
// The keys sit in slots, in no particular order; ord[i] is the slot of
// the i-th smallest. An insert appends to the slots and a delete moves
// the last slot into the freed one, so neither shifts string headers —
// which, while the garbage collector is marking, would cost a write
// barrier per header moved. Only ord and heads, which hold no
// pointers, shift.
//
// heads[i] is the i-th smallest key's head: its 8 bytes after the
// prefix, as a big-endian integer. A search compares heads, which sit
// in one contiguous array, and reads a key's own bytes only to break a
// tie — on a large store most of a search's cost is cache misses, and
// this keeps them to a few per level.
type sortedKeys struct {
	keys   []string
	ord    []int32
	heads  []uint64
	prefix string
}

// head is the 8 bytes of k from offset n on, zero-padded. For keys
// sharing their first n bytes, head order agrees with key order
// wherever heads differ.
func head(k string, n int) uint64 {
	var h uint64
	for i := n; i < n+8; i++ {
		h <<= 8
		if i < len(k) {
			h |= uint64(k[i])
		}
	}
	return h
}

// key returns the i-th smallest key.
func (r *sortedKeys) key(i int) string { return r.keys[r.ord[i]] }

// search returns the first i with key(i) >= k, and whether key(i) == k.
func (r *sortedKeys) search(k string) (int, bool) {
	n := len(r.ord)
	if !strings.HasPrefix(k, r.prefix) {
		// k sorts before or after every key that has the prefix.
		if k < r.prefix {
			return 0, false
		}
		return n, false
	}
	h := head(k, len(r.prefix))
	i := sort.Search(n, func(j int) bool {
		if r.heads[j] != h {
			return r.heads[j] > h
		}
		return r.key(j) >= k
	})
	return i, i < n && r.heads[i] == h && r.key(i) == k
}

// setPrefix makes p the shared prefix and recomputes every head.
func (r *sortedKeys) setPrefix(p string) {
	r.prefix = p
	for i := range r.ord {
		r.heads[i] = head(r.key(i), len(p))
	}
}

// lcp is the length of the longest common prefix of a and b.
func lcp(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// shareWith narrows the prefix, if need be, so that k shares it.
func (r *sortedKeys) shareWith(k string) {
	if len(r.ord) == 0 {
		r.prefix = k
	} else if n := lcp(r.prefix, k); n < len(r.prefix) {
		r.setPrefix(r.prefix[:n])
	}
}

// insert puts k at sorted position i, which must keep the run sorted.
func (r *sortedKeys) insert(i int, k string) {
	r.shareWith(k)
	r.ord = slices.Insert(r.ord, i, int32(len(r.keys)))
	r.keys = append(r.keys, k)
	r.heads = slices.Insert(r.heads, i, head(k, len(r.prefix)))
}

// set replaces the key at sorted position i with k, which must keep
// the run sorted.
func (r *sortedKeys) set(i int, k string) {
	r.shareWith(k)
	r.keys[r.ord[i]], r.heads[i] = k, head(k, len(r.prefix))
}

// remove deletes the key at sorted position i.
func (r *sortedKeys) remove(i int) {
	s, last := r.ord[i], int32(len(r.keys)-1)
	if s != last {
		r.keys[s] = r.keys[last]
		r.ord[slices.Index(r.ord, last)] = s
	}
	r.keys[last] = ""
	r.keys = r.keys[:last]
	r.ord = slices.Delete(r.ord, i, i+1)
	r.heads = slices.Delete(r.heads, i, i+1)
}

// newChunk returns a chunk holding src's keys at sorted positions
// [lo, hi), allocated at full capacity up front so that filling it
// never regrows it, with the widest prefix its first and last key
// share.
func (x *keyIndex) newChunk(src *sortedKeys, lo, hi int) sortedKeys {
	ch := sortedKeys{
		keys:  make([]string, 0, x.max),
		ord:   make([]int32, 0, x.max),
		heads: make([]uint64, hi-lo, x.max),
	}
	for i := lo; i < hi; i++ {
		ch.ord = append(ch.ord, int32(i-lo))
		ch.keys = append(ch.keys, src.key(i))
	}
	first := ch.keys[0]
	ch.setPrefix(first[:lcp(first, ch.keys[hi-lo-1])])
	return ch
}

// locate returns the chunk k belongs in — the last one whose first key
// is <= k, or the first chunk — and k's sorted position in it; (0, 0)
// when the index is empty.
func (x *keyIndex) locate(k string) (c, i int, found bool) {
	if len(x.chunks) == 0 {
		return 0, 0, false
	}
	c, found = x.dir.search(k)
	if found {
		return c, 0, true
	}
	c = max(c-1, 0)
	i, found = x.chunks[c].search(k)
	return c, i, found
}

// insert adds k, which must not be in the index.
func (x *keyIndex) insert(k string) {
	c, i, _ := x.locate(k)
	if len(x.chunks) == 0 || c == len(x.chunks)-1 && i == x.max {
		// The first key, or k sorts after every key and the last chunk
		// is full: start a fresh chunk, so that ascending inserts pack
		// chunks densely.
		x.chunks = append(x.chunks, x.singleton(k))
		x.dir.insert(len(x.chunks)-1, k)
		return
	}
	if n := len(x.chunks[c].ord); n == x.max {
		full, half := &x.chunks[c], n/2
		left, right := x.newChunk(full, 0, half), x.newChunk(full, half, n)
		x.chunks[c] = left
		x.chunks = slices.Insert(x.chunks, c+1, right)
		x.dir.insert(c+1, right.key(0))
		if i > half {
			c, i = c+1, i-half
		}
	}
	x.chunks[c].insert(i, k)
	if i == 0 {
		x.dir.set(c, k)
	}
}

// singleton returns a new chunk holding just k.
func (x *keyIndex) singleton(k string) sortedKeys {
	return x.newChunk(&sortedKeys{keys: []string{k}, ord: []int32{0}}, 0, 1)
}

// delete removes k if it is in the index.
func (x *keyIndex) delete(k string) {
	c, i, found := x.locate(k)
	if !found {
		return
	}
	ch := &x.chunks[c]
	ch.remove(i)
	switch {
	case len(ch.ord) == 0:
		x.chunks = slices.Delete(x.chunks, c, c+1)
		x.dir.remove(c)
	case i == 0:
		x.dir.set(c, ch.key(0))
	}
}
