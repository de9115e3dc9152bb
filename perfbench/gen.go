package main

import (
	"math/rand/v2"
	"strconv"
)

// The traffic generators are owned by the benchmark: they derive every
// operation from the seed and the worker index alone, and they reach
// the system only through oltp.DB.Run/Txn and HTTP. Nothing here calls
// the TATP driver in internal/oltp or lcserve's loadgen, so editing
// those cannot change the traffic this benchmark sends.

// newRNG returns worker w's generator for seed. Distinct (seed, w)
// pairs give independent streams; the same pair always gives the same
// stream (PCG's output is fixed by the Go 1 compatibility promise).
func newRNG(seed uint64, w int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(w)))
}

// ---- TATP ----

// TATPKind is one of the five TATP transaction types the mix draws.
type TATPKind int

const (
	GetSubscriberData    TATPKind = iota // read subscriber + one call-forwarding slot
	UpdateLocation                       // read-modify-write subscriber
	UpdateSubscriberData                 // write subscriber + write call-forwarding slot
	InsertCallForwarding                 // read subscriber, write call-forwarding slot
	DeleteCallForwarding                 // read subscriber, delete call-forwarding slot
	numTATPKinds
)

var tatpKindNames = [numTATPKinds]string{"get_subscriber", "update_location", "update_subscriber", "insert_cf", "delete_cf"}

func (k TATPKind) String() string { return tatpKindNames[k] }

// TATP mixes, in percent per kind.
var (
	// TATPFullMix is the read-heavy 80/10/4/3/3 mix.
	TATPFullMix = [numTATPKinds]int{80, 10, 4, 3, 3}
	// TATPWriteMix keeps only the write transactions of the full mix,
	// in the same proportions: every commit carries a write-set.
	TATPWriteMix = [numTATPKinds]int{0, 10, 4, 3, 3}
)

// TATP population and skew.
const (
	tatpSubscribers = 4096
	tatpCFSlots     = 4
	tatpHotFrac     = 0.6 // share of transactions aimed at the hot set
	tatpHotSet      = tatpSubscribers / 64
)

// TATPOp is one generated transaction.
type TATPOp struct {
	Kind    TATPKind
	Sub     int
	Slot    int
	Version uint64 // unique per (worker, op): the value a write installs
}

// TATPGen generates one worker's transaction stream.
type TATPGen struct {
	rng    *rand.Rand
	cum    [numTATPKinds]int
	total  int
	worker uint64
	seq    uint64
}

// NewTATPGen returns worker w's generator over the given mix.
func NewTATPGen(seed uint64, w int, mix [numTATPKinds]int) *TATPGen {
	g := &TATPGen{rng: newRNG(seed, w), worker: uint64(w)}
	for i, p := range mix {
		g.total += p
		g.cum[i] = g.total
	}
	return g
}

// Next draws the next transaction.
func (g *TATPGen) Next() TATPOp {
	x := g.rng.IntN(g.total)
	kind := GetSubscriberData
	for x >= g.cum[kind] {
		kind++
	}
	sub := g.rng.IntN(tatpSubscribers)
	if g.rng.Float64() < tatpHotFrac {
		sub = g.rng.IntN(tatpHotSet)
	}
	g.seq++
	return TATPOp{Kind: kind, Sub: sub, Slot: g.rng.IntN(tatpCFSlots), Version: g.worker<<40 | g.seq}
}

// TATP row encoding. Keys are precomputed so the hot loop does not
// format them.
const (
	subTable = "sub"
	cfTable  = "cf"
)

var (
	subKeys [tatpSubscribers]string
	cfKeys  [tatpSubscribers][tatpCFSlots]string
)

func init() {
	for id := range subKeys {
		subKeys[id] = strconv.Itoa(id)
		for s := range tatpCFSlots {
			cfKeys[id][s] = strconv.Itoa(id) + ":" + strconv.Itoa(s)
		}
	}
}

// subRow is the subscriber profile value: "s<id>.v<version>". The id
// inside the value lets a reader check the row belongs to its key.
func subRow(id int, version uint64) string {
	b := make([]byte, 0, 32)
	b = append(b, 's')
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ".v"...)
	b = strconv.AppendUint(b, version, 10)
	return string(b)
}

// subRowOK reports whether v is a well-formed profile of subscriber id.
func subRowOK(id int, v string) bool {
	p := "s" + subKeys[id] + ".v"
	if len(v) <= len(p) || v[:len(p)] != p {
		return false
	}
	_, err := strconv.ParseUint(v[len(p):], 10, 64)
	return err == nil
}

// cfRow is a call-forwarding value: "f<id>.<slot>.v<version>".
func cfRow(id, slot int, version uint64) string {
	b := make([]byte, 0, 32)
	b = append(b, 'f')
	b = append(b, cfKeys[id][slot]...)
	b = append(b, ".v"...)
	b = strconv.AppendUint(b, version, 10)
	return string(b)
}

// cfRowOK reports whether v is a well-formed call-forwarding value of
// (id, slot).
func cfRowOK(id, slot int, v string) bool {
	p := "f" + cfKeys[id][slot] + ".v"
	if len(v) <= len(p) || v[:len(p)] != p {
		return false
	}
	_, err := strconv.ParseUint(v[len(p):], 10, 64)
	return err == nil
}

// ---- http-kv ----

// KVKind is one request type of the http-kv mix.
type KVKind int

const (
	KVGet    KVKind = iota // GET /kv/<any key>
	KVPut                  // PUT /kv/<own key>
	KVTxn                  // POST /txn: read then write one own account
	KVLookup               // GET /lookup?value=<current value of an own key>
	KVScan                 // GET /scan?prefix=<p>&limit=50
	numKVKinds
)

var kvKindNames = [numKVKinds]string{"get", "put", "txn", "lookup", "scan"}

func (k KVKind) String() string { return kvKindNames[k] }

// KVMix is the http-kv request mix in percent per kind.
var KVMix = [numKVKinds]int{60, 20, 10, 5, 5}

const (
	kvKeys      = 4096 // preloaded /kv keys; also the /txn account count
	kvScanLimit = 50
	kvPrefixes  = 4 // scan prefixes "k:0" .. "k:3", ~1000 keys each
)

// KVOp is one generated request. Key indexes the /kv keyspace for Get,
// Put and Lookup, and the account space for Txn; for Scan it is the
// prefix digit.
type KVOp struct {
	Kind KVKind
	Key  int
}

// KVGen generates connection c's request stream. Writes (Put, Txn)
// and Lookups stay inside the connection's own partition — the keys
// with index%conns == c — so the connection always knows the current
// value of every key it checks exactly.
type KVGen struct {
	rng   *rand.Rand
	cum   [numKVKinds]int
	conn  int
	conns int
}

// NewKVGen returns connection c's generator (of conns).
func NewKVGen(seed uint64, c, conns int) *KVGen {
	g := &KVGen{rng: newRNG(seed, c), conn: c, conns: conns}
	t := 0
	for i, p := range KVMix {
		t += p
		g.cum[i] = t
	}
	return g
}

// Next draws the next request.
func (g *KVGen) Next() KVOp {
	x := g.rng.IntN(100)
	kind := KVGet
	for x >= g.cum[kind] {
		kind++
	}
	switch kind {
	case KVGet:
		return KVOp{Kind: kind, Key: g.rng.IntN(kvKeys)}
	case KVScan:
		return KVOp{Kind: kind, Key: g.rng.IntN(kvPrefixes)}
	default:
		return KVOp{Kind: kind, Key: g.rng.IntN(kvKeys/g.conns)*g.conns + g.conn}
	}
}

var (
	kvKeyNames  [kvKeys]string // "k:0000" .. "k:4095"
	acctKeys    [kvKeys]string // "a0000" .. "a4095"
	scanPrefix  [kvPrefixes]string
	preloadVals [kvKeys]string
)

func init() {
	for i := range kvKeyNames {
		d := strconv.Itoa(i)
		for len(d) < 4 {
			d = "0" + d
		}
		kvKeyNames[i] = "k:" + d
		acctKeys[i] = "a" + d
		preloadVals[i] = kvValue(i, 0, 0)
	}
	for p := range scanPrefix {
		scanPrefix[p] = "k:" + strconv.Itoa(p)
	}
}

// kvValue is the value connection c installs on key i at its seq-th
// write: "v<i>.c<c>.<seq>". It is unique per write, so the secondary
// index maps it to exactly one key, and it names its key, so any read
// can check it did not come from another key.
func kvValue(i, c int, seq uint64) string {
	b := make([]byte, 0, 24)
	b = append(b, 'v')
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, ".c"...)
	b = strconv.AppendInt(b, int64(c), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, seq, 10)
	return string(b)
}

// kvValueOK reports whether v is a well-formed value of key i.
func kvValueOK(i int, v string) bool {
	p := "v" + strconv.Itoa(i) + ".c"
	return len(v) > len(p) && v[:len(p)] == p
}
