package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/golc/obs"
)

func TestTATPGenDeterministic(t *testing.T) {
	a, b := NewTATPGen(7, 3, TATPFullMix), NewTATPGen(7, 3, TATPFullMix)
	other := NewTATPGen(8, 3, TATPFullMix)
	differs := false
	for i := 0; i < 10000; i++ {
		x, y, z := a.Next(), b.Next(), other.Next()
		if x != y {
			t.Fatalf("op %d: same seed gave %+v and %+v", i, x, y)
		}
		if x != z {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same sequence")
	}
}

func TestKVGenDeterministic(t *testing.T) {
	a, b := NewKVGen(7, 1, httpConns), NewKVGen(7, 1, httpConns)
	other := NewKVGen(7, 0, httpConns)
	differs := false
	for i := 0; i < 10000; i++ {
		x, y, z := a.Next(), b.Next(), other.Next()
		if x != y {
			t.Fatalf("op %d: same seed gave %+v and %+v", i, x, y)
		}
		if x != z {
			differs = true
		}
	}
	if !differs {
		t.Fatal("connections 0 and 1 gave the same sequence")
	}
}

// near fails unless got is within tol of want.
func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: share %.4f, want %.4f ± %.4f", what, got, want, tol)
	}
}

func TestTATPMixShares(t *testing.T) {
	const n = 200000
	for _, tc := range []struct {
		name string
		mix  [numTATPKinds]int
	}{{"full", TATPFullMix}, {"write", TATPWriteMix}} {
		g := NewTATPGen(1, 0, tc.mix)
		var kinds [numTATPKinds]int
		hot := 0
		total := 0
		for _, p := range tc.mix {
			total += p
		}
		for range n {
			op := g.Next()
			kinds[op.Kind]++
			if op.Sub < tatpHotSet {
				hot++
			}
			if op.Sub < 0 || op.Sub >= tatpSubscribers || op.Slot < 0 || op.Slot >= tatpCFSlots {
				t.Fatalf("%s: op out of range: %+v", tc.name, op)
			}
		}
		for k, c := range kinds {
			near(t, tc.name+" "+TATPKind(k).String(), float64(c)/n, float64(tc.mix[k])/float64(total), 0.005)
		}
		// The hot set draws 60% of transactions plus its uniform share
		// of the rest.
		near(t, tc.name+" hot set", float64(hot)/n, tatpHotFrac+(1-tatpHotFrac)*tatpHotSet/tatpSubscribers, 0.005)
	}
}

func TestKVMixShares(t *testing.T) {
	const n = 200000
	for c := range httpConns {
		g := NewKVGen(1, c, httpConns)
		var kinds [numKVKinds]int
		for range n {
			op := g.Next()
			kinds[op.Kind]++
			switch op.Kind {
			case KVPut, KVTxn, KVLookup:
				if op.Key%httpConns != c || op.Key < 0 || op.Key >= kvKeys {
					t.Fatalf("conn %d: %v on key %d outside its partition", c, op.Kind, op.Key)
				}
			case KVScan:
				if op.Key < 0 || op.Key >= kvPrefixes {
					t.Fatalf("conn %d: scan prefix %d", c, op.Key)
				}
			case KVGet:
				if op.Key < 0 || op.Key >= kvKeys {
					t.Fatalf("conn %d: get key %d", c, op.Key)
				}
			}
		}
		for k, cnt := range kinds {
			near(t, KVKind(k).String(), float64(cnt)/n, float64(KVMix[k])/100, 0.005)
		}
	}
}

func TestRowChecks(t *testing.T) {
	if !subRowOK(42, subRow(42, 7)) || subRowOK(42, subRow(4, 7)) || subRowOK(4, subRow(42, 7)) {
		t.Error("subRowOK does not tell subscriber rows apart")
	}
	if !cfRowOK(42, 3, cfRow(42, 3, 9)) || cfRowOK(42, 2, cfRow(42, 3, 9)) || cfRowOK(4, 3, cfRow(42, 3, 9)) {
		t.Error("cfRowOK does not tell call-forwarding rows apart")
	}
	if !kvValueOK(12, kvValue(12, 1, 5)) || kvValueOK(1, kvValue(12, 1, 5)) || kvValueOK(12, kvValue(1, 1, 5)) {
		t.Error("kvValueOK does not tell keys apart")
	}
}

// promHist must rebuild the histogram lcserve renders into /metrics.
func TestPromHistRoundTrip(t *testing.T) {
	h := obs.NewHistogram(1)
	for _, ns := range []int64{0, 1, 3, 900, 1000, 70000, 70001, 5e9} {
		h.Observe(ns)
	}
	want := h.Snapshot()
	var buf bytes.Buffer
	pw := obs.NewPromWriter(&buf)
	pw.Histogram("x_seconds", "test", nil, want)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := promHist(buf.Bytes(), "x_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if got.Buckets != want.Buckets || got.Count != want.Count {
		t.Fatalf("round trip: got %v (%d), want %v (%d)", got.Buckets, got.Count, want.Buckets, want.Count)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if q := quantile(s, 0.5); q != 50 {
		t.Errorf("p50 = %v, want 50", q)
	}
	if q := quantile(s, 0.99); q != 100 {
		t.Errorf("p99 = %v, want 100", q)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// this program prints, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, m := range want {
			units[m.name] = m.unit
		}
		for _, m := range got {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, program has unit %q (listed %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
