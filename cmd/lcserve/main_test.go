package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
)

// rawResponse fetches url and returns the response as it came off the
// wire, minus the Date header.
func rawResponse(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Header.Del("Date")
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v %d\n", resp.Status, resp.TransferEncoding, resp.ContentLength)
	resp.Header.Write(&b)
	b.Write(body)
	return b.String()
}

// TestScanLookupWire: /scan and /lookup write their lines from one
// buffer; the responses must be the ones the line-by-line fmt writes
// produced — status, headers, length and body — for results that are
// empty, short, and long enough to be sent chunked.
func TestScanLookupWire(t *testing.T) {
	rt := lcrt.New(lcrt.Options{})
	store := kv.New(kv.Options{Mode: kv.Spin, Runtime: rt})
	t.Cleanup(store.Close)
	db := oltp.New(store, oltp.Options{Runtime: rt})
	t.Cleanup(db.Close)
	for i := 0; i < 1000; i++ {
		store.Put(fmt.Sprintf("user:%04d", i), "tier-"+strconv.Itoa(i%3))
	}
	store.Put("solo", "only")
	srv := httptest.NewServer(newHandler(store, db, rt, handlerConfig{}))
	t.Cleanup(srv.Close)

	// ref serves the same results through the per-line fmt writes.
	ref := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if r.URL.Path == "/lookup" {
			for _, k := range store.Lookup(q.Get("value")) {
				fmt.Fprintln(w, k)
			}
			return
		}
		limit, _ := strconv.Atoi(q.Get("limit"))
		for _, p := range store.Scan(q.Get("prefix"), limit) {
			fmt.Fprintf(w, "%s=%s\n", p.Key, p.Value)
		}
	}))
	t.Cleanup(ref.Close)

	for _, q := range []string{
		"/scan?prefix=user:&limit=50",
		"/scan?prefix=user:01&limit=5",
		"/scan?prefix=solo&limit=100",
		"/scan?prefix=none&limit=100",
		"/lookup?value=only",
		"/lookup?value=absent",
	} {
		got, want := rawResponse(t, srv.URL+q), rawResponse(t, ref.URL+q)
		if got != want {
			t.Errorf("%s:\n got %q\nwant %q", q, got, want)
		}
	}
	// Past the server's 2 KiB pre-chunking buffer both send chunked;
	// the chunk sizes may differ, the body may not.
	for _, q := range []string{"/scan?prefix=user:&limit=1000", "/lookup?value=tier-1"} {
		got, want := rawResponse(t, srv.URL+q), rawResponse(t, ref.URL+q)
		if got != want || !strings.Contains(got, "[chunked]") {
			t.Errorf("%s: body or framing differs (len %d vs %d)", q, len(got), len(want))
		}
	}
}
