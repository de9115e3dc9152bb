package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/oltp"
)

// kvTarget is the http-kv request set, served either by a live lcserve
// over HTTP or, for the in-process rung of the ladder, by a kv.Store and
// oltp.DB called directly.
type kvTarget interface {
	get(key string) (string, bool, error)
	put(key, val string) error
	// txn reads acct and writes val to it in one transaction,
	// returning what the read saw.
	txn(acct, val string) (string, bool, error)
	lookup(val string) ([]string, error)
	scan(prefix string) ([]kv.KV, error)
}

// kvClient is one connection's view of the keyspace. It owns the keys
// with index%conns == conn: no one else writes them, so it knows each
// one's current value and checks every read of them exactly. Reads of
// other keys are checked to hold a value of the key read.
type kvClient struct {
	conn, conns int
	seq         uint64
	cur         [kvKeys]string // own /kv keys: current value
	acct        [kvKeys]string // own accounts: current value ("" = absent)
}

func newKVClient(conn, conns int) *kvClient {
	c := &kvClient{conn: conn, conns: conns}
	for i := conn; i < kvKeys; i += conns {
		c.cur[i] = preloadVals[i]
	}
	return c
}

func (c *kvClient) owns(i int) bool { return i%c.conns == c.conn }

// preload writes the connection's share of the initial keys.
func (c *kvClient) preload(t kvTarget) error {
	for i := c.conn; i < kvKeys; i += c.conns {
		if err := t.put(kvKeyNames[i], preloadVals[i]); err != nil {
			return fmt.Errorf("preload %s: %w", kvKeyNames[i], err)
		}
	}
	return nil
}

// do issues op and checks the reply.
func (c *kvClient) do(t kvTarget, op KVOp) error {
	switch op.Kind {
	case KVGet:
		v, ok, err := t.get(kvKeyNames[op.Key])
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("get %s: missing", kvKeyNames[op.Key])
		}
		if c.owns(op.Key) && v != c.cur[op.Key] || !kvValueOK(op.Key, v) {
			return fmt.Errorf("get %s: %q, want %q", kvKeyNames[op.Key], v, c.cur[op.Key])
		}
	case KVPut:
		c.seq++
		v := kvValue(op.Key, c.conn, c.seq)
		if err := t.put(kvKeyNames[op.Key], v); err != nil {
			return err
		}
		c.cur[op.Key] = v
	case KVTxn:
		c.seq++
		v := kvValue(op.Key, c.conn, c.seq)
		prev, found, err := t.txn(acctKeys[op.Key], v)
		if err != nil {
			return err
		}
		if want := c.acct[op.Key]; prev != want || found != (want != "") {
			return fmt.Errorf("txn %s read %q (found %v), want %q", acctKeys[op.Key], prev, found, want)
		}
		c.acct[op.Key] = v
	case KVLookup:
		keys, err := t.lookup(c.cur[op.Key])
		if err != nil {
			return err
		}
		if len(keys) != 1 || keys[0] != kvKeyNames[op.Key] {
			return fmt.Errorf("lookup %s: %v, want [%s]", c.cur[op.Key], keys, kvKeyNames[op.Key])
		}
	case KVScan:
		rows, err := t.scan(scanPrefix[op.Key])
		if err != nil {
			return err
		}
		// Keys are never added or removed, so a scan returns exactly
		// the first kvScanLimit keys under the prefix, in order.
		if len(rows) != kvScanLimit {
			return fmt.Errorf("scan %s: %d rows, want %d", scanPrefix[op.Key], len(rows), kvScanLimit)
		}
		first := op.Key * 1000 // scanPrefix[p] is "k:<p>"
		for j, r := range rows {
			i := first + j
			if r.Key != kvKeyNames[i] || !kvValueOK(i, r.Value) || c.owns(i) && r.Value != c.cur[i] {
				return fmt.Errorf("scan %s row %d: %s=%s", scanPrefix[op.Key], j, r.Key, r.Value)
			}
		}
	}
	return nil
}

// ---- over HTTP ----

// httpTarget is one keep-alive connection to lcserve.
type httpTarget struct {
	base   string
	client *http.Client
	tr     *http.Transport
}

// newHTTPTarget returns a client limited to one connection; dials
// counts every connection it opens.
func newHTTPTarget(base string, dials *atomic.Int64) *httpTarget {
	d := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	return &httpTarget{base: base, tr: tr, client: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (h *httpTarget) close() { h.tr.CloseIdleConnections() }

// call sends one request and returns the status and body.
func (h *httpTarget) call(method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

func statusErr(method, path string, code int, body []byte) error {
	return fmt.Errorf("%s %s: status %d: %.100s", method, path, code, body)
}

func (h *httpTarget) get(key string) (string, bool, error) {
	code, b, err := h.call(http.MethodGet, "/kv/"+key, "")
	switch {
	case err != nil:
		return "", false, err
	case code == http.StatusOK:
		return string(b), true, nil
	case code == http.StatusNotFound:
		return "", false, nil
	}
	return "", false, statusErr("GET", "/kv/"+key, code, b)
}

func (h *httpTarget) put(key, val string) error {
	code, b, err := h.call(http.MethodPut, "/kv/"+key, val)
	if err == nil && code != http.StatusNoContent {
		err = statusErr("PUT", "/kv/"+key, code, b)
	}
	return err
}

func (h *httpTarget) txn(acct, val string) (string, bool, error) {
	body := `{"ops":[{"op":"read","table":"acct","key":"` + acct +
		`"},{"op":"write","table":"acct","key":"` + acct + `","value":"` + val + `"}]}`
	code, b, err := h.call(http.MethodPost, "/txn", body)
	if err != nil {
		return "", false, err
	}
	if code != http.StatusOK {
		return "", false, statusErr("POST", "/txn", code, b)
	}
	var resp struct {
		Committed bool `json:"committed"`
		Results   []struct {
			Value string `json:"value"`
			Found *bool  `json:"found"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return "", false, fmt.Errorf("POST /txn: %w", err)
	}
	if !resp.Committed || len(resp.Results) != 2 || resp.Results[0].Found == nil {
		return "", false, fmt.Errorf("POST /txn: unexpected reply %.200s", b)
	}
	return resp.Results[0].Value, *resp.Results[0].Found, nil
}

func (h *httpTarget) lookup(val string) ([]string, error) {
	path := "/lookup?value=" + url.QueryEscape(val)
	code, b, err := h.call(http.MethodGet, path, "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, statusErr("GET", path, code, b)
	}
	return strings.Fields(string(b)), nil
}

func (h *httpTarget) scan(prefix string) ([]kv.KV, error) {
	path := fmt.Sprintf("/scan?prefix=%s&limit=%d", url.QueryEscape(prefix), kvScanLimit)
	code, b, err := h.call(http.MethodGet, path, "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, statusErr("GET", path, code, b)
	}
	var rows []kv.KV
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("GET %s: malformed line %q", path, line)
		}
		rows = append(rows, kv.KV{Key: k, Value: v})
	}
	return rows, nil
}

// ---- in process ----

// localTarget serves the request set from a store and DB in this
// process, as lcserve's handlers would, and times the layer call of
// the requests it is told to sample.
type localTarget struct {
	store  *kv.Store
	db     *oltp.DB
	sample bool  // time the next call
	last   int64 // duration of the last timed call, ns
}

// timed runs f, recording its duration when sampling.
func (l *localTarget) timed(f func()) {
	if !l.sample {
		f()
		return
	}
	t0 := time.Now()
	f()
	l.last = int64(time.Since(t0))
}

func (l *localTarget) get(key string) (v string, ok bool, err error) {
	l.timed(func() { v, ok = l.store.Get(key) })
	return v, ok, nil
}

func (l *localTarget) put(key, val string) error {
	l.timed(func() { l.store.Put(key, val) })
	return nil
}

func (l *localTarget) txn(acct, val string) (prev string, found bool, err error) {
	l.timed(func() {
		err = l.db.Run(func(t *oltp.Txn) error {
			var rerr error
			prev, found, rerr = t.Read("acct", acct)
			if rerr != nil {
				return rerr
			}
			return t.Write("acct", acct, val)
		})
	})
	if err != nil {
		return "", false, fmt.Errorf("txn %s not committed: %w", acct, err)
	}
	return prev, found, nil
}

func (l *localTarget) lookup(val string) (keys []string, err error) {
	l.timed(func() { keys = l.store.Lookup(val) })
	return keys, nil
}

func (l *localTarget) scan(prefix string) (rows []kv.KV, err error) {
	l.timed(func() { rows = l.store.Scan(prefix, kvScanLimit) })
	return rows, nil
}
