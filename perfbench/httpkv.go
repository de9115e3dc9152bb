package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/oltp"
)

const httpConns = 2 // keep-alive client connections, closed loop

// server is a live lcserve process started with its default flags on a
// loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	stderr bytes.Buffer
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts lcserve and waits until it answers.
func startServer(bin string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no lcserve binary (-lcserve)")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = &s.stderr
	// A benchmark killed mid-run must not leave its server behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	ctl := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := ctl.Get(s.base + "/policy")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("lcserve exited before serving: %s", strings.TrimSpace(s.stderr.String()))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("lcserve did not answer within 20s")
		}
	}
}

// stop ends the server and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// control fetches a path on a connection of its own that is closed
// right after; it reads counters and is not part of the load.
func (s *server) control(path string) ([]byte, error) {
	ctl := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := ctl.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr("GET", path, resp.StatusCode, b)
	}
	return b, nil
}

// mallocs returns the server's cumulative heap allocation count, from
// the expvar memstats it publishes.
func (s *server) mallocs() (uint64, error) {
	b, err := s.control("/debug/vars")
	if err != nil {
		return 0, err
	}
	var v struct {
		Memstats struct{ Mallocs uint64 } `json:"memstats"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return 0, err
	}
	return v.Memstats.Mallocs, nil
}

// counters reads the server's public counters: /stats for the runtime
// snapshot, latch and oltp counters, /metrics for the lock-wait
// histogram buckets that /stats only summarizes.
func (s *server) counters() (layerCounters, error) {
	var c layerCounters
	b, err := s.control("/stats")
	if err != nil {
		return c, err
	}
	var st struct {
		Latches lcrt.LockStats       `json:"latches"`
		OLTP    oltp.MetricsSnapshot `json:"oltp"`
		Runtime lcrt.Snapshot        `json:"runtime"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return c, fmt.Errorf("/stats: %w", err)
	}
	c.rt, c.latches, c.oltp = st.Runtime, st.Latches, st.OLTP
	b, err = s.control("/metrics")
	if err != nil {
		return c, err
	}
	c.lockW, err = promHist(b, "oltp_lock_wait_seconds")
	return c, err
}

// promHist rebuilds an obs histogram from its Prometheus rendering:
// cumulative buckets whose le bounds are 2^i-1 ns, in seconds.
func promHist(text []byte, name string) (obs.HistSnapshot, error) {
	var h obs.HistSnapshot
	var prev uint64
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le, cnt, ok := strings.Cut(rest, `"} `)
		if !ok || le == "+Inf" {
			continue
		}
		sec, err1 := strconv.ParseFloat(le, 64)
		cum, err2 := strconv.ParseUint(cnt, 10, 64)
		if err1 != nil || err2 != nil {
			return h, fmt.Errorf("/metrics: malformed line %q", line)
		}
		i := bits.Len64(uint64(math.Round(sec * 1e9)))
		if i >= obs.NumBuckets {
			return h, fmt.Errorf("/metrics: bucket out of range in %q", line)
		}
		h.Buckets[i] += cum - prev
		h.Count += cum - prev
		prev = cum
	}
	return h, sc.Err()
}

// histSub subtracts an earlier snapshot of the same histogram.
func histSub(h *obs.HistSnapshot, earlier obs.HistSnapshot) {
	for i := range h.Buckets {
		h.Buckets[i] -= earlier.Buckets[i]
	}
	h.Count -= earlier.Count
	h.Sum -= earlier.Sum
}

// httpRun is one measured http-kv window against a fresh server.
type httpRun struct {
	setups  []float64
	t       tally
	win     *window
	plain   []int
	traced  []int
	dials   int64
	allocs  uint64 // server heap allocations over the window
	before  layerCounters
	after   layerCounters
	problem []string
}

// setUpHTTP starts lcserve and preloads it over the connections.
func setUpHTTP(bin string, conns []*httpTarget, clients []*kvClient) (*server, error) {
	s, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	for c := range conns {
		conns[c].base = s.base
	}
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = clients[c].preload(conns[c])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// runHTTPWindow sets lcserve up reps times (the last server is
// measured), then drives it for nPhases one-second phases.
// With trace, the server's counters are read at both ends of the
// window. The client does the same work in every phase: the server is
// observed only through those counters, so odd ("traced") phases differ
// from even ones by nothing but the time they ran at.
func runHTTPWindow(cfg config, nPhases, reps int, trace bool) (*httpRun, error) {
	if err := checkConns(httpConns); err != nil {
		return nil, err
	}
	r := &httpRun{}
	var dials atomic.Int64
	var srv *server
	var conns []*httpTarget
	var clients []*kvClient
	for i := 0; i < reps; i++ {
		if srv != nil {
			for _, c := range conns {
				c.close()
			}
			srv.stop()
		}
		conns, clients = nil, nil
		for c := range httpConns {
			conns = append(conns, newHTTPTarget("", &dials))
			clients = append(clients, newKVClient(c, httpConns))
		}
		t0 := time.Now()
		var err error
		srv, err = setUpHTTP(cfg.lcserve, conns, clients)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	defer func() {
		for _, c := range conns {
			c.close()
		}
		srv.stop()
	}()
	dials.Store(0)

	r.win = newWindow(nPhases)
	pid := srv.cmd.Process.Pid
	r.win.cpuOf = func() (time.Duration, error) { return cpuOf(pid) }
	r.plain, r.traced = phaseSets(nPhases, trace)
	recs := make([]*recorder, httpConns)
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	for c := range httpConns {
		recs[c] = newRecorder(nPhases)
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := NewKVGen(cfg.seed, c, httpConns)
			for r.win.enter() {
				op := gen.Next()
				t0 := time.Now()
				err := clients[c].do(conns[c], op)
				lat := time.Since(t0)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
				}
				recs[c].add(r.win.current(), err == nil, int64(lat))
				r.win.leave()
			}
		}()
	}
	var mal0, mal1 uint64
	var ctlErr error
	note := func(err error) {
		if err != nil && ctlErr == nil {
			ctlErr = err
		}
	}
	r.win.run(func(k int) {
		var err error
		switch k {
		case 0:
			mal0, err = srv.mallocs()
			note(err)
			if trace {
				r.before, err = srv.counters()
				note(err)
			}
		case nPhases:
			mal1, err = srv.mallocs()
			note(err)
			if trace {
				r.after, err = srv.counters()
				note(err)
			}
		}
	})
	wg.Wait()
	note(r.win.err)
	if ctlErr != nil {
		return nil, fmt.Errorf("reading server counters: %w", ctlErr)
	}
	r.t = merge(nPhases, recs)
	r.allocs, r.dials = mal1-mal0, dials.Load()
	if firstErr != nil {
		r.problem = append(r.problem, fmt.Sprintf("%d failed requests, first: %v", r.t.failed(), firstErr))
	}
	if r.dials > httpConns {
		fmt.Fprintf(os.Stderr, "perfbench: note: %d connections dialed during the window (keep-alive lost)\n", r.dials)
	}
	return r, nil
}

func runHTTPKV(cfg config) (result, error) {
	r, err := runHTTPWindow(cfg, cfg.seconds, setupReps, cfg.trace)
	if err != nil {
		return result{}, err
	}
	ops := float64(sum(r.t.ok))
	res := result{
		attempted: r.t.attempted(), failed: r.t.failed(), correct: len(r.problem) == 0,
		metrics: map[string]float64{},
		env: map[string]any{"workers": httpConns, "connections": httpConns, "dials_in_window": r.dials,
			"host_factor": r.win.hostFactor()},
	}
	if res.attempted == 0 {
		return res, errors.New("no request completed in the window")
	}
	r.t.logPhases(r.win)
	for _, p := range r.problem {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	m := res.metrics
	r.t.e2e(r.win, r.plain).set(m, r.win.hostFactor())
	m["allocs_per_op"] = float64(r.allocs) / ops
	m["success_rate"] = ops / float64(res.attempted)
	m["setup_s"] = median(r.setups)

	if cfg.trace {
		layerDeltas(m, r.before, r.after, ops)
		traceOverhead(m, r.t, r.win, r.plain, r.traced)
		// The in-process rung gives the same mix's p50 without HTTP.
		if err := probeKVMix(cfg, m); err != nil {
			return res, err
		}
		m["lcserve.http_overhead_p50_us"] = r.t.e2e(r.win, r.plain).p50 - m[kvMixP50]/1e3
		if err := fillLadder(cfg, m); err != nil {
			return res, err
		}
	}
	return res, nil
}
