package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/wal"
)

const (
	tatpWorkers = 8 // goroutines; contention comes from these exceeding GOMAXPROCS
	setupReps   = 5 // set-ups per run; setup_s is their median
)

// errMismatch marks a transaction whose reads returned a row that is
// not a well-formed row of the key read.
var errMismatch = errors.New("row does not match its key")

// tatpSystem is one instance of the system under test: the store, the
// transactional layer over it and, when durable, the log.
type tatpSystem struct {
	store *kv.Store
	db    *oltp.DB
	log   *wal.Log
	dir   string
	acked int64 // commits acknowledged since the log was opened
}

// openTATP builds the system with its defaults (lc latches, wait-die,
// 16 shards; DB.Run retries bounded by oltp.DefaultMaxRetries, as
// lcserve sets them), opens the log in dir when durable, and preloads
// the subscriber population through transactions.
func openTATP(dir string, durable bool) (*tatpSystem, error) {
	s := &tatpSystem{store: kv.New(kv.Options{}), dir: dir}
	if durable {
		l, _, err := wal.Open(wal.Options{Dir: dir}, s.store)
		if err != nil {
			s.store.Close()
			return nil, err
		}
		s.log = l
	}
	s.db = oltp.New(s.store, oltp.Options{MaxRetries: oltp.DefaultMaxRetries, WAL: s.log})
	const perTxn = 128
	for lo := 0; lo < tatpSubscribers; lo += perTxn {
		err := s.db.Run(func(t *oltp.Txn) error {
			for id := lo; id < lo+perTxn; id++ {
				if err := t.Write(subTable, subKeys[id], subRow(id, 0)); err != nil {
					return err
				}
				if id%2 == 0 {
					if err := t.Write(cfTable, cfKeys[id][0], cfRow(id, 0, 0)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		s.acked++
	}
	return s, nil
}

// close releases the instance and removes its log directory.
func (s *tatpSystem) close() {
	if s.log != nil {
		s.log.Close()
	}
	s.db.Close()
	s.store.Close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// execTATP runs one generated transaction and checks what it read.
func execTATP(db *oltp.DB, op TATPOp) error {
	id, slot := op.Sub, op.Slot
	readSub := func(t *oltp.Txn) error {
		v, ok, err := t.Read(subTable, subKeys[id])
		if err != nil {
			return err
		}
		if !ok || !subRowOK(id, v) {
			return errMismatch
		}
		return nil
	}
	switch op.Kind {
	case GetSubscriberData:
		return db.Run(func(t *oltp.Txn) error {
			if err := readSub(t); err != nil {
				return err
			}
			v, ok, err := t.Read(cfTable, cfKeys[id][slot])
			if err != nil {
				return err
			}
			if ok && !cfRowOK(id, slot, v) {
				return errMismatch
			}
			return nil
		})
	case UpdateLocation:
		return db.Run(func(t *oltp.Txn) error {
			if err := readSub(t); err != nil {
				return err
			}
			return t.Write(subTable, subKeys[id], subRow(id, op.Version))
		})
	case UpdateSubscriberData:
		return db.Run(func(t *oltp.Txn) error {
			if err := t.Write(subTable, subKeys[id], subRow(id, op.Version)); err != nil {
				return err
			}
			return t.Write(cfTable, cfKeys[id][slot], cfRow(id, slot, op.Version))
		})
	case InsertCallForwarding:
		return db.Run(func(t *oltp.Txn) error {
			if err := readSub(t); err != nil {
				return err
			}
			return t.Write(cfTable, cfKeys[id][slot], cfRow(id, slot, op.Version))
		})
	default: // DeleteCallForwarding
		return db.Run(func(t *oltp.Txn) error {
			if err := readSub(t); err != nil {
				return err
			}
			return t.Delete(cfTable, cfKeys[id][slot])
		})
	}
}

// checkRows reads every subscriber and call-forwarding row through
// read-only transactions and checks that each subscriber is present
// and every row is a well-formed row of its key.
func checkRows(db *oltp.DB) error {
	const perTxn = 256
	for lo := 0; lo < tatpSubscribers; lo += perTxn {
		err := db.Run(func(t *oltp.Txn) error {
			for id := lo; id < lo+perTxn; id++ {
				v, ok, err := t.Read(subTable, subKeys[id])
				if err != nil {
					return err
				}
				if !ok || !subRowOK(id, v) {
					return fmt.Errorf("subscriber %d: row %q (present %v): %w", id, v, ok, errMismatch)
				}
				for slot := range tatpCFSlots {
					v, ok, err := t.Read(cfTable, cfKeys[id][slot])
					if err != nil {
						return err
					}
					if ok && !cfRowOK(id, slot, v) {
						return fmt.Errorf("call forwarding %d:%d: row %q: %w", id, slot, v, errMismatch)
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRecovery closes the log and checks it against the live store.
func (s *tatpSystem) checkRecovery() error {
	err := s.log.Close()
	s.log = nil
	if err != nil {
		return fmt.Errorf("close log: %w", err)
	}
	return checkRecovered(s.dir, s.store, s.acked)
}

// checkRecovered recovers the closed log in dir into a fresh store and
// checks that it replayed one record per acknowledged commit and that
// the recovered store equals live.
func checkRecovered(dir string, live *kv.Store, acked int64) error {
	fresh := kv.New(kv.Options{})
	defer fresh.Close()
	l, rs, err := wal.Open(wal.Options{Dir: dir}, fresh)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer l.Close()
	if int64(rs.RecordsReplayed) != acked {
		return fmt.Errorf("recovery replayed %d records, %d commits were acknowledged", rs.RecordsReplayed, acked)
	}
	want, got := live.Scan("", 0), fresh.Scan("", 0)
	if !slices.Equal(want, got) {
		return fmt.Errorf("recovered store differs from the live one (%d vs %d keys)", len(got), len(want))
	}
	return nil
}

// layerCounters is every public counter and histogram the traced run
// reads at both ends of the window.
type layerCounters struct {
	rt      lcrt.Snapshot
	latches lcrt.LockStats
	oltp    oltp.MetricsSnapshot
	lockW   obs.HistSnapshot
	wal     wal.Stats
	sync    obs.HistSnapshot
}

func readCounters(s *tatpSystem) layerCounters {
	c := layerCounters{
		rt:      lcrt.Default().Snapshot(),
		latches: s.store.LatchStats(),
		oltp:    s.db.Metrics(),
		lockW:   s.db.LockWaitHist(),
	}
	if s.log != nil {
		c.wal = s.log.Stats()
		c.sync = s.log.SyncHist()
	}
	return c
}

func runTATP(cfg config, durable bool) (result, error) {
	mix := TATPFullMix
	if durable {
		mix = TATPWriteMix
	}
	env := map[string]any{"workers": tatpWorkers}

	// Set-up, several times; the last instance is measured.
	var setups []float64
	var sys *tatpSystem
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.close()
		}
		dir := ""
		if durable {
			dir = filepath.Join(cfg.workdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
			os.RemoveAll(dir)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		sys, err = openTATP(dir, durable)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	phases := cfg.seconds
	win := newWindow(phases)
	win.cpuOf = func() (time.Duration, error) { return cpuSelf(), nil }
	plain, traced := phaseSets(phases, cfg.trace)
	recs := make([]*recorder, tatpWorkers)
	acked := make([]int64, tatpWorkers)
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	for w := range tatpWorkers {
		recs[w] = newRecorder(phases)
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := NewTATPGen(cfg.seed, w, mix)
			r := recs[w]
			for win.enter() {
				op := gen.Next()
				k := win.current() // fixed until leave: boundaries wait for it
				t0 := time.Now()
				var err error
				if tracedPhase(k, cfg.trace) {
					s0 := time.Now()
					err = execTATP(sys.db, op)
					r.addSpan(k, int64(time.Since(s0)))
				} else {
					err = execTATP(sys.db, op)
				}
				lat := time.Since(t0)
				if err == nil {
					acked[w]++
				} else {
					errOnce.Do(func() { firstErr = err })
				}
				r.add(k, err == nil, int64(lat))
				win.leave()
			}
		}()
	}

	var before, after layerCounters
	var mal0, mal1 uint64
	win.run(func(k int) {
		switch k {
		case 0:
			mal0 = mallocs()
			if cfg.trace {
				before = readCounters(sys)
			}
		case phases:
			mal1 = mallocs()
			if cfg.trace {
				after = readCounters(sys)
			}
		}
	})
	wg.Wait()

	t := merge(phases, recs)
	t.logPhases(win)
	ops := float64(sum(t.ok))
	env["host_factor"] = win.hostFactor()
	res := result{attempted: t.attempted(), failed: t.failed(), env: env, metrics: map[string]float64{}}
	if res.attempted == 0 {
		return res, errors.New("no transaction completed in the window")
	}
	m := res.metrics
	t.e2e(win, plain).set(m, win.hostFactor())
	m["allocs_per_op"] = float64(mal1-mal0) / ops
	m["success_rate"] = ops / float64(res.attempted)
	m["setup_s"] = median(setups)

	// Output checks.
	var problems []string
	if firstErr != nil {
		problems = append(problems, fmt.Sprintf("%d failed transactions, first: %v", res.failed, firstErr))
	}
	var total int64
	for _, a := range acked {
		total += a
	}
	sys.acked += total
	if got := int64(sys.db.Metrics().Commits); got != sys.acked {
		problems = append(problems, fmt.Sprintf("DB counts %d commits, %d were acknowledged", got, sys.acked))
	}
	if err := checkRows(sys.db); err != nil {
		problems = append(problems, "rows: "+err.Error())
	}
	if durable {
		if err := sys.checkRecovery(); err != nil {
			problems = append(problems, "recovery: "+err.Error())
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.correct = len(problems) == 0

	if cfg.trace {
		m["oltp.txn_p50_us"] = t.spanQuantile(traced, 0.50) / 1e3
		layerDeltas(m, before, after, ops)
		if durable {
			walDeltas(m, before, after)
		}
		traceOverhead(m, t, win, plain, traced)
		sys.close()
		sys = nil
		if err := fillLadder(cfg, m); err != nil {
			return res, err
		}
	}
	return res, nil
}

// layerDeltas derives the counter-based golc, kv and oltp metrics from
// the counters at both ends of the window; ops is the number of
// verified operations in it.
func layerDeltas(m map[string]float64, b, a layerCounters, ops float64) {
	wait := a.rt.WaitHist
	histSub(&wait, b.rt.WaitHist)
	m["golc.wait_p50_ns"] = float64(wait.Quantile(0.50))
	m["golc.wait_p99_ns"] = float64(wait.Quantile(0.99))
	parks := (a.rt.Claims - b.rt.Claims) + (a.rt.ForcedClaims - b.rt.ForcedClaims)
	m["golc.parks_per_op"] = float64(parks) / ops
	timeouts := a.rt.TimeoutWakes - b.rt.TimeoutWakes
	wakes := timeouts + (a.rt.UnlockWakes - b.rt.UnlockWakes) + (a.rt.ControllerWakes - b.rt.ControllerWakes)
	m["golc.timeout_wake_frac"] = ratio(float64(timeouts), float64(wakes))
	m["kv.latch_spins_per_op"] = float64(a.latches.Spins-b.latches.Spins) / ops
	commits := float64(a.oltp.Commits - b.oltp.Commits)
	m["oltp.retries_per_commit"] = ratio(float64(a.oltp.Retries-b.oltp.Retries), commits)
	m["oltp.latch_misses_per_commit"] = ratio(float64(a.oltp.LatchMisses-b.oltp.LatchMisses), commits)
	lw := a.lockW
	histSub(&lw, b.lockW)
	m["oltp.lock_wait_p99_us"] = float64(lw.Quantile(0.99)) / 1e3
}

// walDeltas derives the counter-based wal metrics of the window.
func walDeltas(m map[string]float64, b, a layerCounters) {
	m["wal.group_size_mean"] = ratio(float64(a.wal.Appends-b.wal.Appends), float64(a.wal.Syncs-b.wal.Syncs))
	s := a.sync
	histSub(&s, b.sync)
	m["wal.fsync_p50_us"] = float64(s.Quantile(0.50)) / 1e3
}

// traceOverhead reports throughput in the traced phases against the
// untraced phases of the same run.
func traceOverhead(m map[string]float64, t tally, win *window, plain, traced []int) {
	u, tr := t.e2e(win, plain).tput, t.e2e(win, traced).tput
	m["trace.untraced_throughput_ops_s"] = u
	m["trace.throughput_ops_s"] = tr
	m["trace.overhead_pct"] = 100 * (u - tr) / u
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
