// Command perfbench is the repository's benchmark: one process that
// runs one workload against the code it was built from, checks every
// output it gets back, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics — as the last line of its output.
//
//	go build -o perfbench . && ./perfbench -workload tatp-volatile -seed 1 -seconds 10 -trace 0
//
// run.sh builds this command and cmd/lcserve from source and runs it;
// see README.md for the workloads and what every metric means.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	lcserve  string // lcserve binary (http-kv, and the HTTP rung of traced runs)
	workdir  string // scratch space inside the checkout: WAL directories
	root     string // repository root, for the environment record
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "traffic seed: the same seed gives the same operation sequence")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds (after a warm-up)")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.lcserve, "lcserve", "", "lcserve binary built from the same checkout")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory on the disk under test")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is what a workload hands back.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	env       map[string]any // workload-specific environment facts
}

// workloads maps each name to its runner.
var workloads = map[string]func(config) (result, error){
	"http-kv":            runHTTPKV,
	"tatp-volatile":      func(c config) (result, error) { return runTATP(c, false) },
	"tatp-durable-write": func(c config) (result, error) { return runTATP(c, true) },
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	slices.Sort(ns)
	return ns
}

func run(cfg config) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 2 {
		return fmt.Errorf("-seconds %d: need at least 2", cfg.seconds)
	}
	if err := setProcs(); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	// WALs live in the work directory: the durable workload's, and the
	// WAL rung's in every traced run.
	fsName, err := walFS(cfg.workdir)
	if err != nil && (cfg.workload == "tatp-durable-write" || cfg.trace) {
		return err
	}
	res, err := fn(cfg)
	if err != nil {
		return err
	}
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"commit":     commitID(cfg.root),
		"go":         runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"wal_fs":     fsName,
	}
	for k, v := range res.env {
		env[k] = v
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))

	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	out := map[string]any{}
	for _, m := range names {
		v, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", cfg.workload, m.name)
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the figures a user of the system sees; BENCHMARK.json
// lists the same names.
var endToEnd = []metric{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_op", "us/op"},
	{"allocs_per_op", "allocs/op"},
	{"success_rate", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the traced run's figures, one or more per layer.
var perLayer = []metric{
	{"lcserve.http_overhead_p50_us", "us"},
	{"kv.get_p50_ns", "ns"},
	{"kv.put_p50_ns", "ns"},
	{"kv.scan_p50_us", "us"},
	{"kv.apply_batch_p50_ns", "ns"},
	{"kv.latch_spins_per_op", "spins/op"},
	{"golc.lock_unlock_uncontended_ns", "ns"},
	{"golc.contended_vs_sync_ratio", "ratio"},
	{"golc.wait_p50_ns", "ns"},
	{"golc.wait_p99_ns", "ns"},
	{"golc.parks_per_op", "parks/op"},
	{"golc.timeout_wake_frac", "ratio"},
	{"oltp.txn_p50_us", "us"},
	{"oltp.retries_per_commit", "retries/commit"},
	{"oltp.latch_misses_per_commit", "misses/commit"},
	{"oltp.lock_wait_p99_us", "us"},
	{"wal.append_p50_ns", "ns"},
	{"wal.commit_p50_us", "us"},
	{"wal.commit_p99_us", "us"},
	{"wal.group_size_mean", "commits/fsync"},
	{"wal.fsync_p50_us", "us"},
	{"trace.throughput_ops_s", "ops/s"},
	{"trace.untraced_throughput_ops_s", "ops/s"},
	{"trace.overhead_pct", "%"},
}

// ---- regime guards ----

// setProcs pins GOMAXPROCS to the CPU count, or fails when the
// environment asks for more OS threads than CPUs: contention in this
// benchmark must come from goroutines, not from time-sliced threads.
func setProcs() error {
	n := runtime.NumCPU()
	if s := os.Getenv("GOMAXPROCS"); s != "" {
		p, err := strconv.Atoi(s)
		if err != nil || p > n {
			return fmt.Errorf("regime guard: GOMAXPROCS=%s exceeds nproc=%d", s, n)
		}
	}
	runtime.GOMAXPROCS(n)
	return nil
}

// checkConns fails when a workload would open more client connections
// than there are CPUs.
func checkConns(conns int) error {
	if n := runtime.NumCPU(); conns > n {
		return fmt.Errorf("regime guard: %d client connections exceed nproc=%d", conns, n)
	}
	return nil
}

// Filesystem magics (statfs f_type) this benchmark names.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// walFS names the filesystem holding dir and fails on a memory-backed
// one, where fsync returns at once and the durable workload would
// measure nothing.
func walFS(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	name, ok := fsNames[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("0x%x", st.Type)
	}
	if name == "tmpfs" || name == "ramfs" {
		return name, fmt.Errorf("regime guard: WAL directory %s is on %s, where fsync is a no-op", dir, name)
	}
	return name, nil
}

// ---- environment record ----

// commitID names the code under test: the git commit when the checkout
// is a repository, otherwise a digest of go.mod and every .go file
// outside the build directory.
func commitID(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// ---- process counters ----

// cpuSelf returns this process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOf returns user+system CPU time of process pid from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func cpuOf(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after it
	// start past the last ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// mallocs returns this process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
