// Command repobench is the repository's benchmark. It times the real
// binaries (clint, superc, superd) from outside with tracing off, and, with
// -trace 1, runs an in-process sweep that calls each layer's public
// functions in the order clint does and records a span around every call.
//
// Workloads (inputs are generated from -seed; the programs see only files):
//
//	corpus  clint -link -format json over a 200-unit synthetic corpus
//	giant   superc on GiantUnit at 450/900/1800/3600 items
//	daemon  nproc closed-loop clients driving superd's /v1/lint and /v1/link
//
// It builds nothing itself: run.py builds the binaries and this runner,
// then runs it from the root of a checkout:
//
//	python3 repobench/run.py --workload corpus --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything else — the machine
// stamp, every metric with its unit and sample count, and the correctness
// gate's verdicts — goes to standard error. BENCHMARK.json records why each
// workload exists and which end-to-end metric each layer metric should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cgrammar"
)

// metric is one reported figure. n is its sample count, printed to stderr.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding clint, superc and superd
	dir      string // fresh per-run directory under the checkout

	attempted, failed int
	failures          []string
	metrics           map[string]metric
}

// fail counts one failed operation (process, request, unit or gate check).
func (r *run) fail(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

func (r *run) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-probe-cgrammar" {
		probeCgrammar(os.Args[2])
		return
	}
	workload := flag.String("workload", "", "corpus, giant or daemon")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: run the traced in-process sweep and report per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding clint, superc and superd")
	flag.Parse()

	switch *workload {
	case "corpus", "giant", "daemon":
	default:
		fmt.Fprintf(os.Stderr, "repobench: unknown -workload %q (corpus, giant, daemon)\n", *workload)
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, bin: *bin, metrics: map[string]metric{},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := r.main(ctx)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repobench: %v\n", err)
		os.Exit(1)
	}
	r.report()
	if r.failed > 0 {
		os.Exit(1)
	}
}

func (r *run) main(ctx context.Context) error {
	for _, b := range []string{"clint", "superc", "superd"} {
		if _, err := os.Stat(filepath.Join(r.bin, b)); err != nil {
			return fmt.Errorf("binary missing: %w", err)
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+r.workload+"-")
	if err != nil {
		return fmt.Errorf("per-run directory: %w", err)
	}
	r.dir = dir
	defer os.RemoveAll(dir)
	for _, sub := range []string{"tmp", "xdg"} {
		if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "# %s\n", stamp(r))
	cgrammar.SetTableCacheDir(filepath.Join(dir, "tables-inproc"))

	in, err := generate(r)
	if err != nil {
		return err
	}
	if r.trace {
		return r.traced(ctx, in)
	}
	switch r.workload {
	case "corpus":
		err = r.corpus(ctx, in)
	case "giant":
		err = r.giant(ctx, in)
	case "daemon":
		err = r.daemonWorkload(ctx, in)
	}
	if err != nil {
		return err
	}
	r.gccGate(ctx, in)
	return nil
}

// childEnv is the environment every spawned binary runs in: the parse-table
// cache in tables, temp files and the user cache inside the run directory.
func (r *run) childEnv(tables string) []string {
	abs := func(p string) string {
		a, err := filepath.Abs(p)
		if err != nil {
			return p
		}
		return a
	}
	env := []string{}
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case "SUPERC_TABLE_CACHE_DIR", "TMPDIR", "XDG_CACHE_HOME":
			continue
		}
		env = append(env, kv)
	}
	return append(env,
		"SUPERC_TABLE_CACHE_DIR="+abs(tables),
		"TMPDIR="+abs(filepath.Join(r.dir, "tmp")),
		"XDG_CACHE_HOME="+abs(filepath.Join(r.dir, "xdg")))
}

// report prints every metric with its unit and sample count to stderr,
// then the result object as the last line of stdout.
func (r *run) report() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-34s %14.6g %-6s n=%d", n, m.Value, m.Unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(os.Stderr, line)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(os.Stderr, "error_rate %.6g (%d failed of %d attempted)\n", rate, r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// stamp names the machine and inputs every number was taken with.
func stamp(r *run) string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("workload=%s trace=%t seed=%d seconds=%s cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		r.workload, r.trace, r.seed, r.seconds, cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// commit is the git HEAD when the checkout is itself a repository, and
// otherwise a digest of the Go sources it holds, prefixed "src:".
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	var all []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		all = append(all, f...)
		all = append(all, digest(b)...)
	}
	if len(files) == 0 {
		return "unknown"
	}
	return "src:" + digest(all)[:16]
}
