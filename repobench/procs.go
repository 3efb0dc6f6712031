package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// minRequests keeps the timed phase going past -seconds until the median
// has minBeyond samples above it.
const minRequests = 2*minBeyond + 1

// setups is how many times a run pays its set-up; setup_s is the median.
const setups = 5

// proc is one finished child process.
type proc struct {
	wall   time.Duration
	rssKB  int64
	code   int
	stdout []byte
	stderr []byte
}

// runProc runs bin/name with args in dir and waits for it.
func (r *run) runProc(ctx context.Context, dir, tables, name string, args ...string) (proc, error) {
	abs, err := filepath.Abs(filepath.Join(r.bin, name))
	if err != nil {
		return proc{}, err
	}
	cmd := exec.CommandContext(ctx, abs, args...)
	cmd.Dir = dir
	cmd.Env = r.childEnv(tables)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err = cmd.Run()
	p := proc{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	if cmd.ProcessState == nil {
		return p, fmt.Errorf("%s: %w", name, err)
	}
	p.code = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssKB = ru.Maxrss
	}
	return p, nil
}

// invocation is one process of a pass.
type invocation struct {
	key    string
	args   []string
	tokens int
}

// ok counts p as attempted, and as failed when it exited other than 0 or 1
// (clint exits 1 on findings) or reported a failed unit on stderr.
func (r *run) ok(key string, p proc) bool {
	r.attempted++
	switch {
	case p.code != 0 && p.code != 1:
		r.fail("%s: exit status %d: %s", key, p.code, firstLine(p.stderr))
	case len(p.stderr) > 0:
		r.fail("%s: unit failure: %s", key, firstLine(p.stderr))
	default:
		return true
	}
	return false
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return s
}

// processWorkload times passes of one-shot processes: set-up is the first
// run of setupArgs with an empty parse-table cache, then one untimed pass
// fixes each invocation's reference output, then passes repeat until the
// timed phase ends. Every pass's output must equal the reference. A pass
// is one request: its wall time (the sum of its processes') is one latency
// sample, so the latency percentiles of a size sweep do not jump between
// the sizes' clusters as the number of passes changes.
// check, when non-nil, inspects each reference output.
func (r *run) processWorkload(ctx context.Context, dir, bin string, setupArgs []string, pass []invocation, check func(key string, stdout []byte)) error {
	var setupS []float64
	var tables string
	for i := 0; i < setups; i++ {
		tables = filepath.Join(r.dir, fmt.Sprintf("tables-%d", i))
		if err := os.Mkdir(tables, 0o755); err != nil {
			return err
		}
		p, err := r.runProc(ctx, dir, tables, bin, setupArgs...)
		if err != nil {
			return err
		}
		r.ok("setup", p)
		setupS = append(setupS, p.wall.Seconds())
	}
	r.set("setup_s", median(setupS), "s", len(setupS))

	ref := newDigests()
	for _, inv := range pass {
		p, err := r.runProc(ctx, dir, tables, bin, inv.args...)
		if err != nil {
			return err
		}
		r.ok(inv.key, p)
		ref.check(inv.key, p.stdout)
		if check != nil {
			check(inv.key, p.stdout)
		}
	}

	tokensPerPass := 0
	for _, inv := range pass {
		tokensPerPass += inv.tokens
	}
	var passWall, rssMB []float64
	start := time.Now()
	for time.Since(start) < r.seconds || len(passWall) < minRequests {
		if err := ctx.Err(); err != nil {
			return err
		}
		var wall time.Duration
		var rss int64
		for _, inv := range pass {
			p, err := r.runProc(ctx, dir, tables, bin, inv.args...)
			if err != nil {
				return err
			}
			if r.ok(inv.key, p) && !ref.check(inv.key, p.stdout) {
				r.fail("%s: output differs from the first pass", inv.key)
			}
			wall += p.wall
			rss = max(rss, p.rssKB)
		}
		passWall = append(passWall, wall.Seconds())
		rssMB = append(rssMB, float64(rss)/1024)
	}
	ms := make([]float64, len(passWall))
	for i, w := range passWall {
		ms[i] = w * 1000
	}
	r.latencies(ms)
	med := median(passWall)
	r.set("tokens_per_s", float64(tokensPerPass)/med, "1/s", len(passWall))
	r.set("req_per_s", float64(len(pass))/med, "1/s", len(passWall))
	r.set("peak_rss_mb", median(rssMB), "MB", len(rssMB))
	return nil
}

// latencies reports req_p50_ms and the tail percentile of the samples.
func (r *run) latencies(ms []float64) {
	if p50, err := percentile(ms, 0.5); err != nil {
		r.fail("req_p50_ms: %v", err)
	} else {
		r.set("req_p50_ms", p50, "ms", len(ms))
	}
	if v, pct, err := tail(ms); err != nil {
		r.fail("req_p99_ms: %v", err)
	} else {
		note := "p99"
		if pct != 99 {
			note = fmt.Sprintf("p%d: p99 needs %d samples", pct, 100*minBeyond)
		}
		r.metrics["req_p99_ms"] = metric{Value: v, Unit: "ms", n: len(ms), note: note}
	}
}

func (r *run) corpus(ctx context.Context, in *inputs) error {
	t := in.corpus
	flags := append([]string{"-link", "-format", "json"}, t.includeFlags()...)
	pass := []invocation{{key: "clint", args: append(flags, t.units...), tokens: t.totalTokens(t.units)}}
	return r.processWorkload(ctx, t.dir, "clint", append(flags, t.units[0]), pass, r.clintWitnessGate)
}

func (r *run) giant(ctx context.Context, in *inputs) error {
	t := in.giant
	var pass []invocation
	for _, u := range t.units {
		pass = append(pass, invocation{key: u, args: []string{u}, tokens: t.tokens[u]})
	}
	return r.processWorkload(ctx, t.dir, "superc", []string{t.units[0]}, pass, nil)
}
