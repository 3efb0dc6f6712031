package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/fmlr"
)

// daemonSetups is how many cold daemon starts a run pays; each is a launch
// plus a link of every unit, so it costs seconds, not milliseconds.
const daemonSetups = 3

// lintBatch is how many consecutive units one /v1/lint request carries.
const lintBatch = 4

// superd is a running daemon child process.
type superd struct {
	cmd  *exec.Cmd
	addr string
}

// startSuperd launches superd on a unix socket in the run directory,
// serving t with a fresh store, and waits until /healthz answers.
func (r *run) startSuperd(ctx context.Context, t *tree, tag string) (*superd, *daemon.Client, error) {
	tables := filepath.Join(r.dir, "tables-"+tag)
	storeDir := filepath.Join(r.dir, "store-"+tag)
	sock := filepath.Join(r.dir, tag+".sock")
	for _, d := range []string{tables, storeDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return nil, nil, err
		}
	}
	abs, err := filepath.Abs(filepath.Join(r.bin, "superd"))
	if err != nil {
		return nil, nil, err
	}
	logf, err := os.Create(filepath.Join(r.dir, tag+".log"))
	if err != nil {
		return nil, nil, err
	}
	defer logf.Close()
	cmd := exec.Command(abs, "-listen", "unix:"+sock, "-root", t.dir, "-store", storeDir)
	cmd.Env = r.childEnv(tables)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start superd: %w", err)
	}
	d := &superd{cmd: cmd, addr: "unix:" + sock}
	deadline := time.Now().Add(60 * time.Second)
	for {
		c, err := daemon.DialOptions(d.addr, daemon.ClientOptions{JitterSeed: r.seed})
		if err == nil {
			return d, c, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, nil, fmt.Errorf("superd never became healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than a minute.
func (d *superd) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// hwmKB is the daemon's peak resident set (VmHWM).
func (d *superd) hwmKB() int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

func lintReq(t *tree, files []string) *daemon.LintRequest {
	return &daemon.LintRequest{Files: files, IncludePaths: t.includes, Defines: map[string]string{}, Mode: "bdd", ParseWorkers: fmlr.AutoWorkers()}
}

func linkReq(t *tree) *daemon.LinkRequest {
	return &daemon.LinkRequest{Files: t.units, IncludePaths: t.includes, Defines: map[string]string{}, Mode: "bdd", ParseWorkers: fmlr.AutoWorkers()}
}

// request is one completed (or failed) daemon request of the timed phase.
type request struct {
	link    bool
	key     string
	files   []string
	ms      float64
	err     error
	out     []byte // canonical response, for the repeat gate
	diags   []byte // diagnostics only, for the in-process gate
	badWits int    // diagnostics or findings with an unverified witness
}

// daemonRun is what one daemon phase measured.
type daemonRun struct {
	setupS      []float64
	reqs        []request
	wall        time.Duration
	before      map[string]int64
	after       map[string]int64
	retries     int64
	hwmKB       int64
	linkRef     []byte
	tokens      int
	completedOK int
}

func (d *daemonRun) delta(name string) int64 { return d.after[name] - d.before[name] }

// canonicalLink is the part of a link response that must not change when
// units change only in comments; the fact-cache counters do change.
func canonicalLink(resp *daemon.LinkResponse) ([]byte, int) {
	bad := 0
	for _, f := range resp.Findings {
		if !f.WitnessVerified {
			bad++
		}
	}
	b, _ := json.Marshal(struct {
		Units, Symbols, Facts int
		Findings              []daemon.LinkFinding
		Failed                []daemon.LinkUnit
	}{resp.Units, resp.Symbols, resp.Facts, resp.Findings, resp.Failed})
	return b, bad
}

func lintOut(resp *daemon.LintResponse) (out, diags []byte, bad int) {
	all := make([][]daemon.Diag, len(resp.Units))
	for i, u := range resp.Units {
		all[i] = u.Diags
		for _, d := range u.Diags {
			if !d.WitnessVerified {
				bad++
			}
		}
	}
	out, _ = json.Marshal(resp.Units)
	diags, _ = json.Marshal(all)
	return out, diags, bad
}

// daemonPhase pays the daemon's set-up daemonSetups times, then drives the
// last daemon for dur, and on until minReqs requests have completed, with
// runtime.NumCPU() closed-loop clients. Each
// client repeats three /v1/lint requests of lintBatch consecutive units and
// one /v1/link of every unit; before each link it rewrites one of its own
// units as the original text plus a fixed-width, uniquely numbered trailing
// comment, so that unit's link facts miss while its tokens stay the same.
func (r *run) daemonPhase(ctx context.Context, t *tree, dur time.Duration, minReqs int64, tr *tracer) (*daemonRun, error) {
	dr := &daemonRun{}
	var d *superd
	var client *daemon.Client
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		d, client, err = r.startSuperd(ctx, t, fmt.Sprintf("d%d", i))
		if err != nil {
			return nil, err
		}
		resp, err := client.Link(linkReq(t))
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("cold link: %w", err)
		}
		dr.setupS = append(dr.setupS, time.Since(start).Seconds())
		out, bad := canonicalLink(resp)
		r.attempted++
		switch {
		case bad > 0:
			r.fail("cold link: %d findings with unverified witnesses", bad)
		case len(resp.Failed) > 0:
			r.fail("cold link: %d units failed", len(resp.Failed))
		case dr.linkRef != nil && string(out) != string(dr.linkRef):
			r.fail("cold link: findings differ between daemon starts")
		}
		dr.linkRef = out
	}
	defer d.stop()
	st, err := client.Stats()
	if err != nil {
		return nil, err
	}
	dr.before = st.Counters

	n := runtime.NumCPU()
	per := make([][]request, n)
	retries := make([]int64, n)
	var edits, done atomic.Int64
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := daemon.DialOptions(d.addr, daemon.ClientOptions{JitterSeed: r.seed + int64(c)})
			if err != nil {
				per[c] = append(per[c], request{key: "dial", err: err})
				return
			}
			defer func() { retries[c] = cl.Metrics().Retries }()
			pos := (c * len(t.units) / n) / lintBatch * lintBatch
			for cycle := 0; (time.Now().Before(deadline) || done.Load() < minReqs) && ctx.Err() == nil; cycle++ {
				for k := 0; k < 3; k++ {
					files := make([]string, lintBatch)
					for j := range files {
						files[j] = t.units[(pos+j)%len(t.units)]
					}
					req := request{key: fmt.Sprintf("lint@%d", pos), files: files}
					var resp *daemon.LintResponse
					req.ms = timeRequest(tr, req.key, func() { resp, req.err = cl.Lint(lintReq(t, files)) })
					if req.err == nil {
						req.out, req.diags, req.badWits = lintOut(resp)
					}
					per[c] = append(per[c], req)
					done.Add(1)
					pos = (pos + lintBatch) % len(t.units)
				}
				u := t.units[c+n*(cycle%(len(t.units)/n))]
				if err := t.edit(u, edits.Add(1)); err != nil {
					per[c] = append(per[c], request{key: "edit " + u, err: err})
					return
				}
				req := request{link: true, key: "link", files: t.units}
				var resp *daemon.LinkResponse
				req.ms = timeRequest(tr, req.key, func() { resp, req.err = cl.Link(linkReq(t)) })
				if req.err == nil {
					req.out, req.badWits = canonicalLink(resp)
				}
				per[c] = append(per[c], req)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	dr.wall = time.Since(start)
	for c := range per {
		dr.reqs = append(dr.reqs, per[c]...)
		dr.retries += retries[c]
	}
	if st, err = client.Stats(); err != nil {
		return nil, err
	}
	dr.after = st.Counters
	dr.hwmKB = d.hwmKB()
	return dr, nil
}

// timeRequest runs call inside a request span whose daemon child covers
// the client call, and returns the client-observed latency in ms.
func timeRequest(tr *tracer, key string, call func()) float64 {
	rs := tr.begin("request", key, 0)
	ds := tr.begin("daemon", key, rs)
	start := time.Now()
	call()
	ms := time.Since(start).Seconds() * 1000
	tr.end(ds)
	tr.end(rs)
	return ms
}

// edit rewrites unit u as its original text plus a trailing comment whose
// fixed width keeps the file's size and tokens the same for every n. The
// write is atomic, so a concurrent request never reads a torn file.
func (t *tree) edit(u string, n int64) error {
	full := filepath.Join(t.dir, filepath.FromSlash(u))
	tmp := full + ".tmp"
	body := t.fs[u] + fmt.Sprintf("/* edit %012d */\n", n)
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, full)
}

// checkRequests applies the correctness gate to every request: it must
// have succeeded, repeat the first response to the same request, carry only
// verified witnesses, and — for lint — report exactly the diagnostics the
// in-process run found for the same files (want, when non-nil).
func (r *run) checkRequests(dr *daemonRun, t *tree, want func(files []string) []byte) {
	ref := newDigests()
	for _, q := range dr.reqs {
		r.attempted++
		switch {
		case q.err != nil:
			r.fail("%s: %v", q.key, q.err)
		case q.badWits > 0:
			r.fail("%s: %d unverified witnesses", q.key, q.badWits)
		case q.link && string(q.out) != string(dr.linkRef):
			r.fail("link: findings after comment-only edits differ from the cold link")
		case !q.link && !ref.check(q.key, q.out):
			r.fail("%s: response differs from the first one", q.key)
		case !q.link && want != nil && string(q.diags) != string(want(q.files)):
			r.fail("%s: diagnostics differ from the in-process run", q.key)
		default:
			dr.completedOK++
			dr.tokens += t.totalTokens(q.files)
		}
	}
}

// daemonWorkload is the end-to-end daemon workload.
func (r *run) daemonWorkload(ctx context.Context, in *inputs) error {
	t := in.corpus
	dr, err := r.daemonPhase(ctx, t, r.seconds, 100*minBeyond, nil)
	if err != nil {
		return err
	}
	res, err := r.pipeline(nil, t)
	if err != nil {
		return err
	}
	r.checkRequests(dr, t, res.wantDiags)
	r.daemonMetrics(dr)
	return nil
}

// daemonMetrics reports the end-to-end figures of a daemon phase.
func (r *run) daemonMetrics(dr *daemonRun) {
	r.set("setup_s", median(dr.setupS), "s", len(dr.setupS))
	secs := dr.wall.Seconds()
	r.set("req_per_s", float64(dr.completedOK)/secs, "1/s", len(dr.reqs))
	r.set("tokens_per_s", float64(dr.tokens)/secs, "1/s", len(dr.reqs))
	var ms []float64
	for _, q := range dr.reqs {
		ms = append(ms, q.ms)
	}
	r.latencies(ms)
	r.set("peak_rss_mb", float64(dr.hwmKB)/1024, "MB", 1)
}
