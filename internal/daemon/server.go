package daemon

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/hcache"
	"repro/internal/link"
	"repro/internal/preprocessor"
	"repro/internal/stats"
	"repro/internal/store"
)

// Config configures a Server.
type Config struct {
	// Root confines file-serving requests: every file and include path must
	// be a local (no "..", not absolute) path resolved beneath it.
	Root string
	// MaxJobs clamps per-request worker counts; 0 means GOMAXPROCS.
	MaxJobs int
	// Caps are per-axis guard maximums clamped onto request limits (QoS):
	// a request asking for more — or for no limit — gets the cap.
	Caps guard.Limits
	// Store, when non-nil, backs the header cache and the corpus facts
	// cache, persisting warm state across daemon restarts.
	Store *store.Store
	// MaxInFlight bounds concurrently executing batch requests; beyond it
	// requests queue briefly, then are shed with 429 + Retry-After. 0 means
	// 2×MaxJobs (two batches can interleave on the worker pool).
	MaxInFlight int
	// QueueDepth is the size of the admission waiting room; 0 means a small
	// default, negative disables queueing (immediate shed at saturation).
	QueueDepth int
	// QueueWait bounds how long a queued request waits for an execution slot
	// before being shed; 0 means 1s.
	QueueWait time.Duration
	// ReadTimeout/WriteTimeout bound each connection's request read and
	// response write (http.Server); zero values get generous defaults sized
	// for batch bodies rather than being unlimited.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// Server is the superd request handler: one warm header cache and an
// optional artifact store shared by every request.
type Server struct {
	cfg   Config
	hc    *hcache.Cache
	mux   *http.ServeMux
	http  *http.Server
	adm   *admission
	start time.Time

	// afterAdmit, when set, runs after a request is admitted and before its
	// handler (drain tests hold requests in flight with it).
	afterAdmit func()

	reqLint, reqParse, reqCorpus stats.Counter
	reqLink                      stats.Counter
	units                        stats.Counter
	factsHits, factsMisses       stats.Counter
	linkUnits, linkFindings      stats.Counter
	linkFactsHits, linkFactsMiss stats.Counter
	failedUnits, killedUnits     stats.Counter
	budgetTrips                  stats.Counter
	forks, merges                stats.Counter
}

// NewServer builds a server over cfg. The header cache is created here —
// backed by cfg.Store when present — and lives for the server's lifetime.
func NewServer(cfg Config) *Server {
	if cfg.Root == "" {
		cfg.Root = "."
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * cfg.MaxJobs
	}
	queueDepth := cfg.QueueDepth
	switch {
	case queueDepth == 0:
		queueDepth = 16
	case queueDepth < 0:
		queueDepth = 0
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 60 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		// Batch responses are written only after the whole batch computes;
		// the write timeout must cover the slowest admissible batch.
		cfg.WriteTimeout = 10 * time.Minute
	}
	var backing hcache.Backing
	if cfg.Store != nil {
		backing = store.NewHeaderBacking(cfg.Store, preprocessor.PayloadCodec())
	}
	s := &Server{
		cfg:   cfg,
		hc:    hcache.New(hcache.Options{Backing: backing}),
		mux:   http.NewServeMux(),
		adm:   newAdmission(cfg.MaxInFlight, queueDepth, cfg.QueueWait),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/lint", s.admit(s.handleLint))
	s.mux.HandleFunc("POST /v1/parse", s.admit(s.handleParse))
	s.mux.HandleFunc("POST /v1/link", s.admit(s.handleLink))
	s.mux.HandleFunc("POST /v1/corpus", s.admit(s.handleCorpus))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	return s
}

// admit gates a batch handler behind the admission valve. The client's
// remaining deadline (DeadlineHeader, milliseconds) becomes the request
// context's deadline, bounding both queue wait and the guard budgets inside
// the handler. Shed requests get 429 (503 while draining) with Retry-After,
// so well-behaved clients back off instead of hammering.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ms := r.Header.Get(DeadlineHeader); ms != "" {
			if n, err := strconv.ParseInt(ms, 10, 64); err == nil && n > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(n)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		release, ok := s.adm.acquire(r.Context())
		if !ok {
			status := http.StatusTooManyRequests
			msg := "server overloaded"
			if s.adm.draining.Load() {
				status = http.StatusServiceUnavailable
				msg = "server draining"
			}
			w.Header().Set("Retry-After", "1")
			httpError(w, status, "%s; retry after backoff", msg)
			return
		}
		defer release()
		if s.afterAdmit != nil {
			s.afterAdmit()
		}
		h(w, r)
	}
}

// Handler exposes the route table (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Drain flips the server to not-ready: new batch requests are shed with 503
// and the /healthz readiness probe fails, while in-flight batches keep
// running. Shutdown calls it implicitly; calling it earlier lets a load
// balancer move traffic before the listener closes.
func (s *Server) Drain() { s.adm.drain() }

// Shutdown drains in-flight requests (http.Server.Shutdown): readiness goes
// false, the listener closes immediately, running batches finish, then Serve
// returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	return s.http.Shutdown(ctx)
}

// Listen opens the listener for a -listen style address: "unix:PATH" or a
// path containing a slash listens on a unix socket (removing a stale socket
// file first); "tcp:ADDR" or a host:port listens on TCP.
func Listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return listenUnix(path)
	}
	if hostport, ok := strings.CutPrefix(addr, "tcp:"); ok {
		return net.Listen("tcp", hostport)
	}
	if strings.Contains(addr, "/") {
		return listenUnix(addr)
	}
	return net.Listen("tcp", addr)
}

func listenUnix(path string) (net.Listener, error) {
	// A previous daemon that died without cleanup leaves a stale socket
	// file; binding requires removing it. A live daemon is detected by the
	// remove-then-bind race window being negligible for a local tool.
	os.Remove(path)
	return net.Listen("unix", path)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// rootFS confines all file access to the server root: paths must be local
// (relative, no traversal above the root) and are resolved beneath it.
type rootFS struct{ root string }

func (f rootFS) resolve(p string) (string, error) {
	p = filepath.Clean(filepath.FromSlash(p))
	if !filepath.IsLocal(p) {
		return "", fmt.Errorf("daemon: path escapes server root: %s", p)
	}
	return filepath.Join(f.root, p), nil
}

func (f rootFS) ReadFile(p string) ([]byte, error) {
	full, err := f.resolve(p)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(full)
}

func (f rootFS) Exists(p string) bool {
	full, err := f.resolve(p)
	if err != nil {
		return false
	}
	_, err = os.Stat(full)
	return err == nil
}

// checkLocal rejects any request path that would escape the root.
func checkLocal(paths []string) error {
	for _, p := range paths {
		if !filepath.IsLocal(filepath.Clean(filepath.FromSlash(p))) {
			return fmt.Errorf("path escapes server root: %s", p)
		}
	}
	return nil
}

func selectPasses(names []string) ([]*analysis.Analyzer, error) {
	if len(names) == 0 {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, a := range passes.All() {
		known[a.Name] = true
	}
	for _, n := range names {
		if n == "all" {
			return passes.All(), nil
		}
		if !known[n] {
			return nil, fmt.Errorf("unknown pass %q", n)
		}
	}
	return passes.ByName(names), nil
}

// jobs clamps a requested worker count to the server bound (the runner
// further clamps it to the batch size).
func (s *Server) jobs(req int) int {
	if req <= 0 || req > s.cfg.MaxJobs {
		return s.cfg.MaxJobs
	}
	return req
}

// parseWorkers clamps a requested intra-unit worker count to the server
// bound. Unlike jobs, zero means sequential, not "use the maximum":
// region-parallel parsing is opt-in per request.
func (s *Server) parseWorkers(req int) int {
	if req <= 0 {
		return 0
	}
	if req > s.cfg.MaxJobs {
		return s.cfg.MaxJobs
	}
	return req
}

// runConfig is the RunConfig of one batch request: its configuration
// ("" mode and opt names select the defaults), the server's warm header
// cache, and its worker counts and limits clamped to the server's bounds.
func (s *Server) runConfig(mode, opt string, includes []string, defines map[string]string, jobs, parseWorkers int, limits Limits) (harness.RunConfig, error) {
	m, ok := cond.ModeByName(mode)
	if !ok {
		return harness.RunConfig{}, fmt.Errorf("unknown mode %q", mode)
	}
	o, ok := fmlr.OptionsByName(opt)
	if !ok {
		return harness.RunConfig{}, fmt.Errorf("unknown optimization level %q", opt)
	}
	o.ParseWorkers = s.parseWorkers(parseWorkers)
	return harness.RunConfig{
		Mode:         m,
		Parser:       o,
		Defines:      defines,
		Jobs:         s.jobs(jobs),
		IncludePaths: includes,
		HeaderCache:  s.hc,
		Budget:       Clamp(limits.ToGuard(), s.cfg.Caps),
	}, nil
}

// run executes one batch on the harness runner and folds its metrics into
// the server's counters.
func (s *Server) run(ctx context.Context, in harness.Units, cfg harness.RunConfig) ([]harness.UnitResult, harness.Metrics) {
	results, m := harness.RunUnits(ctx, in, cfg)
	s.failedUnits.Add(int64(m.FailedUnits))
	s.killedUnits.Add(int64(m.KilledUnits))
	s.budgetTrips.Add(int64(m.BudgetTrips))
	s.forks.Add(m.Forks)
	s.merges.Add(m.Merges)
	return results, m
}

// decodeBatch decodes a batch request body, answering 400 itself when it
// is malformed.
func decodeBatch(w http.ResponseWriter, r *http.Request, req any) bool {
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return false
	}
	return true
}

// checkPaths confines a request's files and include paths to the server
// root, answering 400 itself when one escapes.
func checkPaths(w http.ResponseWriter, files, includes []string) bool {
	for _, paths := range [][]string{files, includes} {
		if err := checkLocal(paths); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return false
		}
	}
	return true
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	s.reqLint.Inc()
	var req LintRequest
	if !decodeBatch(w, r, &req) {
		return
	}
	cfg, err := s.runConfig(req.Mode, "", req.IncludePaths, req.Defines, req.Jobs, req.ParseWorkers, req.Limits)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	analyzers, err := selectPasses(req.Passes)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if analyzers == nil {
		analyzers = passes.All()
	}
	if !checkPaths(w, req.Files, req.IncludePaths) {
		return
	}
	cfg.Analyzers = analyzers
	results, _ := s.run(r.Context(), harness.Units{FS: rootFS{s.cfg.Root}, Files: req.Files}, cfg)
	resp := LintResponse{Units: make([]LintUnit, len(results))}
	for i := range results {
		resp.Units[i] = LintUnitOf(&results[i])
	}
	s.units.Add(int64(len(req.Files)))
	writeJSON(w, &resp)
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	s.reqParse.Inc()
	var req ParseRequest
	if !decodeBatch(w, r, &req) {
		return
	}
	cfg, err := s.runConfig(req.Mode, req.Opt, req.IncludePaths, req.Defines, req.Jobs, req.ParseWorkers, req.Limits)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !checkPaths(w, req.Files, req.IncludePaths) {
		return
	}
	cfg.Single = req.Single
	results, _ := s.run(r.Context(), harness.Units{FS: rootFS{s.cfg.Root}, Files: req.Files}, cfg)
	resp := ParseResponse{Units: make([]ParseUnit, len(results)), TableCache: cgrammar.TableCacheState()}
	for i := range results {
		resp.Units[i] = ParseUnitOf(&results[i])
	}
	s.units.Add(int64(len(req.Files)))
	writeJSON(w, &resp)
}

func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) {
	s.reqLink.Inc()
	var req LinkRequest
	if !decodeBatch(w, r, &req) {
		return
	}
	cfg, err := s.runConfig(req.Mode, "", req.IncludePaths, req.Defines, req.Jobs, req.ParseWorkers, req.Limits)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !checkPaths(w, req.Files, req.IncludePaths) {
		return
	}
	cfg.Link = true
	in := harness.Units{FS: rootFS{s.cfg.Root}, Files: req.Files}
	var cache *linkCache
	if s.cfg.Store != nil && !req.NoFacts {
		cache = &linkCache{
			st:    s.cfg.Store,
			fs:    rootFS{s.cfg.Root},
			fp:    Version + ";" + cfg.Fingerprint(),
			files: req.Files,
			keys:  make([]string, len(req.Files)),
		}
		in.Cache = cache
	}
	// The runner joins cached and fresh facts together, once.
	results, m := s.run(r.Context(), in, cfg)
	resp := LinkResponseOf(m.LinkResult)
	if cache != nil {
		resp.FactsHits = cache.hits.Load()
	}
	resp.FactsMisses = int64(len(req.Files)) - resp.FactsHits
	for i := range results {
		if e := linkFailure(&results[i]); e != "" {
			resp.Failed = append(resp.Failed, LinkUnit{File: req.Files[i], Errors: e})
		}
	}
	s.units.Add(int64(len(req.Files)))
	s.linkUnits.Add(int64(resp.Units))
	s.linkFindings.Add(int64(len(resp.Findings)))
	s.linkFactsHits.Add(resp.FactsHits)
	s.linkFactsMiss.Add(resp.FactsMisses)
	writeJSON(w, &resp)
}

// linkFailure is the error text of a unit that contributed no facts, or "".
func linkFailure(r *harness.UnitResult) string {
	switch {
	case r.Err != "":
		return fmt.Sprintf("%s: %s\n", r.File, r.Err)
	case r.ParseFail:
		return fmt.Sprintf("%s: no AST (parse failed)\n", r.File)
	}
	return ""
}

// linkCache serves /v1/link units from the link facts persisted in the
// store. The key folds in the root file's content hash, so editing a .c
// file invalidates its facts across restarts. Header edits are not tracked
// here; flush with -no-facts (or a fresh store) after changing shared
// headers.
type linkCache struct {
	st    *store.Store
	fs    rootFS
	fp    string
	files []string
	keys  []string // per unit; "" when its root file is unreadable
	hits  stats.Counter
}

func (c *linkCache) Get(i int) (harness.UnitResult, bool) {
	file := c.files[i]
	data, err := c.fs.ReadFile(file)
	if err != nil {
		return harness.UnitResult{}, false
	}
	c.keys[i] = fmt.Sprintf("%s\x00%s\x00%x", c.fp, file, sha256.Sum256(data))
	raw, ok := c.st.Get(store.NSLink, c.keys[i])
	if !ok {
		return harness.UnitResult{}, false
	}
	f, err := link.DecodeFacts(raw)
	if err != nil {
		c.st.Delete(store.NSLink, c.keys[i])
		return harness.UnitResult{}, false
	}
	c.hits.Inc()
	return harness.UnitResult{File: file, LinkFacts: f}, true
}

// Put persists only complete fact sets: a budget-tripped extraction may be
// truncated.
func (c *linkCache) Put(i int, r *harness.UnitResult) {
	if c.keys[i] == "" || r.LinkFacts == nil || r.Budget != nil {
		return
	}
	if data, err := r.LinkFacts.Encode(); err == nil {
		c.st.Put(store.NSLink, c.keys[i], data)
	}
}

func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	s.reqCorpus.Inc()
	var req CorpusRequest
	if !decodeBatch(w, r, &req) {
		return
	}
	cfg, err := s.runConfig(req.Mode, req.Opt, harness.IncludePaths, nil, req.Jobs, req.ParseWorkers, req.Limits)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	analyzers, err := selectPasses(req.Passes)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c := corpus.Generate(corpus.Params{Seed: req.Seed, CFiles: req.CFiles, GenHeaders: req.Headers})
	cfg.Single = req.Single
	cfg.Analyzers = analyzers
	fp := fmt.Sprintf("%s;seed=%d;cfiles=%d;headers=%d;%s",
		Version, req.Seed, req.CFiles, req.Headers, cfg.Fingerprint())

	resp := CorpusResponse{Units: make([]CorpusUnit, len(c.CFiles))}
	var missing []int
	var missFiles []string
	useFacts := s.cfg.Store != nil && !req.NoFacts
	for i, f := range c.CFiles {
		if useFacts && store.GetGob(s.cfg.Store, store.NSFacts, fp+"\x00"+f, &resp.Units[i]) {
			resp.FactsHits++
			continue
		}
		missing = append(missing, i)
		missFiles = append(missFiles, f)
	}
	if len(missing) > 0 {
		resp.FactsMisses = int64(len(missing))
		results, _ := s.run(r.Context(), harness.Units{FS: c.FS, Files: missFiles}, cfg)
		for j, i := range missing {
			u := toCorpusUnit(&results[j])
			resp.Units[i] = u
			// A unit that errored (cancelled run, panic) is not a
			// deterministic fact; everything else is a pure function of
			// (corpus, config, limits) and may be served across restarts.
			if useFacts && u.Err == "" {
				store.PutGob(s.cfg.Store, store.NSFacts, fp+"\x00"+missFiles[j], &u)
			}
		}
	}
	s.factsHits.Add(resp.FactsHits)
	s.factsMisses.Add(resp.FactsMisses)
	s.units.Add(int64(len(c.CFiles)))
	writeJSON(w, &resp)
}

// counters collects every exposed counter under stable names.
func (s *Server) counters() map[string]int64 {
	m := map[string]int64{
		"requests_lint":        s.reqLint.Load(),
		"requests_parse":       s.reqParse.Load(),
		"requests_link":        s.reqLink.Load(),
		"requests_corpus":      s.reqCorpus.Load(),
		"units_total":          s.units.Load(),
		"facts_hits":           s.factsHits.Load(),
		"facts_misses":         s.factsMisses.Load(),
		"link_units":           s.linkUnits.Load(),
		"link_findings":        s.linkFindings.Load(),
		"link_facts_hits":      s.linkFactsHits.Load(),
		"link_facts_misses":    s.linkFactsMiss.Load(),
		"harness_failed_units": s.failedUnits.Load(),
		"harness_killed_units": s.killedUnits.Load(),
		"harness_budget_trips": s.budgetTrips.Load(),
		"harness_forks":        s.forks.Load(),
		"harness_merges":       s.merges.Load(),
	}
	m["admission_admitted"] = s.adm.admitted.Load()
	m["admission_queued_total"] = s.adm.queuedTotal.Load()
	m["admission_shed"] = s.adm.shed.Load()
	m["admission_in_flight"] = s.adm.inFlight.Load()
	m["admission_queued"] = s.adm.queued.Load()
	m["draining"] = b2i(s.adm.draining.Load())
	m["ready"] = b2i(s.adm.ready())
	hc := s.hc.Stats()
	m["hcache_header_hits"] = hc.HeaderHits
	m["hcache_header_misses"] = hc.HeaderMisses
	m["hcache_lex_hits"] = hc.LexHits
	m["hcache_lex_misses"] = hc.LexMisses
	m["hcache_bytes_saved"] = hc.BytesSaved
	m["hcache_evictions"] = hc.Evictions
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		m["store_hits"] = st.Hits
		m["store_misses"] = st.Misses
		m["store_writes"] = st.Writes
		m["store_evictions"] = st.Evictions
		m["store_corrupt"] = st.Corrupt
		m["store_entries"] = st.Entries
		m["store_bytes"] = st.Bytes
		m["store_scrubbed"] = st.Scrubbed
		m["store_tmp_swept"] = st.TmpSwept
		m["store_write_errors"] = st.WriteErrors
		m["store_read_errors"] = st.ReadErrors
		m["store_degraded"] = st.Degraded
	}
	return m
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, &StatsResponse{
		Version:  Version,
		Uptime:   time.Since(s.start).Round(time.Millisecond).String(),
		Counters: s.counters(),
	})
}

// handleMetrics renders the counters in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.counters()
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, n := range names {
		fmt.Fprintf(w, "superd_%s %d\n", n, c[n])
	}
}

// handleHealthz serves both probes. Liveness (the default) is always 200
// while the process serves HTTP — existing clients Dial against it.
// Readiness (?probe=readiness) turns 503 during drain or full saturation so
// load balancers stop routing new work; the body carries both bits either
// way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready := s.adm.ready()
	if r.URL.Query().Get("probe") == "readiness" && !ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(&HealthResponse{OK: true, Ready: false, Version: Version})
		return
	}
	writeJSON(w, &HealthResponse{OK: true, Ready: ready, Version: Version})
}
