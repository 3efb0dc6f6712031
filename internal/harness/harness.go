// Package harness is the one per-unit runner: RunUnits preprocesses,
// parses and analyzes a list of compilation units for clint, cstats,
// fmlrbench, superd's batch endpoints and the repository's root benchmarks.
// Over the synthetic corpus it also drives the paper's evaluation (§6) and
// renders each table and figure in the paper's format.
//
// # Concurrent design
//
// Compilation units are independent — each gets a fresh core.Tool with its
// own presence-condition space and macro table — so RunUnits fans them out
// over a bounded worker pool (RunConfig.Jobs wide, GOMAXPROCS by default).
// Results land in a slice indexed by the unit's input position, so output
// ordering is deterministic regardless of scheduling, and per-unit timing
// is measured inside the worker exactly as in the sequential harness. A
// unit that panics or trips the subparser kill switch degrades to a
// recorded failure in its UnitResult instead of taking down the run, and a
// cancelled context marks the not-yet-processed remainder as skipped at
// unit granularity.
//
// # Resource governance
//
// Every unit runs under a fresh guard.Budget derived from the run's context
// and RunConfig.Budget limits, so a cancelled context also abandons
// in-flight units (the stages poll the budget at their loop heads), and
// pathological units degrade to a partial AST with a structured
// guard.Diagnostic instead of hanging. With RunConfig.Quarantine, a unit
// whose first attempt panics or trips its budget is retried once; a second
// failure quarantines the unit, which Metrics reports by path.
//
// While a run is in flight the workers maintain lock-free counters
// (stats.Counter/Timer/HighWater); RunUnits returns their final values as
// a Metrics snapshot alongside the results.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/guard/faultinject"
	"repro/internal/hcache"
	"repro/internal/link"
	"repro/internal/preprocessor"
	"repro/internal/stats"
	"repro/internal/store"
)

// IncludePaths are the corpus's include directories.
var IncludePaths = []string{"include", "include/gen", "include/linux"}

// sharedHeaderCache is the process-wide default header cache, created on
// first cached run so that repeated runs (benchmark arms, Figure sweeps)
// keep sharing header work.
var (
	headerCacheOnce   sync.Once
	sharedHeaderCache *hcache.Cache

	storeMu     sync.Mutex
	sharedStore *store.Store
)

// UseStore opens the on-disk artifact store at dir and installs it as the
// durable layer beneath the process-wide header cache. It must be called
// before the first cached run (the cmd tools call it while parsing flags);
// calling it after the shared cache exists returns an error rather than
// silently leaving the cache unbacked. maxBytes <= 0 keeps the store's
// default bound.
func UseStore(dir string, maxBytes int64) (*store.Store, error) {
	s, err := store.Open(dir, store.Options{MaxBytes: maxBytes})
	if err != nil {
		return nil, err
	}
	storeMu.Lock()
	defer storeMu.Unlock()
	if sharedHeaderCache != nil {
		return nil, fmt.Errorf("harness: UseStore called after the shared header cache was created")
	}
	sharedStore = s
	return s, nil
}

// Store returns the artifact store installed by UseStore, or nil.
func Store() *store.Store {
	storeMu.Lock()
	defer storeMu.Unlock()
	return sharedStore
}

// headerCache resolves the cache a run should use: an explicit override, the
// process-wide default, or nil when disabled (including single-configuration
// mode, which the preprocessor would ignore the cache for anyway).
func (cfg RunConfig) headerCache() *hcache.Cache {
	if cfg.NoHeaderCache || cfg.Single {
		return nil
	}
	if cfg.HeaderCache != nil {
		return cfg.HeaderCache
	}
	headerCacheOnce.Do(func() {
		storeMu.Lock()
		defer storeMu.Unlock()
		var backing hcache.Backing
		if sharedStore != nil {
			backing = store.NewHeaderBacking(sharedStore, preprocessor.PayloadCodec())
		}
		sharedHeaderCache = hcache.New(hcache.Options{Backing: backing})
	})
	return sharedHeaderCache
}

// RunConfig selects one experimental arm. Every knob a run honours is a
// field here: the CLIs fill one from their flags (FlagRunConfig) and superd
// from each request, and nothing else reaches the runner.
type RunConfig struct {
	Mode    cond.Mode
	Parser  fmlr.Options      // optimization level and kill switch
	Single  bool              // single-configuration (gcc-like) mode
	Defines map[string]string // -D style macro definitions
	// Jobs bounds the worker pool: 0 means GOMAXPROCS, 1 is fully
	// sequential.
	Jobs int
	// ParseWorkers bounds intra-unit parallelism: with more than one worker
	// the parser splits each unit at top-level declaration boundaries and
	// parses the regions concurrently, with output proven byte-identical to
	// the sequential parse. 0 and 1 parse sequentially. It composes with
	// Jobs: each of the Jobs units in flight may fan out up to ParseWorkers
	// region parses.
	ParseWorkers int
	// IncludePaths are the directories searched for #include files. Run and
	// RunMetered default them to the corpus's IncludePaths.
	IncludePaths []string
	// HeaderCache overrides the shared cross-unit header cache for this run.
	// nil uses the process-wide default cache unless NoHeaderCache is set.
	HeaderCache *hcache.Cache
	// NoHeaderCache disables header caching for this run.
	NoHeaderCache bool
	// Budget sets per-unit resource ceilings (internal/guard). All-zero
	// limits still attach a budget so that context cancellation reaches
	// in-flight units.
	Budget guard.Limits
	// Quarantine retries a failed or budget-tripped unit once and, on a
	// second failure, marks it quarantined instead of retrying forever.
	Quarantine bool
	// Analyzers, when non-empty, runs the variability-aware analysis passes
	// over every unit after parsing (internal/analysis); each unit's
	// diagnostics land in its UnitResult.Analysis and the run's counters in
	// Metrics.
	Analyzers []*analysis.Analyzer
	// Link extracts per-unit conditional link facts after parsing (each
	// unit's facts land in UnitResult.LinkFacts) and joins them corpus-wide
	// once every unit finishes; the findings land in Metrics.LinkResult and
	// the run's link counters in Metrics.
	Link bool
}

// Fingerprint keys caches of per-unit results. It renders every field
// that can change a unit's result: the condition mode, the parser level and
// kill switch, Single, Defines, IncludePaths, the analyzer names, Link and
// the Budget limits. Jobs, ParseWorkers, HeaderCache and NoHeaderCache
// leave results identical, and Quarantine only retries units that failed,
// so they are left out. Callers add what the config does not name, such as
// the inputs and their own format version.
func (cfg RunConfig) Fingerprint() string {
	parser := cfg.Parser
	parser.Budget, parser.ParseWorkers, parser.NoStream = nil, 0, false
	defs := make([]string, 0, len(cfg.Defines))
	for k, v := range cfg.Defines {
		defs = append(defs, k+"="+v)
	}
	sort.Strings(defs)
	passes := make([]string, len(cfg.Analyzers))
	for i, a := range cfg.Analyzers {
		passes[i] = a.Name
	}
	sort.Strings(passes)
	return fmt.Sprintf("mode=%d;parser=%+v;single=%t;defs=%q;inc=%q;passes=%q;link=%t;limits=%+v",
		cfg.Mode, parser, cfg.Single, defs, cfg.IncludePaths, passes, cfg.Link, cfg.Budget)
}

// parser resolves the parser options: cfg.ParseWorkers applies unless the
// options set their own.
func (cfg RunConfig) parser() fmlr.Options {
	p := cfg.Parser
	if p.ParseWorkers == 0 {
		p.ParseWorkers = cfg.ParseWorkers
	}
	return p
}

// jobs resolves the effective worker count for n units.
func (cfg RunConfig) jobs(n int) int {
	j := cfg.Jobs
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	if j > n {
		j = n
	}
	if j < 1 {
		j = 1
	}
	return j
}

// UnitResult is one compilation unit's measurements.
type UnitResult struct {
	File      string
	Bytes     int
	Tokens    int
	Pre       preprocessor.UnitStats
	Parse     fmlr.Stats
	Killed    bool
	ParseFail bool
	Err       string // unit not processed: preprocessor error, recovered panic, or run cancelled
	Stack     string // goroutine stack captured when Err records a panic
	// Budget is the structured diagnostic when the unit tripped its
	// resource budget and degraded to a partial AST (nil otherwise).
	Budget      *guard.Diagnostic
	Retried     bool // result comes from the second (retry) attempt
	Quarantined bool // both attempts failed; unit is quarantined
	LexTime     time.Duration
	PreTime     time.Duration // preprocessing excluding lexing
	ParseTime   time.Duration
	TotalTime   time.Duration
	ChoiceNodes int
	ASTNodes    int
	BDDNodes    int // presence-condition nodes allocated for this unit (BDD mode)

	// PreDiags are the preprocessor's diagnostics; ParseErrs are the parse
	// errors rendered "pos: parse error under COND: msg" (conditions are
	// tied to the unit's space, so they are rendered before it is dropped).
	PreDiags  []preprocessor.Diagnostic
	ParseErrs []string

	// Hot-path cache effectiveness for this unit (BDD mode only for the
	// op-cache numbers; cond fast-paths cover both modes).
	BDDOpHits      int64
	BDDOpMisses    int64
	BDDOpEvictions int64
	BDDTableSlots  int // unique-table capacity at end of unit
	CondOps        int64
	CondFastPaths  int64

	// Analysis is the unit's variability-aware analysis result (nil when
	// RunConfig.Analyzers is empty or the unit failed before analysis).
	Analysis *analysis.Result

	// LinkFacts is the unit's conditional link facts (nil unless
	// RunConfig.Link is set and the unit parsed).
	LinkFacts *link.Facts
}

// Metrics is a snapshot of one run's per-stage observability counters.
type Metrics struct {
	Jobs        int // effective worker-pool width
	Units       int // units processed (== corpus size unless cancelled)
	FailedUnits int // ParseFail or recorded Err
	KilledUnits int // subparser kill switch trips
	MaxInFlight int // high-water mark of concurrently processing units

	// Resource-governor outcomes (internal/guard).
	BudgetTrips      int      // units that tripped a budget axis and degraded
	TripsByAxis      []int64  // trips per guard.Axis (indexed by Axis value)
	RetriedUnits     int      // units whose recorded result is a retry
	QuarantinedUnits int      // units that failed both attempts
	Quarantined      []string // quarantined unit paths, sorted

	// Cumulative per-stage work across all units (sums of per-unit wall
	// time; with N workers this can exceed WallTime by up to N×).
	LexTime        time.Duration
	PreprocessTime time.Duration
	ParseTime      time.Duration
	WallTime       time.Duration // elapsed time of the whole run

	// Engine totals across units.
	Forks        int64
	Merges       int64
	TypedefForks int64
	BDDNodes     int64 // presence-condition nodes allocated, summed over units

	// Parse-stage hot-path caches, summed over units.
	FollowHits      int64 // follow-set template memo hits
	FollowMisses    int64
	SubparserReuses int64 // free-list recycles
	SubparserAllocs int64
	BDDOpHits       int64 // BDD op-cache hits (BDD mode)
	BDDOpMisses     int64
	BDDOpEvictions  int64
	CondOps         int64 // presence-condition ops issued by the parser stack
	CondFastPaths   int64 // resolved by cond's simplification layer pre-BDD

	// Stream-fused token pipeline flow, summed over units. Streamed tokens
	// went through the parser's chunk-cursor fast path without ever being
	// materialized as forest elements; materialized tokens took the classic
	// element path (conditional regions, fallbacks, or streaming disabled).
	TokensStreamed     int64
	TokensMaterialized int64
	StreamFallbacks    int64 // fast-path bail-outs to the materialized path
	// StreamBytesAvoided estimates the forest bytes never allocated thanks to
	// streaming: streamed tokens × per-token element+segment footprint.
	StreamBytesAvoided int64

	// Parse-table cache outcome (process-wide, from package cgrammar).
	TableCacheHits   int64
	TableCacheMisses int64
	TableCacheState  string

	// Cross-unit header cache outcome for this run (delta of the shared
	// cache's counters across the run).
	HeaderCacheState  string // "on" or "off"
	HeaderCacheHits   int64  // Level-2 (preprocessed header) replays
	HeaderCacheMisses int64
	HeaderLexHits     int64 // Level-1 (lexed token stream) hits
	HeaderLexMisses   int64
	HeaderBytesSaved  int64 // source bytes not re-preprocessed
	HeaderEvictions   int64

	// Artifact-store outcome for this run (delta of the process-wide
	// store's counters; "off" unless UseStore configured one). Degraded is
	// current state, not a delta: 1 when persistent write failures flipped
	// the store read-only.
	StoreState     string
	StoreHits      int64
	StoreMisses    int64
	StoreWrites    int64
	StoreEvictions int64
	StoreCorrupt   int64
	StoreWriteErrs int64
	StoreReadErrs  int64
	StoreDegraded  int64

	// Daemon thin-client resilience outcome ("" unless the run went through
	// a superd client; then DaemonState is the circuit breaker's position).
	DaemonState        string
	DaemonAttempts     int64
	DaemonRetries      int64
	DaemonSheds        int64
	DaemonBreakerOpens int64

	// Variability-aware analysis counters (zero unless RunConfig.Analyzers).
	AnalysisPasses      int64            // passes run, summed over units
	AnalysisDiags       int64            // diagnostics reported
	AnalysisByPass      map[string]int64 // diagnostics per pass name
	WitnessChecks       int64            // witnesses extracted and independently re-verified
	WitnessFailures     int64            // witnesses the independent SAT check rejected
	InfeasibleDropped   int64            // diagnostics dropped for unsatisfiable conditions
	SkippedErrorRegions int64            // opaque _Error regions analysis refused to enter

	// Whole-corpus link outcome (nil/zero unless RunConfig.Link). LinkResult
	// holds the findings in total deterministic order with their conditions
	// in its own space; the counters mirror its Stats for rendering.
	LinkResult          *link.Result
	LinkUnits           int64
	LinkSymbols         int64
	LinkFacts           int64
	LinkFindings        int64
	LinkByFamily        map[string]int64
	LinkSATChecks       int64
	LinkWitnessChecks   int64
	LinkWitnessFailures int64
}

// String renders the snapshot as the block cmd/fmlrbench prints.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harness metrics (jobs=%d)\n", m.Jobs)
	fmt.Fprintf(&b, "  units: %d processed, %d failed, %d killed; max in flight %d\n",
		m.Units, m.FailedUnits, m.KilledUnits, m.MaxInFlight)
	fmt.Fprintf(&b, "  guard: %d budget trips, %d retried, %d quarantined",
		m.BudgetTrips, m.RetriedUnits, m.QuarantinedUnits)
	var axes []string
	for a, n := range m.TripsByAxis {
		if n > 0 {
			axes = append(axes, fmt.Sprintf("%s %d", guard.Axis(a), n))
		}
	}
	if len(axes) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(axes, ", "))
	}
	b.WriteByte('\n')
	for _, q := range m.Quarantined {
		fmt.Fprintf(&b, "    quarantined: %s\n", q)
	}
	fmt.Fprintf(&b, "  stage time: lex %.3fms, preprocess %.3fms, parse %.3fms (wall %.3fms)\n",
		1e3*m.LexTime.Seconds(), 1e3*m.PreprocessTime.Seconds(),
		1e3*m.ParseTime.Seconds(), 1e3*m.WallTime.Seconds())
	fmt.Fprintf(&b, "  engine: %d forks (%d typedef), %d merges, %d BDD nodes\n",
		m.Forks, m.TypedefForks, m.Merges, m.BDDNodes)
	rate := func(hits, misses int64) string {
		if hits+misses == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
	}
	fmt.Fprintf(&b, "  follow memo: %d hits, %d misses (%s); subparser pool: %d reuses, %d allocs\n",
		m.FollowHits, m.FollowMisses, rate(m.FollowHits, m.FollowMisses),
		m.SubparserReuses, m.SubparserAllocs)
	fmt.Fprintf(&b, "  BDD op cache: %d hits, %d misses (%s), %d evictions; cond fast-paths: %d of %d ops (%s)\n",
		m.BDDOpHits, m.BDDOpMisses, rate(m.BDDOpHits, m.BDDOpMisses), m.BDDOpEvictions,
		m.CondFastPaths, m.CondOps, rate(m.CondFastPaths, m.CondOps-m.CondFastPaths))
	fmt.Fprintf(&b, "  token stream: %d streamed, %d materialized (%s), %d fallbacks; ~%d KiB forest avoided\n",
		m.TokensStreamed, m.TokensMaterialized, rate(m.TokensStreamed, m.TokensMaterialized),
		m.StreamFallbacks, m.StreamBytesAvoided/1024)
	fmt.Fprintf(&b, "  table cache: %s (%d hits, %d misses this process)\n",
		m.TableCacheState, m.TableCacheHits, m.TableCacheMisses)
	fmt.Fprintf(&b, "  header cache: %s (%d hits, %d misses; lex %d hits, %d misses; %d bytes saved, %d evictions)\n",
		m.HeaderCacheState, m.HeaderCacheHits, m.HeaderCacheMisses,
		m.HeaderLexHits, m.HeaderLexMisses, m.HeaderBytesSaved, m.HeaderEvictions)
	fmt.Fprintf(&b, "  artifact store: %s", m.StoreState)
	if m.StoreState != "off" {
		fmt.Fprintf(&b, " (%d hits, %d misses, %d writes, %d evictions, %d corrupt)",
			m.StoreHits, m.StoreMisses, m.StoreWrites, m.StoreEvictions, m.StoreCorrupt)
		if m.StoreWriteErrs > 0 || m.StoreReadErrs > 0 {
			fmt.Fprintf(&b, " (%d write errors, %d read errors)", m.StoreWriteErrs, m.StoreReadErrs)
		}
		if m.StoreDegraded > 0 {
			b.WriteString(" DEGRADED read-only")
		}
	}
	b.WriteByte('\n')
	if m.DaemonState != "" {
		fmt.Fprintf(&b, "  daemon client: %d attempts, %d retries, %d sheds, %d breaker opens; breaker %s\n",
			m.DaemonAttempts, m.DaemonRetries, m.DaemonSheds, m.DaemonBreakerOpens, m.DaemonState)
	}
	if m.AnalysisPasses > 0 || m.AnalysisDiags > 0 {
		fmt.Fprintf(&b, "  analysis: %d passes run, %d diagnostics; %d witness checks (%d failed), %d infeasible dropped, %d error regions skipped\n",
			m.AnalysisPasses, m.AnalysisDiags, m.WitnessChecks, m.WitnessFailures,
			m.InfeasibleDropped, m.SkippedErrorRegions)
		names := make([]string, 0, len(m.AnalysisByPass))
		for n := range m.AnalysisByPass {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "    %s: %d\n", n, m.AnalysisByPass[n])
		}
	}
	if m.LinkResult != nil {
		fmt.Fprintf(&b, "  link: %d units, %d symbols, %d facts; %d findings; %d SAT checks, %d witness checks (%d failed)\n",
			m.LinkUnits, m.LinkSymbols, m.LinkFacts, m.LinkFindings,
			m.LinkSATChecks, m.LinkWitnessChecks, m.LinkWitnessFailures)
		fams := make([]string, 0, len(m.LinkByFamily))
		for f := range m.LinkByFamily {
			fams = append(fams, f)
		}
		sort.Strings(fams)
		for _, f := range fams {
			fmt.Fprintf(&b, "    link/%s: %d\n", f, m.LinkByFamily[f])
		}
	}
	return b.String()
}

// collector accumulates metrics from worker goroutines.
type collector struct {
	failed, killed  stats.Counter
	inFlight        stats.HighWater
	lex, pre, parse stats.Timer
	forks, merges   stats.Counter
	typedefForks    stats.Counter
	bddNodes        stats.Counter

	followHits, followMisses stats.Counter
	spReuses, spAllocs       stats.Counter
	tokStreamed, tokMat      stats.Counter
	streamFallbacks          stats.Counter
	opHits, opMisses         stats.Counter
	opEvictions              stats.Counter
	condOps, condFastPaths   stats.Counter

	budgetTrips          stats.Counter
	axisTrips            *stats.CounterSet
	retried, quarantined stats.Counter
	quarMu               sync.Mutex
	quarantinedFiles     []string

	anPasses, anDiags stats.Counter
	anWitChecks       stats.Counter
	anWitFailures     stats.Counter
	anInfeasible      stats.Counter
	anErrRegions      stats.Counter
	anByPassMu        sync.Mutex
	anByPass          map[string]int64
}

func newCollector() *collector {
	return &collector{
		axisTrips: stats.NewCounterSet(int(guard.NumAxes)),
		anByPass:  make(map[string]int64),
	}
}

// add folds one finished unit into the collector.
func (col *collector) add(r *UnitResult) {
	if r.ParseFail || r.Err != "" {
		col.failed.Inc()
	}
	if r.Killed {
		col.killed.Inc()
	}
	if r.Budget != nil {
		col.budgetTrips.Inc()
		col.axisTrips.Inc(int(r.Budget.Axis))
	}
	if r.Retried {
		col.retried.Inc()
	}
	if r.Quarantined {
		col.quarantined.Inc()
		col.quarMu.Lock()
		col.quarantinedFiles = append(col.quarantinedFiles, r.File)
		col.quarMu.Unlock()
	}
	col.lex.Add(r.LexTime)
	col.pre.Add(r.PreTime)
	col.parse.Add(r.ParseTime)
	col.forks.Add(int64(r.Parse.Forks))
	col.merges.Add(int64(r.Parse.Merges))
	col.typedefForks.Add(int64(r.Parse.TypedefForks))
	col.bddNodes.Add(int64(r.BDDNodes))
	col.followHits.Add(int64(r.Parse.FollowHits))
	col.followMisses.Add(int64(r.Parse.FollowMisses))
	col.spReuses.Add(int64(r.Parse.SubparserReuses))
	col.spAllocs.Add(int64(r.Parse.SubparserAllocs))
	col.tokStreamed.Add(int64(r.Parse.TokensStreamed))
	col.tokMat.Add(int64(r.Parse.TokensMaterialized))
	col.streamFallbacks.Add(int64(r.Parse.StreamFallbacks))
	col.opHits.Add(r.BDDOpHits)
	col.opMisses.Add(r.BDDOpMisses)
	col.opEvictions.Add(r.BDDOpEvictions)
	col.condOps.Add(r.CondOps)
	col.condFastPaths.Add(r.CondFastPaths)
	if a := r.Analysis; a != nil {
		col.anPasses.Add(int64(a.Stats.PassesRun))
		col.anDiags.Add(int64(a.Stats.Diagnostics))
		col.anWitChecks.Add(int64(a.Stats.WitnessChecks))
		col.anWitFailures.Add(int64(a.Stats.WitnessFailures))
		col.anInfeasible.Add(int64(a.Stats.InfeasibleDropped))
		col.anErrRegions.Add(int64(a.Stats.ErrorRegions))
		col.anByPassMu.Lock()
		for pass, n := range a.Stats.ByPass {
			col.anByPass[pass] += int64(n)
		}
		col.anByPassMu.Unlock()
	}
}

// Run processes every compilation unit of the corpus under cfg.
func Run(c *corpus.Corpus, cfg RunConfig) []UnitResult {
	results, _ := RunMetered(context.Background(), c, cfg)
	return results
}

// RunMetered is RunUnits over the corpus, with the corpus include
// directories unless cfg names its own.
func RunMetered(ctx context.Context, c *corpus.Corpus, cfg RunConfig) ([]UnitResult, Metrics) {
	if len(cfg.IncludePaths) == 0 {
		cfg.IncludePaths = IncludePaths
	}
	return RunUnits(ctx, Units{FS: c.FS, Files: c.CFiles}, cfg)
}

// Units is one run's input: the compilation units and where they are read
// from.
type Units struct {
	FS    preprocessor.FileSystem // nil: the operating system
	Files []string
	// Cache, when non-nil, serves units from the caller's own store.
	Cache UnitCache
}

// UnitCache lets a caller answer some units from its own cache. A worker
// asks Get before running unit i; a hit becomes the unit's result without
// reaching the pipeline. Every unit the runner did run is handed to Put.
// Both are called from workers, at most once per index.
type UnitCache interface {
	Get(i int) (UnitResult, bool)
	Put(i int, r *UnitResult)
}

// RunUnits runs every unit through the per-unit pipeline — preprocess,
// parse, then the analyses cfg selects — on a pool of cfg.Jobs workers, and
// returns the results in input order with a metrics snapshot. When ctx is
// cancelled, units not yet started are recorded as failed with Err
// "run cancelled" and the call returns after in-flight units finish.
func RunUnits(ctx context.Context, in Units, cfg RunConfig) ([]UnitResult, Metrics) {
	parser := cfg.parser()
	jobs := cfg.jobs(len(in.Files))
	out := make([]UnitResult, len(in.Files))
	col := newCollector()
	hc := cfg.headerCache()
	var hcBefore hcache.Snapshot
	if hc != nil {
		hcBefore = hc.Stats()
	}
	st := Store()
	var stBefore store.Snapshot
	if st != nil {
		stBefore = st.Stats()
	}
	start := time.Now()

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				file := in.Files[i]
				if ctx.Err() != nil {
					out[i] = UnitResult{File: file, ParseFail: true, Err: "run cancelled"}
					col.add(&out[i])
					continue
				}
				if in.Cache != nil {
					if r, ok := in.Cache.Get(i); ok {
						out[i] = r
						col.add(&out[i])
						continue
					}
				}
				col.inFlight.Enter()
				r := runUnitSafe(ctx, in.FS, cfg, parser, hc, file)
				if cfg.Quarantine && r.unhealthy() && ctx.Err() == nil {
					retry := runUnitSafe(ctx, in.FS, cfg, parser, hc, file)
					retry.Retried = true
					if retry.unhealthy() {
						retry.Quarantined = true
					}
					r = retry
				}
				col.inFlight.Exit()
				out[i] = r
				if in.Cache != nil {
					in.Cache.Put(i, &out[i])
				}
				col.add(&out[i])
			}
		}()
	}
	for i := range in.Files {
		work <- i
	}
	close(work)
	wg.Wait()

	hits, misses := cgrammar.TableCacheStats()
	m := Metrics{
		Jobs:               jobs,
		Units:              len(out),
		FailedUnits:        int(col.failed.Load()),
		KilledUnits:        int(col.killed.Load()),
		MaxInFlight:        int(col.inFlight.Max()),
		LexTime:            col.lex.Total(),
		PreprocessTime:     col.pre.Total(),
		ParseTime:          col.parse.Total(),
		WallTime:           time.Since(start),
		Forks:              col.forks.Load(),
		Merges:             col.merges.Load(),
		TypedefForks:       col.typedefForks.Load(),
		BDDNodes:           col.bddNodes.Load(),
		FollowHits:         col.followHits.Load(),
		FollowMisses:       col.followMisses.Load(),
		SubparserReuses:    col.spReuses.Load(),
		SubparserAllocs:    col.spAllocs.Load(),
		TokensStreamed:     col.tokStreamed.Load(),
		TokensMaterialized: col.tokMat.Load(),
		StreamFallbacks:    col.streamFallbacks.Load(),
		StreamBytesAvoided: col.tokStreamed.Load() * fmlr.BytesPerStreamedToken,
		BDDOpHits:          col.opHits.Load(),
		BDDOpMisses:        col.opMisses.Load(),
		BDDOpEvictions:     col.opEvictions.Load(),
		CondOps:            col.condOps.Load(),
		CondFastPaths:      col.condFastPaths.Load(),
		BudgetTrips:        int(col.budgetTrips.Load()),
		TripsByAxis:        col.axisTrips.Snapshot(),
		RetriedUnits:       int(col.retried.Load()),
		QuarantinedUnits:   int(col.quarantined.Load()),
		TableCacheHits:     hits,
		TableCacheMisses:   misses,
		TableCacheState:    cgrammar.TableCacheState(),
		HeaderCacheState:   "off",
		StoreState:         "off",
	}
	sort.Strings(col.quarantinedFiles)
	m.Quarantined = col.quarantinedFiles
	if len(cfg.Analyzers) > 0 {
		m.AnalysisPasses = col.anPasses.Load()
		m.AnalysisDiags = col.anDiags.Load()
		m.WitnessChecks = col.anWitChecks.Load()
		m.WitnessFailures = col.anWitFailures.Load()
		m.InfeasibleDropped = col.anInfeasible.Load()
		m.SkippedErrorRegions = col.anErrRegions.Load()
		m.AnalysisByPass = col.anByPass
	}
	if cfg.Link {
		// The join runs once, after the pool drains, over cached and fresh
		// facts in input order — worker scheduling cannot reach it, so the
		// findings are a pure function of the inputs at any Jobs/ParseWorkers
		// combination. link.Link skips the nil facts of failed units.
		facts := make([]*link.Facts, len(out))
		for i := range out {
			facts[i] = out[i].LinkFacts
		}
		var canon *hcache.Canon
		if hc != nil {
			canon = hc.Canon()
		}
		lr := link.Link(facts, canon)
		m.LinkResult = lr
		m.LinkUnits = int64(lr.Stats.Units)
		m.LinkSymbols = int64(lr.Stats.Symbols)
		m.LinkFacts = int64(lr.Stats.Facts)
		m.LinkFindings = int64(lr.Stats.Findings)
		m.LinkSATChecks = int64(lr.Stats.SATChecks)
		m.LinkWitnessChecks = int64(lr.Stats.WitnessChecks)
		m.LinkWitnessFailures = int64(lr.Stats.WitnessFailures)
		m.LinkByFamily = make(map[string]int64, len(lr.Stats.ByFamily))
		for f, n := range lr.Stats.ByFamily {
			m.LinkByFamily[f] = int64(n)
		}
	}
	if hc != nil {
		d := hc.Stats().Sub(hcBefore)
		m.HeaderCacheState = "on"
		m.HeaderCacheHits = d.HeaderHits
		m.HeaderCacheMisses = d.HeaderMisses
		m.HeaderLexHits = d.LexHits
		m.HeaderLexMisses = d.LexMisses
		m.HeaderBytesSaved = d.BytesSaved
		m.HeaderEvictions = d.Evictions
	}
	if st != nil {
		d := st.Stats().Sub(stBefore)
		m.StoreState = "on"
		m.StoreHits = d.Hits
		m.StoreMisses = d.Misses
		m.StoreWrites = d.Writes
		m.StoreEvictions = d.Evictions
		m.StoreCorrupt = d.Corrupt
		m.StoreWriteErrs = d.WriteErrors
		m.StoreReadErrs = d.ReadErrors
		m.StoreDegraded = d.Degraded
	}
	return out, m
}

// testHookUnitStart, when set, runs at the top of every unit (inside the
// panic barrier); tests use it to inject worker panics.
var testHookUnitStart func(file string)

// unhealthy reports whether the unit attempt is worth retrying under
// quarantine semantics: it panicked (Err) or tripped its resource budget.
// Plain parse failures (grammar rejects) are deterministic results, not
// faults, and are never retried.
func (r *UnitResult) unhealthy() bool {
	return r.Err != "" || r.Budget != nil
}

// runUnitSafe is runUnit behind a panic barrier: a poisoned unit (lexer
// panic, grammar bug, injected fault) is recorded as that unit's failure —
// with the unit path and goroutine stack — instead of crashing the whole
// run.
func runUnitSafe(ctx context.Context, fs preprocessor.FileSystem, cfg RunConfig, parser fmlr.Options, hc *hcache.Cache, cf string) (res UnitResult) {
	defer func() {
		if p := recover(); p != nil {
			res = UnitResult{
				File:      cf,
				ParseFail: true,
				Err:       fmt.Sprintf("panic processing %s: %v", cf, p),
				Stack:     string(debug.Stack()),
			}
		}
	}()
	return runUnit(ctx, fs, cfg, parser, hc, cf)
}

func runUnit(ctx context.Context, fs preprocessor.FileSystem, cfg RunConfig, parser fmlr.Options, hc *hcache.Cache, cf string) UnitResult {
	if testHookUnitStart != nil {
		testHookUnitStart(cf)
	}
	// Every unit gets its own budget even when all limits are zero: the
	// budget carries the run context into the stage loop heads, so
	// cancelling the run abandons in-flight units, not just queued ones.
	budget := guard.New(ctx, cfg.Budget)
	faultinject.At(faultinject.PointHarnessUnit, cf, budget)
	parser.Budget = budget
	// Each unit gets a fresh tool so that condition-space growth (BDD node
	// tables, SAT statistics) is attributed per unit, as in the paper's
	// per-compilation-unit latency measurements — and so that units share
	// no mutable state and can run on any worker.
	tool := core.New(cfg.coreConfig(fs, &parser, hc, budget))
	start := time.Now()
	unit, err := tool.Preprocess(cf)
	preTotal := time.Since(start)
	if err != nil {
		return UnitResult{File: cf, ParseFail: true, Err: err.Error(), Budget: budget.Trip()}
	}
	parseStart := time.Now()
	eng := fmlr.New(tool.Space(), cgrammar.MustLoad(), parser)
	parse := eng.ParseUnit(unit)
	parseTime := time.Since(parseStart)
	res := ResultOf(cf, tool.Space(), unit, parse)
	res.ParseTime = parseTime
	res.LexTime = unit.Stats.LexTime
	res.PreTime = preTotal - unit.Stats.LexTime
	res.TotalTime = preTotal + res.ParseTime
	// Analysis and link extraction run under the same per-unit budget: a
	// trip degrades to the work already completed, never hangs the unit.
	au := &analysis.Unit{File: cf, Space: tool.Space(), AST: parse.AST, PP: unit, Budget: budget}
	if len(cfg.Analyzers) > 0 {
		res.Analysis = analysis.Run(au, cfg.Analyzers)
	}
	if cfg.Link && parse.AST != nil {
		res.LinkFacts = analysis.ExtractLinkFacts(au)
	}
	res.Budget = budget.Trip()
	return res
}

// ResultOf records one preprocessed and parsed unit as RunUnits reports it,
// without the timings, analyses and budget outcome the runner adds.
// Conditions are rendered in space, the unit's condition space.
func ResultOf(file string, space *cond.Space, unit *preprocessor.Unit, parse *fmlr.Result) UnitResult {
	res := UnitResult{
		File:      file,
		Bytes:     unit.Stats.Bytes,
		Tokens:    unit.Stats.Tokens,
		Pre:       unit.Stats,
		Parse:     parse.Stats,
		Killed:    parse.Killed,
		ParseFail: parse.AST == nil,
		PreDiags:  unit.Diags,
	}
	for _, d := range parse.Diags {
		res.ParseErrs = append(res.ParseErrs, fmt.Sprintf("%s: parse error under %s: %s",
			d.Tok.Pos(), space.String(d.Cond), d.Msg))
	}
	if parse.AST != nil {
		res.ASTNodes, res.ChoiceNodes = parse.AST.Counts()
	}
	if bf := space.BDD(); bf != nil {
		res.BDDNodes = bf.NumNodes()
		cs := bf.Stats()
		res.BDDOpHits = cs.OpHits
		res.BDDOpMisses = cs.OpMisses
		res.BDDOpEvictions = cs.OpEvictions
		res.BDDTableSlots = cs.TableSlots
	}
	res.CondOps = space.Hot.Ops
	res.CondFastPaths = space.Hot.FastPaths
	return res
}

// NewTool returns one core.Tool configured as RunUnits configures each
// unit's tool, sharing the run's header cache. It is for callers that need
// one live condition space across several units (superc's AST, projection,
// rename and check modes); it attaches no budget.
func NewTool(cfg RunConfig) *core.Tool {
	parser := cfg.parser()
	return core.New(cfg.coreConfig(nil, &parser, cfg.headerCache(), nil))
}

func (cfg RunConfig) coreConfig(fs preprocessor.FileSystem, parser *fmlr.Options, hc *hcache.Cache, budget *guard.Budget) core.Config {
	return core.Config{
		FS:           fs,
		IncludePaths: cfg.IncludePaths,
		CondMode:     cfg.Mode,
		Parser:       parser,
		SingleConfig: cfg.Single,
		Defines:      cfg.Defines,
		HeaderCache:  hc,
		Budget:       budget,
	}
}

// Table2a renders the developer's view of preprocessor usage (paper
// Table 2a): directive counts against lines of code, split between C files
// and headers.
func Table2a(c *corpus.Corpus) string {
	t := c.DeveloperView()
	var b strings.Builder
	pct := func(part, whole int) string {
		if whole == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
	}
	fmt.Fprintf(&b, "Table 2a: developer's view (synthetic corpus)\n")
	fmt.Fprintf(&b, "%-28s %9s %9s %9s\n", "", "Total", "C Files", "Headers")
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "LoC", t.LoC, pct(t.LoC-t.LoCHeaders, t.LoC), pct(t.LoCHeaders, t.LoC))
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "All Directives", t.Directives, pct(t.Directives-t.DirHeaders, t.Directives), pct(t.DirHeaders, t.Directives))
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "#define", t.Defines, pct(t.Defines-t.DefinesHeaders, t.Defines), pct(t.DefinesHeaders, t.Defines))
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "#if, #ifdef, #ifndef", t.Conds, pct(t.Conds-t.CondsHeaders, t.Conds), pct(t.CondsHeaders, t.Conds))
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "#include", t.Includes, pct(t.Includes-t.IncludesHeaders, t.Includes), pct(t.IncludesHeaders, t.Includes))
	return b.String()
}

// Table2b renders the most frequently included headers (paper Table 2b).
func Table2b(c *corpus.Corpus) string {
	counts := c.InclusionCounts()
	type hc struct {
		name string
		n    int
	}
	var list []hc
	for h, n := range counts {
		list = append(list, hc{h, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].name < list[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2b: most frequently included headers\n")
	fmt.Fprintf(&b, "%-36s %s\n", "Header Name", "C Files That Include Header")
	for i, e := range list {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "%-36s %d (%.0f%%)\n", e.name, e.n, 100*float64(e.n)/float64(len(c.CFiles)))
	}
	return b.String()
}

// Table3 renders the tool's view of preprocessor usage (paper Table 3):
// per-construct percentiles (50th · 90th · 100th) across compilation units.
func Table3(results []UnitResult) string {
	row := func(get func(u *preprocessor.UnitStats) int) *stats.Sample {
		s := &stats.Sample{}
		for i := range results {
			s.AddInt(get(&results[i].Pre))
		}
		return s
	}
	type line struct {
		label string
		s     *stats.Sample
	}
	lines := []line{
		{"Macro Definitions", row(func(u *preprocessor.UnitStats) int { return u.MacroDefinitions })},
		{"  Contained in conditionals", row(func(u *preprocessor.UnitStats) int { return u.DefsInConditional })},
		{"  Redefinitions", row(func(u *preprocessor.UnitStats) int { return u.Redefinitions })},
		{"Macro Invocations", row(func(u *preprocessor.UnitStats) int { return u.Invocations })},
		{"  Trimmed", row(func(u *preprocessor.UnitStats) int { return u.TrimmedInvocations })},
		{"  Hoisted", row(func(u *preprocessor.UnitStats) int { return u.HoistedInvocations })},
		{"  Nested invocations", row(func(u *preprocessor.UnitStats) int { return u.NestedInvocations })},
		{"  Built-in macros", row(func(u *preprocessor.UnitStats) int { return u.BuiltinUses })},
		{"Token-Pasting", row(func(u *preprocessor.UnitStats) int { return u.TokenPastings })},
		{"  Hoisted", row(func(u *preprocessor.UnitStats) int { return u.HoistedPastings })},
		{"Stringification", row(func(u *preprocessor.UnitStats) int { return u.Stringifications })},
		{"File Includes", row(func(u *preprocessor.UnitStats) int { return u.Includes })},
		{"  Hoisted", row(func(u *preprocessor.UnitStats) int { return u.HoistedIncludes })},
		{"  Computed includes", row(func(u *preprocessor.UnitStats) int { return u.ComputedIncludes })},
		{"  Reincluded headers", row(func(u *preprocessor.UnitStats) int { return u.ReincludedHeaders })},
		{"Static Conditionals", row(func(u *preprocessor.UnitStats) int { return u.Conditionals })},
		{"  Max. depth", row(func(u *preprocessor.UnitStats) int { return u.MaxCondDepth })},
		{"  With non-boolean expressions", row(func(u *preprocessor.UnitStats) int { return u.NonBooleanExprs })},
		{"Error Directives", row(func(u *preprocessor.UnitStats) int { return u.ErrorDirectives })},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: tool's view — percentiles across compilation units (50th · 90th · 100th)\n")
	for _, l := range lines {
		fmt.Fprintf(&b, "%-34s %s\n", l.label, l.s.Table3Row())
	}
	// Parser-side rows of Table 3.
	decls := &stats.Sample{}
	typedefForks := &stats.Sample{}
	for i := range results {
		decls.AddInt(results[i].ChoiceNodes)
		typedefForks.AddInt(results[i].Parse.TypedefForks)
	}
	fmt.Fprintf(&b, "%-34s %s\n", "C Constructs w/ choice nodes", decls.Table3Row())
	fmt.Fprintf(&b, "%-34s %s\n", "Ambiguously defined names", typedefForks.Table3Row())
	return b.String()
}

// Level is one Figure 8 optimization level.
type Level struct {
	Name string
	Opts fmlr.Options
}

// Levels are Figure 8a's rows, in the paper's order.
var Levels = []Level{
	{"Shared, Lazy, & Early", fmlr.OptAll},
	{"Shared & Lazy", fmlr.OptSharedLazy},
	{"Shared", fmlr.OptShared},
	{"Lazy", fmlr.OptLazy},
	{"Follow-Set Only", fmlr.OptFollowOnly},
	{"MAPR & Largest First", fmlr.OptMAPRLargest},
	{"MAPR", fmlr.OptMAPR},
}

// Figure8Row is one optimization level's aggregate subparser statistics.
type Figure8Row struct {
	Name        string
	P99         int
	Max         int
	KilledUnits int
	TotalUnits  int
}

// Figure8 measures subparser counts per main-loop iteration for every
// optimization level (paper Figure 8a), each level a run of base.
func Figure8(c *corpus.Corpus, base RunConfig, killSwitch int) []Figure8Row {
	var rows []Figure8Row
	for _, lv := range Levels {
		agg, killed, total := levelSample(c, base, lv, killSwitch)
		rows = append(rows, Figure8Row{
			Name:        lv.Name,
			P99:         int(agg.Percentile(0.99)),
			Max:         int(agg.Max()),
			KilledUnits: killed,
			TotalUnits:  total,
		})
	}
	return rows
}

// levelSample runs base at one optimization level and pools the subparser
// counts of every iteration of every unit that stayed under the kill switch.
func levelSample(c *corpus.Corpus, base RunConfig, lv Level, killSwitch int) (agg *stats.Sample, killed, total int) {
	base.Parser = lv.Opts
	base.Parser.KillSwitch = killSwitch
	results := Run(c, base)
	agg = &stats.Sample{}
	for i := range results {
		if results[i].Killed {
			killed++
			continue
		}
		for count, iters := range results[i].Parse.SubparserHist {
			for k := 0; k < iters; k++ {
				agg.AddInt(count)
			}
		}
	}
	return agg, killed, len(results)
}

// RenderFigure8a prints Figure 8a's table.
func RenderFigure8a(rows []Figure8Row, killSwitch int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8a: subparser counts per FMLR loop iteration\n")
	fmt.Fprintf(&b, "%-24s %8s %8s\n", "Optimization Level", "99th %", "Max.")
	for _, r := range rows {
		if r.KilledUnits > 0 {
			fmt.Fprintf(&b, "%-24s  >%d on %d%% of comp. units\n",
				r.Name, killSwitch, 100*r.KilledUnits/r.TotalUnits)
			continue
		}
		fmt.Fprintf(&b, "%-24s %8d %8d\n", r.Name, r.P99, r.Max)
	}
	return b.String()
}

// Figure8b returns, per level, the cumulative distribution of subparser
// counts (paper Figure 8b). The MAPR rows are omitted: their distributions
// are dominated by kill-switch aborts (see Figure 8a), and Figure 8b's
// point in the paper is the separation between the FMLR levels.
func Figure8b(c *corpus.Corpus, base RunConfig, killSwitch, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8b: cumulative distribution of subparser counts per iteration\n")
	for _, lv := range Levels {
		if lv.Opts.NoChoiceMerge {
			continue // MAPR baselines: see Figure 8a
		}
		agg, killed, total := levelSample(c, base, lv, killSwitch)
		if killed == total {
			fmt.Fprintf(&b, "%s: all units exceeded the kill switch\n", lv.Name)
			continue
		}
		fmt.Fprintf(&b, "%s", stats.RenderCDF(lv.Name, agg, points))
	}
	return b.String()
}

// Figure9 compares per-unit latency between SuperC (BDD conditions, all
// optimizations) and the TypeChef baseline (SAT conditions, follow-set
// only), as in paper Figure 9.
type Figure9Result struct {
	SuperC   *stats.Sample // seconds per unit
	TypeChef *stats.Sample
}

// Figure9 runs both tools over the corpus as arms of base.
func Figure9(c *corpus.Corpus, base RunConfig) Figure9Result {
	superc := Run(c, arm(base, cond.ModeBDD, fmlr.OptAll))
	chef := Run(c, arm(base, cond.ModeSAT, fmlr.OptFollowOnly))
	r := Figure9Result{SuperC: &stats.Sample{}, TypeChef: &stats.Sample{}}
	for i := range superc {
		r.SuperC.AddDuration(superc[i].TotalTime)
	}
	for i := range chef {
		r.TypeChef.AddDuration(chef[i].TotalTime)
	}
	return r
}

// arm is base with the given condition representation and parser level.
func arm(base RunConfig, mode cond.Mode, parser fmlr.Options) RunConfig {
	base.Mode, base.Parser = mode, parser
	return base
}

// RenderFigure9 prints the latency comparison in the paper's style.
func RenderFigure9(r Figure9Result, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: latency per compilation unit\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %12s %12s\n", "tool", "p50", "p80", "p99", "max", "total")
	row := func(name string, s *stats.Sample) {
		fmt.Fprintf(&b, "%-10s %9.3fms %9.3fms %9.3fms %10.3fms %10.3fms\n", name,
			1e3*s.Percentile(0.5), 1e3*s.Percentile(0.8), 1e3*s.Percentile(0.99),
			1e3*s.Max(), 1e3*s.Sum())
	}
	row("SuperC", r.SuperC)
	row("TypeChef", r.TypeChef)
	if r.SuperC.Percentile(0.5) > 0 {
		fmt.Fprintf(&b, "speedup: p50 %.1fx, p80 %.1fx, max %.1fx\n",
			r.TypeChef.Percentile(0.5)/r.SuperC.Percentile(0.5),
			r.TypeChef.Percentile(0.8)/r.SuperC.Percentile(0.8),
			r.TypeChef.Max()/r.SuperC.Max())
	}
	b.WriteString(stats.RenderCDF("SuperC latency CDF (s)", r.SuperC, points))
	b.WriteString(stats.RenderCDF("TypeChef latency CDF (s)", r.TypeChef, points))
	return b.String()
}

// Figure10 renders the SuperC latency breakdown by stage against
// compilation-unit size (paper Figure 10), measured in a run of base.
func Figure10(c *corpus.Corpus, base RunConfig) string {
	results := Run(c, arm(base, cond.ModeBDD, fmlr.OptAll))
	sort.Slice(results, func(i, j int) bool { return results[i].Bytes < results[j].Bytes })
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: SuperC latency breakdown per compilation unit (sorted by size)\n")
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %10s %10s\n", "unit", "bytes", "lex(ms)", "preproc(ms)", "parse(ms)", "total(ms)")
	for i := range results {
		r := &results[i]
		fmt.Fprintf(&b, "%-20s %10d %10.3f %10.3f %10.3f %10.3f\n",
			r.File, r.Bytes,
			r.LexTime.Seconds()*1e3, r.PreTime.Seconds()*1e3,
			r.ParseTime.Seconds()*1e3, r.TotalTime.Seconds()*1e3)
	}
	return b.String()
}

// GccBaseline measures single-configuration processing (the paper's gcc
// comparison: one branch per conditional, concrete macro table) as an arm
// of base.
func GccBaseline(c *corpus.Corpus, base RunConfig, defines map[string]string) (*stats.Sample, []UnitResult) {
	base.Parser, base.Single, base.Defines = fmlr.OptAll, true, defines
	results := Run(c, base)
	s := &stats.Sample{}
	for i := range results {
		s.AddDuration(results[i].TotalTime)
	}
	return s, results
}

// RenderGcc prints the single-configuration comparison.
func RenderGcc(c *corpus.Corpus, base RunConfig) string {
	single, _ := GccBaseline(c, base, map[string]string{"CONFIG_64BIT": "1", "CONFIG_KERNEL_MODE": "1"})
	full := Run(c, arm(base, cond.ModeBDD, fmlr.OptAll))
	fullS := &stats.Sample{}
	for i := range full {
		fullS.AddDuration(full[i].TotalTime)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gcc-like single-configuration baseline vs configuration-preserving SuperC\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s\n", "", "p50", "p90", "max")
	fmt.Fprintf(&b, "%-22s %8.3fms %8.3fms %8.3fms\n", "single-configuration",
		1e3*single.Percentile(0.5), 1e3*single.Percentile(0.9), 1e3*single.Max())
	fmt.Fprintf(&b, "%-22s %8.3fms %8.3fms %8.3fms\n", "config-preserving",
		1e3*fullS.Percentile(0.5), 1e3*fullS.Percentile(0.9), 1e3*fullS.Max())
	if single.Percentile(0.5) > 0 {
		fmt.Fprintf(&b, "slowdown of preservation: p50 %.1fx, p90 %.1fx, max %.1fx\n",
			fullS.Percentile(0.5)/single.Percentile(0.5),
			fullS.Percentile(0.9)/single.Percentile(0.9),
			fullS.Max()/single.Max())
	}
	return b.String()
}
