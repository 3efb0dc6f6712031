// Command fmlrbench reproduces the paper's parser experiments (§6.2-6.3):
// Figure 8's subparser counts per optimization level, Figure 9's SuperC vs
// TypeChef latency comparison, Figure 10's stage breakdown, and the gcc-like
// single-configuration baseline.
//
// Units are processed by the parallel harness (-j workers, GOMAXPROCS by
// default); the C parse tables are loaded from the on-disk cache after the
// first run (-no-table-cache rebuilds them instead). A per-stage metrics
// snapshot for one instrumented sweep is printed at the end.
//
// -cpuprofile/-memprofile write pprof profiles of whatever the invocation
// ran; -bench-json measures the lexer per token and the parse stage per
// optimization level with testing.Benchmark and writes the machine-readable
// baseline documented in EXPERIMENTS.md (§"Parse-stage benchmark baseline").
//
// Usage:
//
//	fmlrbench                 # every figure, default corpus
//	fmlrbench -fig 8a         # one figure
//	fmlrbench -fig 9 -cfiles 120
//	fmlrbench -j 1            # sequential (for speedup comparisons)
//	fmlrbench -fig 8a -cpuprofile cpu.out
//	fmlrbench -bench-json BENCH_parse.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis/passes"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/hcache"
	"repro/internal/lexer"
	"repro/internal/preprocessor"
	"repro/internal/stats"
	"repro/internal/store"
)

func main() {
	fig := flag.String("fig", "all", "which figure to run: 8a, 8b, 9, 10, gcc, or all")
	seed := flag.Int64("seed", 1, "corpus seed")
	cfiles := flag.Int("cfiles", 24, "number of compilation units")
	headers := flag.Int("headers", 24, "number of generated headers")
	kill := flag.Int("kill", 1000, "subparser kill switch for the MAPR rows")
	points := flag.Int("points", 10, "CDF resolution")
	startProfile := harness.FlagProfile(flag.CommandLine)
	benchJSON := flag.String("bench-json", "", "skip the figures; benchmark the lexer and the parse stage per optimization level and write the JSON baseline to this file")
	storeDir := flag.String("store", "", "artifact store directory for the -bench-json warm-run measurement (empty: a throwaway temp dir)")
	quarantine := flag.Bool("quarantine", false, "retry failed or budget-tripped units once, then quarantine")
	runConfig := harness.FlagRunConfig(flag.CommandLine)
	flag.Parse()

	base := runConfig()
	base.Quarantine = *quarantine

	stopProfile, err := startProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfile()

	c := corpus.Generate(corpus.Params{Seed: *seed, CFiles: *cfiles, GenHeaders: *headers})

	if *benchJSON != "" {
		if err := runBenchJSON(c, base, *kill, *benchJSON, *storeDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
		return
	}

	if *fig == "all" || *fig == "8a" {
		rows := harness.Figure8(c, base, *kill)
		fmt.Println(harness.RenderFigure8a(rows, *kill))
	}
	if *fig == "all" || *fig == "8b" {
		fmt.Println(harness.Figure8b(c, base, *kill, *points))
	}
	if *fig == "all" || *fig == "9" {
		// The SAT-backed baseline's tail units take minutes each (the knee
		// itself); run both arms on a 12-unit slice so the comparison stays
		// interactive. Pass -cfiles to change the overall corpus size.
		c9 := c
		if len(c.CFiles) > 12 {
			c9 = &corpus.Corpus{Params: c.Params, FS: c.FS, CFiles: c.CFiles[:12], Headers: c.Headers}
		}
		fmt.Println(harness.RenderFigure9(harness.Figure9(c9, base), *points))
	}
	if *fig == "all" || *fig == "10" {
		fmt.Println(harness.Figure10(c, base))
	}
	if *fig == "all" || *fig == "gcc" {
		fmt.Println(harness.RenderGcc(c, base))
	}

	// One instrumented sweep for the per-stage observability snapshot
	// (units in flight, stage wall time, forks/merges, BDD nodes, table
	// cache hit/miss, hot-path cache effectiveness).
	_, m := harness.RunMetered(context.Background(), c, base)
	fmt.Print(m)
}

// benchLevel is one optimization level's entry in the BENCH_parse.json
// baseline. One "op" is a full parse pass over the corpus (preprocessing
// excluded — segments are prepared outside the timed region).
type benchLevel struct {
	Level         string `json:"level"`
	NsPerOp       int64  `json:"ns_per_op"`
	AllocsPerOp   int64  `json:"allocs_per_op"`
	BytesPerOp    int64  `json:"bytes_per_op"`
	MaxSubparsers int    `json:"max_subparsers"`
	P99Subparsers int    `json:"p99_subparsers"`
	KilledUnits   int    `json:"killed_units"`
	Units         int    `json:"units"`
}

// benchRobustness summarizes the governed harness sweep that runs alongside
// the parse benchmark: budget trips per axis, retries, and quarantined
// units. Limits come from -timeout/-budget-*; all-zero counts mean the
// sweep ran ungoverned and nothing tripped.
type benchRobustness struct {
	BudgetTrips      int              `json:"budget_trips"`
	TripsByAxis      map[string]int64 `json:"trips_by_axis,omitempty"`
	RetriedUnits     int              `json:"retried_units"`
	QuarantinedUnits int              `json:"quarantined_units"`
	Quarantined      []string         `json:"quarantined,omitempty"`
}

// benchAnalysis summarizes the variability analysis that rides along the
// instrumented sweep: passes run, diagnostics per pass, the independent SAT
// witness checks, and how many opaque _Error regions the passes skipped.
type benchAnalysis struct {
	PassesRun           int64            `json:"passes_run"`
	Diagnostics         int64            `json:"diagnostics"`
	DiagsByPass         map[string]int64 `json:"diags_by_pass,omitempty"`
	WitnessChecks       int64            `json:"witness_checks"`
	WitnessFailures     int64            `json:"witness_failures"`
	InfeasibleDropped   int64            `json:"infeasible_dropped"`
	SkippedErrorRegions int64            `json:"skipped_error_regions"`
}

// benchStore measures the on-disk artifact store: a cold sweep writes the
// header artifacts, then a warm sweep with a fresh in-memory cache reads
// them back. WarmHitRate is hits/(hits+misses) for store Gets during the
// warm sweep; wall times are end-to-end for each RunMetered call.
type benchStore struct {
	Dir            string  `json:"dir"`
	ColdWallMS     int64   `json:"cold_wall_ms"`
	WarmWallMS     int64   `json:"warm_wall_ms"`
	ColdWrites     int64   `json:"cold_writes"`
	WarmStoreHits  int64   `json:"warm_store_hits"`
	WarmStoreMiss  int64   `json:"warm_store_misses"`
	WarmHitRate    float64 `json:"warm_hit_rate"`
	ArtifactBytes  int64   `json:"artifact_bytes"`
	ArtifactCount  int64   `json:"artifact_count"`
	CorruptDropped int64   `json:"corrupt_dropped"`
}

// benchParallelPoint is one worker count's measurement on the giant unit.
// Speedup is sequential ns/op over this point's ns/op; workers=1 runs the
// plain sequential engine (the region-parallel path is bypassed), so its
// row doubles as the no-regression baseline for ordinary parses.
type benchParallelPoint struct {
	Workers int     `json:"workers"`
	NsPerOp int64   `json:"ns_per_op"`
	Speedup float64 `json:"speedup_vs_sequential"`
}

// benchParallel records the intra-unit scaling curve: one generated unit
// large enough that region parallelism, not the per-unit pool, determines
// wall time, parsed at increasing -parse-workers counts.
type benchParallel struct {
	Seed   int64                `json:"seed"`
	Items  int                  `json:"items"`
	Tokens int                  `json:"tokens"`
	Points []benchParallelPoint `json:"points"`
}

// benchStreaming records the stream-fused pipeline (preprocessor chunks
// feeding the engine's cursor fast path) on the corpus, parse stage only,
// at the default optimization level. StreamShare is the fraction of tokens
// the cursor gear consumed in place; CI's bench-smoke ratchet
// (TestStreamSpeedRatchet in internal/fmlr) times the pipeline in-process
// against the test-only reference parse and fails if it regresses more
// than 10% against it.
type benchStreaming struct {
	StreamNsPerOp      int64   `json:"stream_ns_per_op"`
	TokensStreamed     int64   `json:"tokens_streamed"`
	TokensMaterialized int64   `json:"tokens_materialized"`
	StreamFallbacks    int64   `json:"stream_fallbacks"`
	StreamShare        float64 `json:"stream_share"`
}

// benchLayers holds per-layer costs, normalized per token so layers and
// input sizes compare directly.
type benchLayers struct {
	Lexer []benchLexPoint `json:"lexer"`
}

// benchLexPoint is lexer.Lex over one input: every file of the benchmark
// corpus, or one generated giant unit.
type benchLexPoint struct {
	Input          string  `json:"input"`
	Files          int     `json:"files"`
	Bytes          int     `json:"bytes"`
	Tokens         int     `json:"tokens"`
	NsPerToken     float64 `json:"ns_per_token"`
	AllocsPerToken float64 `json:"allocs_per_token"`
	BytesPerToken  float64 `json:"bytes_per_token"`
}

// benchMachine names the machine a baseline was measured on, so numbers
// from different machines are never compared by accident.
type benchMachine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// thisMachine stamps the running machine. CPU is the first "model name" in
// /proc/cpuinfo, or "unknown" where that file does not exist.
func thisMachine() benchMachine {
	m := benchMachine{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

type benchFile struct {
	Schema     string          `json:"schema"`
	Machine    benchMachine    `json:"machine"`
	CorpusSeed int64           `json:"corpus_seed"`
	CFiles     int             `json:"cfiles"`
	Headers    int             `json:"headers"`
	KillSwitch int             `json:"kill_switch"`
	Layers     benchLayers     `json:"layers"`
	Levels     []benchLevel    `json:"levels"`
	Streaming  benchStreaming  `json:"streaming"`
	Parallel   benchParallel   `json:"parallel"`
	Robustness benchRobustness `json:"robustness"`
	Analysis   benchAnalysis   `json:"analysis"`
	Store      benchStore      `json:"store"`
}

// runBenchJSON measures the parse stage at every optimization level and
// writes the machine-readable baseline. Preprocessing runs once, outside
// the measurement; each level then re-parses the prepared segments under
// testing.Benchmark for calibrated ns/op and allocs/op.
func runBenchJSON(c *corpus.Corpus, base harness.RunConfig, kill int, path, storeDir string) error {
	lang := cgrammar.MustLoad()
	tool := core.New(core.Config{FS: c.FS, IncludePaths: harness.IncludePaths})
	units := make([]*preprocessor.Unit, 0, len(c.CFiles))
	for _, cf := range c.CFiles {
		u, err := tool.Preprocess(cf)
		if err != nil {
			return fmt.Errorf("preprocess %s: %w", cf, err)
		}
		units = append(units, u)
	}
	out := benchFile{
		Schema:     "fmlrbench/bench-parse/v2",
		Machine:    thisMachine(),
		CorpusSeed: c.Params.Seed,
		CFiles:     len(c.CFiles),
		Headers:    c.Params.GenHeaders,
		KillSwitch: kill,
		Levels:     make([]benchLevel, 0, len(harness.Levels)),
	}
	lex, err := runBenchLexer(c)
	if err != nil {
		return err
	}
	out.Layers.Lexer = lex
	for _, p := range lex {
		fmt.Printf("lexer: %-12s %8d tokens %8.1f ns/token %8.4f allocs/token %8.1f B/token\n",
			p.Input, p.Tokens, p.NsPerToken, p.AllocsPerToken, p.BytesPerToken)
	}
	for _, lv := range harness.Levels {
		opts := lv.Opts
		opts.KillSwitch = kill
		// Untimed pass for the subparser-population statistics.
		agg := &stats.Sample{}
		maxSub, killed := 0, 0
		for _, u := range units {
			res := fmlr.New(tool.Space(), lang, opts).ParseUnit(u)
			if res.Killed {
				killed++
				continue
			}
			if res.Stats.MaxSubparsers > maxSub {
				maxSub = res.Stats.MaxSubparsers
			}
			for count, iters := range res.Stats.SubparserHist {
				for k := 0; k < iters; k++ {
					agg.AddInt(count)
				}
			}
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, u := range units {
					fmlr.New(tool.Space(), lang, opts).ParseUnit(u)
				}
			}
		})
		entry := benchLevel{
			Level:         lv.Name,
			NsPerOp:       r.NsPerOp(),
			AllocsPerOp:   r.AllocsPerOp(),
			BytesPerOp:    r.AllocedBytesPerOp(),
			MaxSubparsers: maxSub,
			P99Subparsers: int(agg.Percentile(0.99)),
			KilledUnits:   killed,
			Units:         len(units),
		}
		out.Levels = append(out.Levels, entry)
		fmt.Printf("%-24s %12d ns/op %10d allocs/op %8d peak subparsers (%d killed)\n",
			lv.Name, entry.NsPerOp, entry.AllocsPerOp, entry.MaxSubparsers, entry.KilledUnits)
	}
	// The streaming pipeline's flow and parse time over the units prepared
	// above; preprocessing is outside the timed region.
	streamOpts := fmlr.OptAll
	streamOpts.KillSwitch = kill
	var flow fmlr.Stats
	for _, u := range units {
		res := fmlr.New(tool.Space(), lang, streamOpts).ParseUnit(u)
		flow.TokensStreamed += res.Stats.TokensStreamed
		flow.TokensMaterialized += res.Stats.TokensMaterialized
		flow.StreamFallbacks += res.Stats.StreamFallbacks
	}
	streamNs := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				fmlr.New(tool.Space(), lang, streamOpts).ParseUnit(u)
			}
		}
	}).NsPerOp()
	split := flow.TokensStreamed + flow.TokensMaterialized
	if split == 0 {
		split = 1
	}
	out.Streaming = benchStreaming{
		StreamNsPerOp:      streamNs,
		TokensStreamed:     int64(flow.TokensStreamed),
		TokensMaterialized: int64(flow.TokensMaterialized),
		StreamFallbacks:    int64(flow.StreamFallbacks),
		StreamShare:        float64(flow.TokensStreamed) / float64(split),
	}
	fmt.Printf("streaming: %12d ns/op (%.0f%% of tokens streamed, %d fallbacks)\n",
		streamNs, out.Streaming.StreamShare*100, flow.StreamFallbacks)

	par, err := runBenchParallel(lang)
	if err != nil {
		return err
	}
	out.Parallel = par
	for _, p := range par.Points {
		fmt.Printf("parallel: workers=%d %12d ns/op  %.2fx\n", p.Workers, p.NsPerOp, p.Speedup)
	}
	// A governed instrumented sweep contributes the robustness counters
	// (budget trips, retries, quarantine), under whatever -timeout/-budget-*
	// limits and -quarantine setting the invocation carries, plus the
	// analysis counters (the passes run over every unit in this sweep).
	governed := base
	governed.Parser.KillSwitch = kill
	governed.Analyzers = passes.All()
	_, m := harness.RunMetered(context.Background(), c, governed)
	out.Robustness = benchRobustness{
		BudgetTrips:      m.BudgetTrips,
		RetriedUnits:     m.RetriedUnits,
		QuarantinedUnits: m.QuarantinedUnits,
		Quarantined:      m.Quarantined,
	}
	for a, n := range m.TripsByAxis {
		if n > 0 {
			if out.Robustness.TripsByAxis == nil {
				out.Robustness.TripsByAxis = map[string]int64{}
			}
			out.Robustness.TripsByAxis[guard.Axis(a).String()] = n
		}
	}
	out.Analysis = benchAnalysis{
		PassesRun:           m.AnalysisPasses,
		Diagnostics:         m.AnalysisDiags,
		WitnessChecks:       m.WitnessChecks,
		WitnessFailures:     m.WitnessFailures,
		InfeasibleDropped:   m.InfeasibleDropped,
		SkippedErrorRegions: m.SkippedErrorRegions,
	}
	for n, v := range m.AnalysisByPass {
		if v > 0 {
			if out.Analysis.DiagsByPass == nil {
				out.Analysis.DiagsByPass = map[string]int64{}
			}
			out.Analysis.DiagsByPass[n] = v
		}
	}
	fmt.Printf("robustness: %d budget trips, %d retried, %d quarantined\n",
		m.BudgetTrips, m.RetriedUnits, m.QuarantinedUnits)
	fmt.Printf("analysis: %d passes, %d diagnostics, %d witness checks (%d failed)\n",
		m.AnalysisPasses, m.AnalysisDiags, m.WitnessChecks, m.WitnessFailures)

	st, err := benchStoreSweep(c, base, kill, storeDir)
	if err != nil {
		return err
	}
	out.Store = st
	fmt.Printf("store: cold %d ms (%d writes), warm %d ms (%.0f%% hit rate, %d hits / %d misses)\n",
		st.ColdWallMS, st.ColdWrites, st.WarmWallMS, st.WarmHitRate*100, st.WarmStoreHits, st.WarmStoreMiss)

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// runBenchLexer times lexer.Lex over the corpus files and over the giant
// unit at two sizes, so a per-token cost that grows with file size shows.
func runBenchLexer(c *corpus.Corpus) ([]benchLexPoint, error) {
	const seed = 42
	inputs := []struct {
		name  string
		files map[string]string
	}{
		{"corpus", c.FS},
		{"giant-i450", map[string]string{"giant.c": corpus.GiantUnit(seed, 450)}},
		{"giant-i3600", map[string]string{"giant.c": corpus.GiantUnit(seed, 3600)}},
	}
	var out []benchLexPoint
	for _, in := range inputs {
		names := make([]string, 0, len(in.files))
		srcs := make([][]byte, 0, len(in.files))
		p := benchLexPoint{Input: in.name, Files: len(in.files)}
		for name, body := range in.files {
			names = append(names, name)
			srcs = append(srcs, []byte(body))
			p.Bytes += len(body)
			toks, err := lexer.Lex(name, srcs[len(srcs)-1])
			if err != nil {
				return nil, fmt.Errorf("lex %s: %w", name, err)
			}
			p.Tokens += len(toks)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, src := range srcs {
					lexer.Lex(names[j], src)
				}
			}
		})
		tokens := float64(p.Tokens)
		p.NsPerToken = float64(r.NsPerOp()) / tokens
		p.AllocsPerToken = float64(r.AllocsPerOp()) / tokens
		p.BytesPerToken = float64(r.AllocedBytesPerOp()) / tokens
		out = append(out, p)
	}
	return out, nil
}

// runBenchParallel measures the intra-unit scaling curve on the same giant
// generated unit BenchmarkParseGiantUnit uses. Preprocessing runs once per
// worker count (each parse family shares one condition space with its
// preprocessor output); only the parse is timed.
func runBenchParallel(lang *cgrammar.C) (benchParallel, error) {
	const seed, items = 42, 3600
	src := corpus.GiantUnit(seed, items)
	out := benchParallel{Seed: seed, Items: items}
	var seqNs int64
	for _, w := range []int{1, 2, 4, 8} {
		space := cond.NewSpace(cond.ModeBDD)
		pp := preprocessor.New(preprocessor.Options{
			Space: space,
			FS:    preprocessor.MapFS(map[string]string{"giant.c": src}),
		})
		u, err := pp.Preprocess("giant.c")
		if err != nil {
			return out, fmt.Errorf("preprocess giant unit: %w", err)
		}
		out.Tokens = u.Stats.Tokens
		opts := fmlr.OptAll
		opts.ParseWorkers = w
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := fmlr.New(space, lang, opts).ParseUnit(u); res.AST == nil {
					b.Fatalf("giant unit failed to parse at workers=%d", w)
				}
			}
		})
		p := benchParallelPoint{Workers: w, NsPerOp: r.NsPerOp()}
		if w == 1 {
			seqNs = p.NsPerOp
		}
		if p.NsPerOp > 0 {
			p.Speedup = float64(seqNs) / float64(p.NsPerOp)
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// benchStoreSweep measures the artifact store's cold/warm behavior: one
// sweep against an empty (or existing) store populates the header
// artifacts, then a second sweep with a fresh in-memory header cache —
// simulating a process restart — replays them from disk. An empty dir uses
// a throwaway temp directory so the measurement never pollutes a real
// store.
func benchStoreSweep(c *corpus.Corpus, base harness.RunConfig, kill int, dir string) (benchStore, error) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "fmlrbench-store-")
		if err != nil {
			return benchStore{}, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return benchStore{}, err
	}
	sweep := func() time.Duration {
		hc := hcache.New(hcache.Options{
			Backing: store.NewHeaderBacking(st, preprocessor.PayloadCodec()),
		})
		cfg := base
		cfg.Parser.KillSwitch = kill
		cfg.HeaderCache = hc
		start := time.Now()
		harness.RunMetered(context.Background(), c, cfg)
		return time.Since(start)
	}
	before := st.Stats()
	coldWall := sweep()
	afterCold := st.Stats()
	warmWall := sweep()
	afterWarm := st.Stats()

	cold := afterCold.Sub(before)
	warm := afterWarm.Sub(afterCold)
	out := benchStore{
		Dir:            dir,
		ColdWallMS:     coldWall.Milliseconds(),
		WarmWallMS:     warmWall.Milliseconds(),
		ColdWrites:     cold.Writes,
		WarmStoreHits:  warm.Hits,
		WarmStoreMiss:  warm.Misses,
		ArtifactBytes:  afterWarm.Bytes,
		ArtifactCount:  afterWarm.Entries,
		CorruptDropped: afterWarm.Corrupt,
	}
	if total := warm.Hits + warm.Misses; total > 0 {
		out.WarmHitRate = float64(warm.Hits) / float64(total)
	}
	return out, nil
}
