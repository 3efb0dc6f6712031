package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cgrammar"
	"repro/internal/core"
	"repro/internal/fmlr"
	"repro/internal/lexer"
	"repro/internal/link"
	"repro/internal/store"
)

// probeSeconds is the daemon phase of a traced run on the workloads that
// do not drive the daemon themselves: long enough for both endpoints'
// medians, short enough to keep the traced run near an untraced one.
const probeSeconds = 3 * time.Second

// probeCgrammar is the fresh process the cgrammar metrics need: the parse
// tables are a process-wide singleton, so only a new process pays their
// build (empty dir) or load (warm dir). It prints MustLoad's nanoseconds.
func probeCgrammar(dir string) {
	cgrammar.SetTableCacheDir(dir)
	start := time.Now()
	cgrammar.MustLoad()
	fmt.Println(time.Since(start).Nanoseconds())
}

// cgrammarMS times MustLoad in fresh processes, first with an empty cache
// dir (the table build), then with the dir that build wrote (the load).
func (r *run) cgrammarMS(ctx context.Context) (build, load float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	probe := func(dir string) (float64, error) {
		out, err := exec.CommandContext(ctx, self, "-probe-cgrammar", dir).Output()
		if err != nil {
			return 0, fmt.Errorf("cgrammar probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		return float64(ns) / 1e6, err
	}
	var builds, loads []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("tables-probe-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return 0, 0, err
		}
		b, err := probe(dir)
		if err != nil {
			return 0, 0, err
		}
		l, err := probe(dir)
		if err != nil {
			return 0, 0, err
		}
		builds, loads = append(builds, b), append(loads, l)
	}
	return median(builds), median(loads), nil
}

// traced is the per-layer run. It is the same sweep on every workload, so
// every layer metric is measured on each: the corpus units through every
// layer clint calls (untraced, traced, untraced again, for the tracing
// overhead), the lexer and the uncached preprocessor over the same tree,
// the facts codec and the store, the giant size sweep, and a daemon phase —
// the workload's own timed phase on daemon, a short probe elsewhere.
func (r *run) traced(ctx context.Context, in *inputs) error {
	t := in.corpus
	tr := newTracer()
	ns := func(d time.Duration, per int) float64 { return float64(d.Nanoseconds()) / float64(max(per, 1)) }

	build, load, err := r.cgrammarMS(ctx)
	if err != nil {
		return err
	}
	r.set("cgrammar.build_ms", build, "ms", 3)
	r.set("cgrammar.load_ms", load, "ms", 3)

	lexed := 0
	for _, f := range sortedKeys(t.fs) {
		sp := tr.begin("lexer", f, 0)
		toks, err := lexer.Lex(f, []byte(t.fs[f]))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("lex %s: %w", f, err)
		}
		lexed += len(toks)
	}

	before, err := r.pipeline(nil, t)
	if err != nil {
		return err
	}
	res, err := r.pipeline(tr, t)
	if err != nil {
		return err
	}
	after, err := r.pipeline(nil, t)
	if err != nil {
		return err
	}
	untraced := (before.wall + after.wall).Seconds() / 2

	for _, file := range t.units {
		sp := tr.begin("preprocessor.nocache", file, 0)
		_, err := core.New(core.Config{FS: t.fs, IncludePaths: t.includes}).Preprocess(file)
		tr.end(sp)
		if err != nil {
			return err
		}
	}

	st, err := store.Open(filepath.Join(r.dir, "store-inproc"), store.Options{})
	if err != nil {
		return err
	}
	for _, u := range res.units {
		sp := tr.begin("link.encode", u.file, 0)
		enc, err := u.facts.Encode()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("link.decode", u.file, 0)
		dec, err := link.DecodeFacts(enc)
		tr.end(sp)
		r.attempted++
		if err != nil {
			r.fail("%s: decode facts: %v", u.file, err)
		} else if again, err := dec.Encode(); err != nil || string(again) != string(enc) {
			r.fail("%s: facts do not survive an encode/decode round trip", u.file)
		}
		sp = tr.begin("store.put", u.file, 0)
		st.Put("bench", u.file, enc)
		tr.end(sp)
		sp = tr.begin("store.get", u.file, 0)
		got, ok := st.Get("bench", u.file)
		tr.end(sp)
		if !ok || string(got) != string(enc) {
			r.fail("%s: store returned other bytes than were put", u.file)
		}
	}

	if err := r.giantSweep(tr, in.giant); err != nil {
		return err
	}

	probe, minReqs := probeSeconds, int64(0)
	if r.workload == "daemon" {
		probe, minReqs = r.seconds, 100*minBeyond
	}
	dr, err := r.daemonPhase(ctx, t, probe, minReqs, tr)
	if err != nil {
		return err
	}
	r.checkRequests(dr, t, res.wantDiags)
	r.gccGate(ctx, in)

	// Everything below reads the finished trace.
	if err := os.MkdirAll(filepath.Join(".bench_build", "traces"), 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))); err != nil {
		return err
	}
	spans := newSpanTree(tr.spans)
	tokens := t.totalTokens(t.units)
	units := len(t.units)

	r.set("lexer.ns_per_token", ns(spans.selfTotal("lexer"), lexed), "ns", lexed)
	r.set("preprocessor.ns_per_token", ns(spans.selfTotal("preprocessor"), tokens), "ns", units)
	r.set("preprocessor.nocache_ns_per_token", ns(spans.selfTotal("preprocessor.nocache"), tokens), "ns", units)
	hc := res.hc
	r.set("hcache.hit_ratio", ratio(hc.HeaderHits, hc.HeaderHits+hc.HeaderMisses), "ratio", int(hc.HeaderHits+hc.HeaderMisses))
	r.set("hcache.lex_hit_ratio", ratio(hc.LexHits, hc.LexHits+hc.LexMisses), "ratio", int(hc.LexHits+hc.LexMisses))

	var streamed, materialized, forks, merges, maxSub, nodes, diags, checks, witFails, trips int
	var opHits, opMisses, fast, ops int64
	for _, u := range res.units {
		streamed += u.parse.TokensStreamed
		materialized += u.parse.TokensMaterialized
		forks += u.parse.Forks
		merges += u.parse.Merges
		maxSub = max(maxSub, u.parse.MaxSubparsers)
		nodes += u.bdd.Nodes
		opHits += u.bdd.OpHits
		opMisses += u.bdd.OpMisses
		fast += u.hot.FastPaths
		ops += u.hot.Ops
		diags += len(u.diags)
		checks += u.stats.WitnessChecks
		witFails += u.stats.WitnessFailures
		if u.tripped {
			trips++
		}
	}
	r.attempted++
	if witFails+res.link.Stats.WitnessFailures > 0 {
		r.fail("witness gate: %d analysis and %d link witnesses failed re-verification", witFails, res.link.Stats.WitnessFailures)
	}
	r.set("fmlr.ns_per_token", ns(spans.selfTotal("fmlr"), tokens), "ns", units)
	r.set("fmlr.stream_share", ratio(int64(streamed), int64(streamed+materialized)), "ratio", units)
	r.set("fmlr.forks", float64(forks), "count", units)
	r.set("fmlr.merges", float64(merges), "count", units)
	r.set("fmlr.max_subparsers", float64(maxSub), "count", units)
	r.set("bdd.nodes", float64(nodes), "count", units)
	r.set("bdd.op_hit_ratio", ratio(opHits, opHits+opMisses), "ratio", units)
	r.set("cond.fast_path_ratio", ratio(fast, ops), "ratio", units)
	r.set("analysis.ns_per_token", ns(spans.selfTotal("analysis"), tokens), "ns", units)
	r.set("analysis.diags", float64(diags), "count", units)
	r.set("analysis.witness_checks", float64(checks), "count", units)
	r.set("link.extract_ns_per_token", ns(spans.selfTotal("link.extract"), tokens), "ns", units)
	r.set("link.join_ms", spans.selfTotal("link.join").Seconds()*1000, "ms", 1)
	r.set("link.encode_us", ns(spans.selfTotal("link.encode"), units)/1000, "us", units)
	r.set("link.decode_us", ns(spans.selfTotal("link.decode"), units)/1000, "us", units)
	r.set("link.findings", float64(len(res.link.Findings)), "count", 1)
	r.set("link.sat_checks", float64(res.link.Stats.SATChecks), "count", 1)
	r.set("store.put_us", ns(spans.selfTotal("store.put"), units)/1000, "us", units)
	r.set("store.get_us", ns(spans.selfTotal("store.get"), units)/1000, "us", units)

	r.daemonLayers(dr, spans)
	r.set("guard.budget_trips", float64(int64(trips)+dr.delta("harness_budget_trips")), "count", units+len(dr.reqs))
	r.set("trace.overhead_share", res.wall.Seconds()/untraced-1, "ratio", 3)
	r.set("trace.coverage_min", min(spans.minCoverage("unit"), spans.minCoverage("request")), "ratio", units+len(dr.reqs))
	r.set("error_rate", ratio(int64(r.failed), int64(max(r.attempted, 1))), "ratio", r.attempted)
	return nil
}

// giantSweep parses each giant unit sequentially (ParseWorkers 1) and at
// the default worker count, each time from a fresh preprocessing into a
// fresh condition space, and checks the two parses agree.
func (r *run) giantSweep(tr *tracer, t *tree) error {
	lang := cgrammar.MustLoad()
	parse := func(file, name string, workers int) (*fmlr.Result, time.Duration, uint64, error) {
		tool := core.New(core.Config{FS: t.fs})
		unit, err := tool.Preprocess(file)
		if err != nil {
			return nil, 0, 0, err
		}
		opts := fmlr.OptAll
		opts.ParseWorkers = workers
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		sp := tr.begin(name, file, 0)
		start := time.Now()
		res := fmlr.New(tool.Space(), lang, opts).ParseUnit(unit)
		d := time.Since(start)
		tr.end(sp)
		runtime.ReadMemStats(&ms1)
		return res, d, ms1.TotalAlloc - ms0.TotalAlloc, nil
	}
	var first, last float64
	var seqLast, parLast time.Duration
	for i, file := range t.units {
		seq, ds, alloc, err := parse(file, "fmlr.seq", 1)
		if err != nil {
			return err
		}
		par, dp, _, err := parse(file, "fmlr.par", fmlr.AutoWorkers())
		if err != nil {
			return err
		}
		r.attempted++
		if seq.AST == nil || par.AST == nil || len(seq.Diags)+len(par.Diags) > 0 ||
			seq.AST.Count() != par.AST.Count() || seq.AST.CountChoices() != par.AST.CountChoices() {
			r.fail("%s: sequential and region-parallel parses disagree", file)
		}
		tokens := t.tokens[file]
		perTok := float64(ds.Nanoseconds()) / float64(tokens)
		r.set("fmlr.giant_ns_per_token."+strings.TrimSuffix(file, ".c"), perTok, "ns", 1)
		if i == 0 {
			first = perTok
		}
		last, seqLast, parLast = perTok, ds, dp
		if i == len(t.units)-1 {
			r.set("fmlr.alloc_bytes_per_token", float64(alloc)/float64(tokens), "B", 1)
		}
	}
	r.set("fmlr.size_slope", last/first, "ratio", 2)
	r.set("fmlr.region_speedup", seqLast.Seconds()/parLast.Seconds(), "ratio", 2)
	return nil
}

// daemonLayers reports the daemon and store figures of a daemon phase.
// lint_overhead_ms is the lint p50 minus the median in-process time of the
// same batches: preprocessing, parse and analysis spans of their units.
func (r *run) daemonLayers(dr *daemonRun, spans *spanTree) {
	inproc := map[string]float64{}
	for _, s := range spans.spans {
		switch s.Name {
		case "preprocessor", "fmlr", "analysis":
			inproc[s.Key] += s.dur().Seconds() * 1000
		}
	}
	var lint, link, batch []float64
	for _, q := range dr.reqs {
		if q.link {
			link = append(link, q.ms)
			continue
		}
		lint = append(lint, q.ms)
		sum := 0.0
		for _, f := range q.files {
			sum += inproc[f]
		}
		batch = append(batch, sum)
	}
	r.set("daemon.lint_p50_ms", median(lint), "ms", len(lint))
	r.set("daemon.link_p50_ms", median(link), "ms", len(link))
	r.set("daemon.lint_overhead_ms", median(lint)-median(batch), "ms", len(lint))
	hits, misses := dr.delta("link_facts_hits"), dr.delta("link_facts_misses")
	r.set("daemon.facts_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	r.set("daemon.queued", float64(dr.delta("admission_queued_total")), "count", len(dr.reqs))
	r.set("daemon.shed", float64(dr.delta("admission_shed")), "count", len(dr.reqs))
	r.set("daemon.client_retries", float64(dr.retries), "count", len(dr.reqs))
	r.set("store.hits", float64(dr.delta("store_hits")), "count", len(link))
	r.set("store.writes", float64(dr.delta("store_writes")), "count", len(link))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
