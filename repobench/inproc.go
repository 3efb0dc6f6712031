package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/bdd"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fmlr"
	"repro/internal/hcache"
	"repro/internal/link"
)

// unitOut is what the in-process run kept of one unit.
type unitOut struct {
	file    string
	diags   []daemon.Diag
	stats   analysis.Stats
	facts   *link.Facts
	parse   fmlr.Stats
	bdd     bdd.CacheStats
	hot     cond.HotStats
	tripped bool
}

// pipeResult is one in-process pass over a tree.
type pipeResult struct {
	units  []*unitOut
	byFile map[string]*unitOut
	link   *link.Result
	hc     hcache.Snapshot
	wall   time.Duration
}

// wantDiags is the in-process answer to a /v1/lint of files, in the shape
// lintOut digests.
func (p *pipeResult) wantDiags(files []string) []byte {
	all := make([][]daemon.Diag, len(files))
	for i, f := range files {
		all[i] = p.byFile[f].diags
	}
	b, _ := json.Marshal(all)
	return b
}

// pipeline runs every unit of t through the layers clint calls, in clint's
// order and with clint's default flags: tool construction and
// preprocessing against one shared header cache, the FMLR parse, link-fact
// extraction, the analysis passes, and finally the corpus-wide link join.
// With a non-nil tracer each call gets a span under its unit's span.
func (r *run) pipeline(tr *tracer, t *tree) (*pipeResult, error) {
	hc := hcache.New(hcache.Options{})
	cfg := core.Config{FS: t.fs, IncludePaths: t.includes, HeaderCache: hc, ParseWorkers: fmlr.AutoWorkers()}
	opts := fmlr.OptAll
	opts.ParseWorkers = cfg.ParseWorkers
	analyzers := passes.All()
	lang := cgrammar.MustLoad()
	res := &pipeResult{byFile: map[string]*unitOut{}}
	start := time.Now()
	for _, file := range t.units {
		us := tr.begin("unit", file, 0)
		sp := tr.begin("preprocessor", file, us)
		tool := core.New(cfg)
		unit, err := tool.Preprocess(file)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("preprocess %s: %w", file, err)
		}
		out := &unitOut{file: file}
		for _, d := range unit.Diags {
			if !d.Warning {
				r.fail("%s: %s", file, d)
			}
		}
		sp = tr.begin("fmlr", file, us)
		parse := fmlr.New(tool.Space(), lang, opts).ParseUnit(unit)
		tr.end(sp)
		au := &analysis.Unit{File: file, Space: tool.Space(), AST: parse.AST, PP: unit, Budget: tool.Budget()}
		sp = tr.begin("link.extract", file, us)
		out.facts = analysis.ExtractLinkFacts(au)
		tr.end(sp)
		sp = tr.begin("analysis", file, us)
		ar := analysis.Run(au, analyzers)
		tr.end(sp)
		tr.end(us)

		out.diags = make([]daemon.Diag, len(ar.Diags))
		for i, d := range ar.Diags {
			out.diags[i] = daemon.FromAnalysis(d)
		}
		out.stats = ar.Stats
		out.parse = parse.Stats
		out.bdd = tool.Space().BDD().Stats()
		out.hot = tool.Space().Hot
		out.tripped = tool.Budget().Trip() != nil
		res.units = append(res.units, out)
		res.byFile[file] = out
	}
	facts := make([]*link.Facts, len(res.units))
	for i, u := range res.units {
		facts[i] = u.facts
	}
	sp := tr.begin("link.join", "", 0)
	res.link = link.Link(facts, hc.Canon())
	tr.end(sp)
	res.wall = time.Since(start)
	res.hc = hc.Stats()
	return res, nil
}
