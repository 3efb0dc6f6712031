// Command cstats reproduces the paper's preprocessor-usage measurements
// (Tables 2a, 2b, and 3 of §6.1) over the synthetic corpus. Table 3's
// instrumented sweep runs on the parallel harness (-j workers); the C
// parse tables come from the on-disk cache after the first run
// (-no-table-cache rebuilds them).
//
// Usage:
//
//	cstats                  # all tables, default corpus
//	cstats -table 3         # just Table 3
//	cstats -seed 7 -cfiles 200 -headers 48
//	cstats -table 3 -j 8 -metrics
//	cstats -analyze         # run the analysis passes over the corpus
//	cstats -table 3 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/corpus"
	"repro/internal/daemon"
	"repro/internal/harness"
	"repro/internal/link"
)

func main() {
	table := flag.String("table", "all", "which table to print: 2a, 2b, 3, or all")
	seed := flag.Int64("seed", 1, "corpus seed")
	cfiles := flag.Int("cfiles", 40, "number of compilation units")
	headers := flag.Int("headers", 24, "number of generated headers")
	metrics := flag.Bool("metrics", false, "print the harness metrics snapshot after the Table 3 sweep")
	analyze := flag.Bool("analyze", false, "run the variability analysis passes during the Table 3 sweep and print diagnostics")
	doLink := flag.Bool("link", false, "extract conditional link facts during the Table 3 sweep and print cross-unit findings (runs in-process: the synthetic corpus is in-memory)")
	startProfile := harness.FlagProfile(flag.CommandLine)
	quarantine := flag.Bool("quarantine", false, "retry failed or budget-tripped units once, then quarantine")
	daemonAddr := flag.String("daemon", "", "serve the Table 3 sweep from a superd daemon at this address; falls back in-process")
	daemonOpts := daemon.FlagClientOptions(flag.CommandLine)
	openStore := harness.FlagStore(flag.CommandLine)
	runConfig := harness.FlagRunConfig(flag.CommandLine)
	flag.Parse()

	base := runConfig()
	base.Quarantine = *quarantine
	if err := openStore(); err != nil {
		fmt.Fprintln(os.Stderr, "cstats:", err)
		os.Exit(1)
	}
	stopProfile, err := startProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfile()

	c := corpus.Generate(corpus.Params{Seed: *seed, CFiles: *cfiles, GenHeaders: *headers})

	if *table == "all" || *table == "2a" {
		fmt.Println(harness.Table2a(c))
	}
	if *table == "all" || *table == "2b" {
		fmt.Println(harness.Table2b(c))
	}
	if *table == "all" || *table == "3" {
		cfg := base
		cfg.Link = *doLink
		if *analyze {
			cfg.Analyzers = passes.All()
		}
		var results []harness.UnitResult
		var metricsText string
		if *daemonAddr != "" && *doLink {
			// The corpus link join happens over the in-memory synthetic
			// corpus, which the daemon cannot see; the sweep stays local.
			fmt.Fprintln(os.Stderr, "cstats: -link runs in-process; ignoring -daemon for this sweep")
		} else if *daemonAddr != "" {
			var err error
			if results, metricsText, err = table3ViaDaemon(*daemonAddr, *daemonOpts, *seed, *cfiles, *headers, cfg); err != nil {
				fmt.Fprintf(os.Stderr, "cstats: %v; running in-process\n", err)
			}
		}
		var linked *link.Result
		if results == nil {
			var m harness.Metrics
			results, m = harness.RunMetered(context.Background(), c, cfg)
			linked, metricsText = m.LinkResult, m.String()
		}
		fmt.Println(harness.Table3(results))
		// Results are indexed by corpus position, each unit's diagnostics are
		// sorted by the driver, and link findings arrive in the linker's
		// total order, so these listings are byte-stable at any -j /
		// -parse-workers.
		for _, r := range results {
			if r.Analysis != nil {
				for _, d := range r.Analysis.Diags {
					printDiag(d)
				}
			}
		}
		if linked != nil {
			for _, f := range linked.Findings {
				printDiag(analysis.LinkDiagnostic(f))
			}
		}
		if *metrics {
			fmt.Print(metricsText)
		}
	}
}

// printDiag lists one diagnostic of the Table 3 sweep.
func printDiag(d analysis.Diagnostic) {
	pos := d.File
	if d.Line > 0 {
		pos = fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
	}
	fmt.Printf("%s: %s: %s [when %s]\n", pos, d.Pass, d.Msg, d.CondStr)
}

// table3ViaDaemon runs the Table 3 sweep of cfg on a superd daemon and
// rebuilds the deterministic per-unit statistics the in-process path feeds
// harness.Table3, so the table is byte-identical. It also returns the
// daemon's metrics summary.
func table3ViaDaemon(addr string, opts daemon.ClientOptions, seed int64, cfiles, headers int, cfg harness.RunConfig) ([]harness.UnitResult, string, error) {
	client, err := daemon.DialOptions(addr, opts)
	if err != nil {
		return nil, "", err
	}
	req := daemon.CorpusRequest{
		Seed:         seed,
		CFiles:       cfiles,
		Headers:      headers,
		Mode:         "bdd",
		Opt:          "all",
		Jobs:         cfg.Jobs,
		ParseWorkers: cfg.Parser.ParseWorkers,
		Limits:       daemon.FromGuard(cfg.Budget),
	}
	if len(cfg.Analyzers) > 0 {
		req.Passes = []string{"all"}
	}
	resp, err := client.Corpus(&req)
	if err != nil {
		return nil, "", err
	}
	results := make([]harness.UnitResult, len(resp.Units))
	for i, u := range resp.Units {
		results[i] = harness.UnitResult{
			File:        u.File,
			Bytes:       u.Bytes,
			Tokens:      u.Tokens,
			Pre:         u.Pre,
			ChoiceNodes: u.Parse.ChoiceNodes,
		}
		results[i].Parse.TypedefForks = u.Parse.TypedefForks
		if u.HasAnalysis {
			r := &analysis.Result{File: u.File, Stats: u.Stats}
			for _, d := range u.Diags {
				r.Diags = append(r.Diags, d.ToAnalysis())
			}
			results[i].Analysis = r
		}
	}
	cm := client.Metrics()
	summary := fmt.Sprintf("daemon corpus metrics: %d units, %d served from facts, %d computed\n"+
		"daemon client: %d attempts, %d retries, %d sheds, %d breaker opens, %d fast fails, breaker %s\n",
		len(resp.Units), resp.FactsHits, resp.FactsMisses,
		cm.Attempts, cm.Retries, cm.Sheds, cm.BreakerOpens, cm.FastFails, cm.BreakerState)
	return results, summary, nil
}
