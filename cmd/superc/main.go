// Command superc is the SuperC tool: a configuration-preserving C front
// end. It preprocesses and parses a compilation unit while preserving its
// static variability, and reports the AST, per-configuration projections,
// and instrumentation statistics.
//
// The summary (the default) runs the units on the harness's worker pool
// (-j wide, GOMAXPROCS by default), each in its own tool, and prints them
// in argument order. -ast, -print, -project, -rename and -check need the
// live condition space, and -check compares conditions across units, so
// they run the units in order on one tool. Every path, -daemon included,
// renders its summary through one renderer. The C parse tables are loaded
// from the on-disk cache after the first run (-no-table-cache rebuilds
// them).
//
// Usage:
//
//	superc [flags] file.c [file2.c ...]
//
// Examples:
//
//	superc -I include drivers/mouse.c            # parse, print summary
//	superc -ast file.c                           # print the variability AST
//	superc -project 'CONFIG_SMP' file.c          # project one configuration
//	superc -single -D CONFIG_SMP=1 file.c        # gcc-like single-config mode
//	superc -mode sat file.c                      # TypeChef-style conditions
//	superc -opt mapr file.c                      # naive forking baseline
//	superc -j 8 drivers/*.c                      # parallel corpus sweep
//	superc -timeout 5s -budget-hoist 512 file.c  # governed run: degrade, don't hang
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/printer"
	"repro/internal/refactor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is superc's command line over args; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("superc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	source := harness.FlagSource(fs)
	mode := fs.String("mode", "bdd", "presence-condition representation: bdd or sat")
	opt := fs.String("opt", "all", "parser optimization level: all, sharedlazy, shared, lazy, follow, mapr, mapr-largest")
	single := fs.Bool("single", false, "single-configuration (gcc-like) mode")
	var rich richFlags
	fs.BoolVar(&rich.ast, "ast", false, "print the configuration-preserving AST")
	fs.StringVar(&rich.project, "project", "", "comma-separated CONFIG vars to enable; prints that configuration's tokens")
	showStats := fs.Bool("stats", true, "print preprocessing and parsing statistics")
	fs.BoolVar(&rich.check, "check", false, "run configuration-preserving analyses (conflicting definitions, coverage)")
	fs.BoolVar(&rich.print, "print", false, "print the preprocessed unit as conditional C source")
	fs.StringVar(&rich.rename, "rename", "", "configuration-preserving rename: OLD=NEW")
	daemonAddr := fs.String("daemon", "", "serve the batch from a superd daemon at this address (unix:PATH or HOST:PORT); summary mode only, falls back in-process")
	daemonOpts := daemon.FlagClientOptions(fs)
	openStore := harness.FlagStore(fs)
	runConfig := harness.FlagRunConfig(fs)
	startProfile := harness.FlagProfile(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: superc [flags] file.c [file2.c ...]")
		fs.PrintDefaults()
		return 2
	}

	rc := runConfig()
	var ok bool
	if rc.Mode, ok = cond.ModeByName(*mode); !ok {
		fmt.Fprintf(stderr, "superc: unknown -mode %q\n", *mode)
		return 2
	}
	workers := rc.Parser.ParseWorkers
	if rc.Parser, ok = fmlr.OptionsByName(*opt); !ok {
		fmt.Fprintf(stderr, "superc: unknown -opt %q\n", *opt)
		return 2
	}
	rc.Parser.ParseWorkers = workers
	rc.Single = *single
	source(&rc)
	if err := openStore(); err != nil {
		fmt.Fprintln(stderr, "superc:", err)
		return 1
	}
	stopProfile, err := startProfile()
	if err != nil {
		fmt.Fprintln(stderr, "superc:", err)
		return 1
	}
	defer stopProfile()
	files := fs.Args()
	out := summary{stdout: stdout, stderr: stderr, stats: *showStats}

	if *daemonAddr != "" {
		if rich.any() {
			fmt.Fprintln(stderr, "superc: -daemon serves summaries only; -ast/-project/-check/-print/-rename run in-process")
		} else if exit, err := out.viaDaemon(*daemonAddr, *daemonOpts, daemon.ParseRequest{
			Files:        files,
			IncludePaths: rc.IncludePaths,
			Defines:      rc.Defines,
			Mode:         *mode,
			Opt:          *opt,
			Single:       rc.Single,
			Jobs:         rc.Jobs,
			ParseWorkers: rc.Parser.ParseWorkers,
			Limits:       daemon.FromGuard(rc.Budget),
		}); err != nil {
			fmt.Fprintf(stderr, "superc: %v; running in-process\n", err)
		} else {
			return exit
		}
	}
	if rich.any() {
		return rich.run(files, rc, out)
	}
	results, m := harness.RunUnits(context.Background(), harness.Units{Files: files}, rc)
	exit := 0
	for i := range results {
		exit |= out.unit(daemon.ParseUnitOf(&results[i]), m.TableCacheState, nil)
	}
	return exit
}

// summary is superc's one per-unit renderer: the runner's units, the rich
// modes' units and the daemon's units all print through unit, so their
// output agrees by construction.
type summary struct {
	stdout, stderr io.Writer
	stats          bool
}

// unit reports u: its diagnostics on stderr, then between's output (if
// between returns false the unit ends there with status 1), then its
// statistics on stdout. tables is the parse-table cache state. It returns
// the unit's exit status.
func (s summary) unit(u daemon.ParseUnit, tables string, between func() bool) int {
	if u.Err != "" {
		fmt.Fprintf(s.stderr, "superc: %s\n", u.Err)
		return 1
	}
	exit := 0
	for _, d := range u.PreDiags {
		fmt.Fprintln(s.stderr, d)
		if !d.Warning {
			exit = 1
		}
	}
	for _, line := range u.ParseErrs {
		fmt.Fprintln(s.stderr, line)
		exit = 1
	}
	if u.Killed {
		fmt.Fprintln(s.stderr, "superc: subparser kill switch tripped")
		exit = 1
	}
	if u.BudgetErr != "" {
		fmt.Fprintf(s.stderr, "superc: %s: degraded to partial result: %s\n", u.File, u.BudgetErr)
		exit = 1
	}
	if between != nil && !between() {
		return 1
	}
	if s.stats {
		us := u.Pre
		fmt.Fprintf(s.stdout, "preprocess: %d bytes, %d tokens, %d directives, %d defines, %d invocations (%d nested, %d trimmed, %d hoisted), %d includes, %d conditionals (depth %d)\n",
			us.Bytes, us.Tokens, us.Directives, us.MacroDefinitions,
			us.Invocations, us.NestedInvocations, us.TrimmedInvocations, us.HoistedInvocations,
			us.Includes, us.Conditionals, us.MaxCondDepth)
		if u.HasAST {
			p := u.Parse
			fmt.Fprintf(s.stdout, "parse: %d iterations, max %d subparsers (p99 %d), %d forks, %d merges, %d typedef forks; AST: %d nodes, %d choice nodes\n",
				p.Iterations, p.MaxSubparsers, p.P99, p.Forks, p.Merges, p.TypedefForks,
				p.ASTNodes, p.ChoiceNodes)
		}
		fmt.Fprintf(s.stdout, "tables: cache %s\n", tables)
	}
	if !u.HasAST {
		fmt.Fprintln(s.stderr, "superc: no configuration parsed successfully")
		exit = 1
	}
	return exit
}

// viaDaemon serves the batch from a superd daemon. The "tables:" line
// reflects the daemon's parse-table cache (the client loads no tables in
// daemon mode).
func (s summary) viaDaemon(addr string, opts daemon.ClientOptions, req daemon.ParseRequest) (int, error) {
	client, err := daemon.DialOptions(addr, opts)
	if err != nil {
		return 0, err
	}
	resp, err := client.Parse(&req)
	if err != nil {
		return 0, err
	}
	exit := 0
	for _, u := range resp.Units {
		exit |= s.unit(u, resp.TableCache, nil)
	}
	return exit, nil
}

// richFlags are the modes that need the live tool and condition space.
type richFlags struct {
	ast, print, check bool
	project, rename   string
}

func (f richFlags) any() bool {
	return f.ast || f.print || f.check || f.project != "" || f.rename != ""
}

// run processes files in order on one tool: one condition space for every
// unit, as -check's cross-unit conflict index requires.
func (f richFlags) run(files []string, rc harness.RunConfig, out summary) int {
	tool := harness.NewTool(rc)
	space := tool.Space()
	ix := analysis.NewIndex(space)
	exit := 0
	for _, file := range files {
		// Budgets are single-use: every unit gets a fresh one.
		tool.SetBudget(guard.New(context.Background(), rc.Budget))
		res, err := tool.ParseFile(file)
		if err != nil {
			exit |= out.unit(daemon.ParseUnit{File: file, Err: err.Error()}, "", nil)
			continue
		}
		r := harness.ResultOf(file, space, res.Unit, res.Parse)
		r.Budget = tool.Budget().Trip()
		printed := true
		exit |= out.unit(daemon.ParseUnitOf(&r), cgrammar.TableCacheState(), func() bool {
			printed = f.printUnit(tool, res, out)
			return printed
		})
		if printed && res.AST != nil && f.check {
			exit |= f.checkUnit(space, ix, file, res, rc.Mode, out.stdout)
		}
	}
	if f.check && len(files) > 1 {
		// Cross-unit conflicts: the same symbol defined in several files
		// under overlapping conditions.
		for _, c := range ix.ConflictingDefinitions() {
			if c.A.File != c.B.File {
				fmt.Fprintf(out.stdout, "cross-unit conflict: %s defined in %s and %s under %s\n",
					c.Name, c.A.File, c.B.File, space.String(c.Under))
				exit = 1
			}
		}
	}
	return exit
}

// printUnit prints one unit's AST, source, rename and projection; it returns
// false when the rename cannot be applied.
func (f richFlags) printUnit(tool *core.Tool, res *core.Result, out summary) bool {
	space := tool.Space()
	if res.AST != nil && f.ast {
		fmt.Fprintln(out.stdout, res.AST.StringWithConds(space))
	}
	if f.print {
		fmt.Fprint(out.stdout, printer.Forest(space, res.Unit.EnsureSegments(), printer.Options{}))
	}
	if res.AST != nil && f.rename != "" {
		from, to, ok := strings.Cut(f.rename, "=")
		if !ok || from == "" || to == "" {
			fmt.Fprintln(out.stderr, "superc: -rename wants OLD=NEW")
			return false
		}
		if col := refactor.CheckCollisions(space, res.AST, from, to); len(col) > 0 {
			fmt.Fprintf(out.stderr, "superc: rename collides under %s\n", space.String(col[0].Cond))
			return false
		}
		renamed, rep := refactor.Rename(space, res.AST, from, to)
		fmt.Fprintf(out.stderr, "superc: %s\n", rep)
		fmt.Fprint(out.stdout, printer.AST(space, renamed, printer.Options{}))
	}
	if res.AST != nil && f.project != "" {
		assign := map[string]bool{}
		for _, v := range strings.Split(f.project, ",") {
			if v = strings.TrimSpace(v); v != "" {
				assign["(defined "+v+")"] = true
			}
		}
		var texts []string
		for _, tk := range tool.Project(res, assign).Tokens() {
			texts = append(texts, tk.Text)
		}
		fmt.Fprintln(out.stdout, strings.Join(texts, " "))
	}
	return true
}

// checkUnit reports one unit's conflicting definitions and, in BDD mode, its
// partial-coverage symbols, and adds the unit to the cross-unit index.
func (f richFlags) checkUnit(space *cond.Space, ix *analysis.Index, file string, res *core.Result, mode cond.Mode, stdout io.Writer) int {
	unitIx := analysis.NewIndex(space)
	unitIx.AddUnit(file, res.AST)
	ix.AddUnit(file, res.AST)
	exit := 0
	conflicts := unitIx.ConflictingDefinitions()
	for _, c := range conflicts {
		fmt.Fprintf(stdout, "conflict: %s (%s) defined twice under %s\n",
			c.Name, c.A.Kind, space.String(c.Under))
		exit = 1
	}
	if len(conflicts) == 0 {
		fmt.Fprintf(stdout, "check: %s: no conflicting definitions\n", file)
	}
	if mode == cond.ModeBDD {
		for _, cov := range unitIx.CoverageReport() {
			if cov.Fraction < 1 {
				fmt.Fprintf(stdout, "coverage: %s %s exists in %.1f%% of configurations\n",
					cov.Symbol.Kind, cov.Symbol.Name, 100*cov.Fraction)
			}
		}
	}
	return exit
}
