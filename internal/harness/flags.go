package harness

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cgrammar"
	"repro/internal/fmlr"
	"repro/internal/guard"
)

// FlagRunConfig registers the run knobs the CLI tools share on fs: -j,
// -parse-workers, -no-table-cache, -no-header-cache and guard.FlagLimits's
// -timeout/-budget-* flags. The returned function, called after fs.Parse,
// applies -no-table-cache (the parse tables are process-wide) and returns
// the base RunConfig the flags select, at the fmlr.OptAll parser level.
func FlagRunConfig(fs *flag.FlagSet) func() RunConfig {
	var cfg RunConfig
	fs.IntVar(&cfg.Jobs, "j", 0, "worker-pool width: units processed at once (0: GOMAXPROCS)")
	fs.IntVar(&cfg.Parser.ParseWorkers, "parse-workers", 0, "intra-unit parse workers per unit; output is identical at any value (0: min(GOMAXPROCS, 8), 1: sequential)")
	noTableCache := fs.Bool("no-table-cache", false, "rebuild the C parse tables instead of using the on-disk cache")
	fs.BoolVar(&cfg.NoHeaderCache, "no-header-cache", false, "disable the shared cross-unit header cache")
	limits := guard.FlagLimits(fs)
	return func() RunConfig {
		cgrammar.DisableTableCache(*noTableCache)
		out := cfg.atLevel(fmlr.OptAll)
		if out.Parser.ParseWorkers <= 0 {
			out.Parser.ParseWorkers = fmlr.AutoWorkers()
		}
		out.Budget = *limits
		return out
	}
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// FlagSource registers the preprocessor's -I and -D flags on fs. The
// returned function, called after fs.Parse, sets cfg's IncludePaths and
// Defines from them; a -D without "=VALUE" defines the name as 1.
func FlagSource(fs *flag.FlagSet) func(cfg *RunConfig) {
	var includes, defines stringList
	fs.Var(&includes, "I", "include search path (repeatable)")
	fs.Var(&defines, "D", "macro definition NAME or NAME=VALUE (repeatable)")
	return func(cfg *RunConfig) {
		cfg.IncludePaths = includes
		cfg.Defines = make(map[string]string, len(defines))
		for _, d := range defines {
			name, val, ok := strings.Cut(d, "=")
			if !ok {
				val = "1"
			}
			cfg.Defines[name] = val
		}
	}
}

// FlagStore registers -store on fs. The returned function, called after
// fs.Parse, installs the named artifact store beneath the shared header
// cache (UseStore); without -store it does nothing.
func FlagStore(fs *flag.FlagSet) func() error {
	dir := fs.String("store", "", "artifact store directory backing the header cache across runs")
	return func() error {
		if *dir == "" {
			return nil
		}
		_, err := UseStore(*dir, 0)
		return err
	}
}

// FlagProfile registers -cpuprofile and -memprofile on fs. The returned
// function, called after fs.Parse, starts the CPU profile and returns the
// function to defer: it stops the CPU profile and writes the heap profile.
func FlagProfile(fs *flag.FlagSet) func() (stop func(), err error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file at exit")
	return func() (func(), error) {
		stopCPU := func() {}
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			stopCPU = func() {
				pprof.StopCPUProfile()
				f.Close()
			}
		}
		return func() {
			stopCPU()
			if *mem != "" {
				if err := writeHeapProfile(*mem); err != nil {
					fmt.Fprintln(os.Stderr, "memprofile:", err)
				}
			}
		}, nil
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
