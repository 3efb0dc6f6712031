package harness

import (
	"flag"

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
	fs.IntVar(&cfg.ParseWorkers, "parse-workers", 0, "intra-unit parse workers per unit; output is identical at any value (0: min(GOMAXPROCS, 8), 1: sequential)")
	noTableCache := fs.Bool("no-table-cache", false, "rebuild the C parse tables instead of using the on-disk cache")
	fs.BoolVar(&cfg.NoHeaderCache, "no-header-cache", false, "disable the shared cross-unit header cache")
	limits := guard.FlagLimits(fs)
	return func() RunConfig {
		cgrammar.DisableTableCache(*noTableCache)
		out := cfg
		out.Parser = fmlr.OptAll
		out.Budget = *limits
		if out.ParseWorkers <= 0 {
			out.ParseWorkers = fmlr.AutoWorkers()
		}
		return out
	}
}
