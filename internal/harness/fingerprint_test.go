package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cond"
	"repro/internal/guard"
	"repro/internal/hcache"
)

// TestFingerprintCoversRunConfig pins which RunConfig fields key the
// per-unit result caches. Every field must be listed here as keyed or as
// excluded, so a new knob cannot silently miss the cache key: changing a
// keyed field must change the fingerprint, changing an excluded one must
// not.
func TestFingerprintCoversRunConfig(t *testing.T) {
	keyed := map[string]func(*RunConfig){
		"Mode":         func(c *RunConfig) { c.Mode = cond.ModeSAT },
		"Parser":       func(c *RunConfig) { c.Parser.LazyShifts = !c.Parser.LazyShifts },
		"Single":       func(c *RunConfig) { c.Single = true },
		"Defines":      func(c *RunConfig) { c.Defines = map[string]string{"CONFIG_A": "1"} },
		"IncludePaths": func(c *RunConfig) { c.IncludePaths = []string{"include"} },
		"Budget":       func(c *RunConfig) { c.Budget = guard.Limits{Tokens: 80} },
		"Analyzers":    func(c *RunConfig) { c.Analyzers = passes.All()[:1] },
		"Link":         func(c *RunConfig) { c.Link = true },
	}
	excluded := map[string]func(*RunConfig){
		"Jobs":          func(c *RunConfig) { c.Jobs = 3 },
		"ParseWorkers":  func(c *RunConfig) { c.ParseWorkers = 4 },
		"HeaderCache":   func(c *RunConfig) { c.HeaderCache = hcache.New(hcache.Options{}) },
		"NoHeaderCache": func(c *RunConfig) { c.NoHeaderCache = true },
		"Quarantine":    func(c *RunConfig) { c.Quarantine = true },
	}
	base := RunConfig{}
	want := base.Fingerprint()
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		cfg := base
		if set, ok := keyed[name]; ok {
			set(&cfg)
			if cfg.Fingerprint() == want {
				t.Errorf("RunConfig.%s is keyed but does not change the fingerprint", name)
			}
		} else if set, ok := excluded[name]; ok {
			set(&cfg)
			if got := cfg.Fingerprint(); got != want {
				t.Errorf("RunConfig.%s is excluded but changes the fingerprint:\n %s\n %s", name, want, got)
			}
		} else {
			t.Errorf("RunConfig.%s is neither keyed nor excluded by Fingerprint; list it in this test", name)
		}
	}

	// Parser knobs that leave output identical stay out of the key too.
	cfg := base
	cfg.Parser.ParseWorkers, cfg.Parser.NoStream = 4, true
	cfg.Parser.Budget = guard.New(context.Background(), guard.Limits{})
	if got := cfg.Fingerprint(); got != want {
		t.Errorf("parser worker count, streaming or budget changes the fingerprint:\n %s\n %s", want, got)
	}
	// Defines and analyzers are sets: their order is not part of the key.
	a, b := base, base
	a.Defines = map[string]string{"A": "1", "B": "2"}
	b.Defines = map[string]string{"B": "2", "A": "1"}
	all := passes.All()
	a.Analyzers = all
	b.Analyzers = append([]*analysis.Analyzer(nil), all...)
	for i, j := 0, len(b.Analyzers)-1; i < j; i, j = i+1, j-1 {
		b.Analyzers[i], b.Analyzers[j] = b.Analyzers[j], b.Analyzers[i]
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("fingerprint depends on analyzer order")
	}
}
