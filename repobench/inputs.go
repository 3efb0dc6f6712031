package main

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/hcache"
	"repro/internal/preprocessor"
)

// corpusUnits sizes the corpus. Its units average ~600 tokens over ~34
// shared headers, small enough that neither the symbol table's quadratic
// nor region parallelism matters.
const corpusUnits = 200

// giantItems is the giant-unit size sweep (~8k to ~70k tokens).
var giantItems = []int{450, 900, 1800, 3600}

// tree is one generated source tree, on disk under dir and in memory in fs,
// with the same relative paths in both.
type tree struct {
	dir      string
	fs       preprocessor.MapFS
	units    []string
	includes []string
	vars     []string       // configuration variables the units test
	tokens   map[string]int // preprocessed tokens per unit
}

func (t *tree) totalTokens(units []string) int {
	n := 0
	for _, u := range units {
		n += t.tokens[u]
	}
	return n
}

type inputs struct {
	corpus, giant *tree
}

var configVar = regexp.MustCompile(`\b(CONFIG_\w+|FEAT_\w+)\b`)

// generate writes the seeded corpus and giant units into the run directory
// and counts each unit's preprocessed tokens in-process.
func generate(r *run) (*inputs, error) {
	c := corpus.Generate(corpus.Params{Seed: r.seed, CFiles: corpusUnits})
	in := &inputs{
		corpus: &tree{dir: filepath.Join(r.dir, "corpus"), fs: c.FS, units: c.CFiles, includes: harness.IncludePaths},
		giant:  &tree{dir: filepath.Join(r.dir, "giant"), fs: preprocessor.MapFS{}},
	}
	for _, items := range giantItems {
		name := fmt.Sprintf("i%d.c", items)
		in.giant.fs[name] = corpus.GiantUnit(r.seed, items)
		in.giant.units = append(in.giant.units, name)
	}
	for _, t := range []*tree{in.corpus, in.giant} {
		if err := t.write(); err != nil {
			return nil, err
		}
		if err := t.count(); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (t *tree) write() error {
	vars := map[string]bool{}
	for p, body := range t.fs {
		full := filepath.Join(t.dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			return err
		}
		for _, v := range configVar.FindAllString(body, -1) {
			vars[v] = true
		}
	}
	for v := range vars {
		t.vars = append(t.vars, v)
	}
	sort.Strings(t.vars)
	return nil
}

// count preprocesses every unit once, sharing one header cache as clint
// does, and records its token count.
func (t *tree) count() error {
	t.tokens = map[string]int{}
	hc := hcache.New(hcache.Options{})
	for _, u := range t.units {
		tool := core.New(core.Config{FS: t.fs, IncludePaths: t.includes, HeaderCache: hc})
		unit, err := tool.Preprocess(u)
		if err != nil {
			return fmt.Errorf("preprocess %s: %w", u, err)
		}
		t.tokens[u] = unit.Stats.Tokens
	}
	return nil
}

// includeFlags renders the tree's include paths as -I flags.
func (t *tree) includeFlags() []string {
	var f []string
	for _, inc := range t.includes {
		f = append(f, "-I", path.Clean(inc))
	}
	return f
}

func sortedKeys(m preprocessor.MapFS) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
