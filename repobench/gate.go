package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/lexer"
	"repro/internal/preprocessor"
	"repro/internal/token"
)

// clintWitnessGate fails the run for every diagnostic in clint's JSON whose
// witness configuration did not re-verify.
func (r *run) clintWitnessGate(key string, stdout []byte) {
	var units []struct {
		Diagnostics []daemon.Diag `json:"diagnostics"`
	}
	r.attempted++
	if err := json.Unmarshal(stdout, &units); err != nil {
		r.fail("%s: unreadable JSON: %v", key, err)
		return
	}
	bad := 0
	for _, u := range units {
		for _, d := range u.Diagnostics {
			if !d.WitnessVerified {
				bad++
			}
		}
	}
	if bad > 0 {
		r.fail("%s: %d diagnostics with unverified witnesses", key, bad)
	}
}

// gccPairs is how many seeded (unit, configuration) pairs the gcc gate
// compares on each tree.
var gccPairs = map[string]int{"corpus": 40, "giant": 12}

// gccGate compares SuperC's single-configuration preprocessing with
// gcc -E on a seeded sample of (unit, configuration) pairs; both token
// streams must be equal, or both sides must report an error. gcc runs from
// the tree root with relative paths, and -std=gnu99 fixes
// __STDC_VERSION__, so __FILE__ and the standard macros agree.
func (r *run) gccGate(ctx context.Context, in *inputs) {
	name, t := "corpus", in.corpus
	if r.workload == "giant" {
		name, t = "giant", in.giant
	}
	gcc, err := exec.LookPath("gcc")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gate: gcc is not on PATH; skipping the gcc differential")
		return
	}
	rng := rand.New(rand.NewSource(r.seed))
	agreed, errs := 0, 0
	for i := 0; i < gccPairs[name]; i++ {
		u := t.units[rng.Intn(len(t.units))]
		defs := map[string]string{}
		args := append([]string{"-E", "-P", "-undef", "-nostdinc", "-std=gnu99"}, t.includeFlags()...)
		for _, v := range t.vars {
			if rng.Intn(2) == 0 {
				defs[v] = "1"
				args = append(args, "-D"+v+"=1")
			}
		}
		cmd := exec.CommandContext(ctx, gcc, append(args, u)...)
		cmd.Dir = t.dir
		cmd.Env = r.childEnv(r.dir)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		gccErr := cmd.Run()

		r.attempted++
		tool := core.New(core.Config{FS: t.fs, IncludePaths: t.includes, Defines: defs, SingleConfig: true})
		unit, err := tool.Preprocess(u)
		// A reached #error drops its branch in single-configuration mode
		// and is recorded in unit.Errors rather than as a diagnostic.
		superErr := err != nil || len(unit.Errors) > 0
		if err == nil {
			for _, d := range unit.Diags {
				superErr = superErr || !d.Warning
			}
		}
		if gccErr != nil || superErr {
			if gccErr != nil && superErr {
				agreed++
				errs++
				continue
			}
			r.fail("gcc gate: %s: gcc error %v (%s), SuperC error %t", u, gccErr, firstLine(stderr.Bytes()), superErr)
			continue
		}
		want, err := lexer.Lex("gcc-E", stdout.Bytes())
		if err != nil {
			r.fail("gcc gate: %s: lexing gcc output: %v", u, err)
			continue
		}
		got := texts(preprocessor.Tokens(tool.Space(), unit.EnsureSegments(), nil))
		if w := texts(want); got != w {
			r.fail("gcc gate: %s: token streams differ\n  superc: %.200s\n  gcc:    %.200s", u, got, w)
			continue
		}
		agreed++
	}
	fmt.Fprintf(os.Stderr, "gate: SuperC matched gcc -E on %d/%d %s (unit, configuration) pairs (%d where both report an error)\n",
		agreed, gccPairs[name], name, errs)
}

// texts joins the token texts, dropping layout tokens.
func texts(toks []token.Token) string {
	var b strings.Builder
	for _, t := range toks {
		if t.Kind == token.EOF || t.Kind == token.Newline {
			continue
		}
		b.WriteString(t.Text)
		b.WriteByte(' ')
	}
	return b.String()
}
