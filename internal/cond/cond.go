// Package cond implements presence conditions: the boolean formulas over
// configuration variables under which a fragment of source code is present.
//
// SuperC proper represents presence conditions as BDDs (paper §3.2), which
// are canonical — equality and infeasibility tests are constant-time. The
// paper's evaluation compares against TypeChef, which keeps conditions
// symbolic and decides feasibility by converting to CNF for a SAT solver
// (§6.3). A Space therefore has two modes: ModeBDD (SuperC) and ModeSAT
// (the TypeChef-style baseline); the rest of the system is written against
// Space/Cond and gets either cost model transparently.
package cond

import (
	"sync"
	"sync/atomic"

	"repro/internal/bdd"
	"repro/internal/guard"
	"repro/internal/sat"
)

// Mode selects the presence-condition representation.
type Mode int

// Representation modes.
const (
	ModeBDD Mode = iota // canonical BDDs (SuperC)
	ModeSAT             // expression trees + CNF/DPLL (TypeChef baseline)
)

// ModeByName resolves a -mode name ("bdd" or "sat"; "" is the default,
// "bdd") for the CLIs and the daemon protocol.
func ModeByName(name string) (Mode, bool) {
	switch name {
	case "", "bdd":
		return ModeBDD, true
	case "sat":
		return ModeSAT, true
	}
	return 0, false
}

// SatStats accumulates the work done by SAT-mode feasibility checks.
type SatStats struct {
	Checks       int   // number of satisfiability queries
	Clauses      int64 // total CNF clauses generated
	Literals     int64 // total CNF literals generated
	NaiveBlowups int   // conversions that tripped the naive-CNF limit
	GaveUps      int   // searches that hit the budget and used the oracle
}

// HotStats counts presence-condition operations and how many were resolved
// by the simplification layer without touching the backing representation
// (BDD apply / SAT expression build). The parser's guard conjunctions are
// dominated by operations against True, False, and an operand itself, so
// the fast-path ratio is a direct read on how much BDD work the layer
// short-circuits.
type HotStats struct {
	Ops       int64 // And/Or/Not/AndNot calls
	FastPaths int64 // resolved by the simplification layer
	VarHits   int64 // Var() calls served by the intern table
}

// Space creates and combines presence conditions. It is safe for concurrent
// use: the BDD factory is internally sharded, the intern tables take
// per-space locks, and the Hot counters are updated atomically — intra-unit
// parallel subparsers and the daemon's request handlers share one Space.
// Stats and Hot are coherent only once concurrent operations have quiesced
// (after a parse, not during one).
type Space struct {
	mode Mode
	bf   *bdd.Factory

	// SAT mode configuration and accounting. All SAT-mode mutable state —
	// Stats, the feasibility/interning memos, and the shadow factory memo —
	// is guarded by one satMu: the SAT baseline's cost model is inherently
	// sequential (it is the foil the BDD mode is measured against), so a
	// single lock is fidelity, not a bottleneck.
	NaiveLimit int // clause cap before falling back to Tseitin; 0 = unlimited
	Stats      SatStats
	Hot        HotStats
	satMu      sync.Mutex

	// vars interns Var() results in both modes: hot guard variables are
	// re-looked-up at every use site, and the cond-level table answers
	// without touching the backend's name index or unique table.
	varMu sync.RWMutex
	vars  map[string]Cond
	// falseMemo caches SAT-mode feasibility verdicts per expression node.
	// TypeChef memoizes feature-expression queries the same way; without it
	// the repeated feasibility checks on long-lived conditions (macro-table
	// entries, branch conditions) would swamp everything else.
	falseMemo map[*sat.Expr]bool
	// Structural interning of SAT-mode expressions (hash-consing): the same
	// (op, operands) combination yields the same node, so the feasibility
	// memo keeps hitting for conditions rebuilt at every use site. The
	// formulas themselves remain symbolic — feasibility still costs a
	// CNF+DPLL run the first time each distinct formula is queried, which is
	// the cost model under study.
	varIntern map[string]*sat.Expr
	binIntern map[binKey]*sat.Expr
	notIntern map[*sat.Expr]*sat.Expr
	// shadow supplies exact verdicts when the budgeted DPLL gives up: the
	// real TypeChef's production solver (sat4j) decides these instances;
	// the measured cost still includes the CNF conversion and the budgeted
	// search, which are the quantities under study.
	shadow     *bdd.Factory
	shadowMemo map[*sat.Expr]bdd.Node
}

type binKey struct {
	op   sat.Op
	a, b *sat.Expr
}

// NewSpace returns a presence-condition space in the given mode.
func NewSpace(mode Mode) *Space {
	s := &Space{mode: mode, NaiveLimit: 1 << 10, vars: make(map[string]Cond)}
	if mode == ModeBDD {
		s.bf = bdd.NewFactory()
	} else {
		s.falseMemo = make(map[*sat.Expr]bool)
		s.varIntern = make(map[string]*sat.Expr)
		s.binIntern = make(map[binKey]*sat.Expr)
		s.notIntern = make(map[*sat.Expr]*sat.Expr)
		s.shadow = bdd.NewFactory()
		s.shadowMemo = make(map[*sat.Expr]bdd.Node)
	}
	return s
}

// isTrueC / isFalseC are the constant screens of the simplification layer:
// identity checks in BDD mode, constant-node checks in SAT mode. They never
// touch the solver.
func (s *Space) isTrueC(a Cond) bool {
	if s.mode == ModeBDD {
		return a.n == bdd.True
	}
	return a.e != nil && a.e.Op == sat.OpConst && a.e.Value
}

func (s *Space) isFalseC(a Cond) bool {
	if s.mode == ModeBDD {
		return a.n == bdd.False
	}
	return a.e != nil && a.e.Op == sat.OpConst && !a.e.Value
}

// same reports representational identity — in BDD mode this is semantic
// equality (canonicity); in SAT mode it is pointer identity of interned
// expressions, a sound but incomplete equality.
func (s *Space) same(a, b Cond) bool {
	if s.mode == ModeBDD {
		return a.n == b.n
	}
	return a.e == b.e
}

// Mode returns the space's representation mode.
func (s *Space) Mode() Mode { return s.mode }

// SetBudget attaches a resource budget to the space's backing
// representation: in ModeBDD every allocated BDD node charges
// guard.AxisBDDNodes. Pass nil to detach. SAT mode has its own NaiveLimit
// cost model and is not budgeted here.
func (s *Space) SetBudget(b *guard.Budget) {
	if s.bf != nil {
		s.bf.SetBudget(b)
	}
}

// BDD exposes the underlying BDD factory in ModeBDD (nil otherwise); used by
// tests and diagnostics.
func (s *Space) BDD() *bdd.Factory { return s.bf }

// Cond is a presence condition within a Space. The zero Cond is invalid; use
// Space.True and friends. Conds from different spaces must not be mixed.
type Cond struct {
	n bdd.Node  // ModeBDD
	e *sat.Expr // ModeSAT
}

// True returns the always-present condition.
func (s *Space) True() Cond {
	if s.mode == ModeBDD {
		return Cond{n: bdd.True}
	}
	return Cond{e: sat.TrueExpr}
}

// False returns the never-present condition.
func (s *Space) False() Cond {
	if s.mode == ModeBDD {
		return Cond{n: bdd.False}
	}
	return Cond{e: sat.FalseExpr}
}

// Var returns the condition for a single boolean configuration variable.
// Results are interned per space, so hot guard variables resolve without
// touching the backend.
func (s *Space) Var(name string) Cond {
	s.varMu.RLock()
	c, ok := s.vars[name]
	s.varMu.RUnlock()
	if ok {
		atomic.AddInt64(&s.Hot.VarHits, 1)
		return c
	}
	s.varMu.Lock()
	defer s.varMu.Unlock()
	if c, ok := s.vars[name]; ok {
		atomic.AddInt64(&s.Hot.VarHits, 1)
		return c
	}
	if s.mode == ModeBDD {
		c = Cond{n: s.bf.Var(name)}
	} else {
		e := sat.Var(name)
		s.varIntern[name] = e
		c = Cond{e: e}
	}
	s.vars[name] = c
	return c
}

// And returns the conjunction a ∧ b. Operations against True, False, and an
// operand itself short-circuit in the simplification layer before reaching
// the BDD engine (or building a SAT expression).
func (s *Space) And(a, b Cond) Cond {
	atomic.AddInt64(&s.Hot.Ops, 1)
	switch {
	case s.isTrueC(a):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return b
	case s.isTrueC(b):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return a
	case s.isFalseC(a):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return a
	case s.isFalseC(b):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return b
	case s.same(a, b):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return a
	}
	if s.mode == ModeBDD {
		return Cond{n: s.bf.And(a.n, b.n)}
	}
	return Cond{e: s.internBin(sat.OpAnd, a.e, b.e, sat.And)}
}

// Or returns the disjunction a ∨ b.
func (s *Space) Or(a, b Cond) Cond {
	atomic.AddInt64(&s.Hot.Ops, 1)
	switch {
	case s.isFalseC(a):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return b
	case s.isFalseC(b):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return a
	case s.isTrueC(a):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return a
	case s.isTrueC(b):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return b
	case s.same(a, b):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return a
	}
	if s.mode == ModeBDD {
		return Cond{n: s.bf.Or(a.n, b.n)}
	}
	return Cond{e: s.internBin(sat.OpOr, a.e, b.e, sat.Or)}
}

// Not returns the negation ¬a.
func (s *Space) Not(a Cond) Cond {
	atomic.AddInt64(&s.Hot.Ops, 1)
	switch {
	case s.isTrueC(a):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return s.False()
	case s.isFalseC(a):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return s.True()
	}
	if s.mode == ModeBDD {
		return Cond{n: s.bf.Not(a.n)}
	}
	s.satMu.Lock()
	defer s.satMu.Unlock()
	if e, ok := s.notIntern[a.e]; ok {
		return Cond{e: e}
	}
	e := sat.Not(a.e)
	s.notIntern[a.e] = e
	return Cond{e: e}
}

// internBin memoizes binary combinations so identical (op, operands)
// rebuilds return the same node.
func (s *Space) internBin(op sat.Op, a, b *sat.Expr, mk func(...*sat.Expr) *sat.Expr) *sat.Expr {
	key := binKey{op: op, a: a, b: b}
	s.satMu.Lock()
	defer s.satMu.Unlock()
	if e, ok := s.binIntern[key]; ok {
		return e
	}
	e := mk(a, b)
	s.binIntern[key] = e
	return e
}

// AndNot returns a ∧ ¬b, the trim operation used when later macro
// definitions carve conditions out of earlier ones.
func (s *Space) AndNot(a, b Cond) Cond {
	atomic.AddInt64(&s.Hot.Ops, 1)
	switch {
	case s.isFalseC(a), s.isTrueC(b):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return s.False()
	case s.isFalseC(b):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return a
	case s.same(a, b):
		atomic.AddInt64(&s.Hot.FastPaths, 1)
		return s.False()
	}
	return s.And(a, s.Not(b))
}

// IsFalse reports whether the condition is unsatisfiable — the feasibility
// test at the heart of configuration-preserving processing. In ModeBDD this
// is a constant-time identity check; in ModeSAT it performs a CNF conversion
// and DPLL search, accumulating Stats.
func (s *Space) IsFalse(a Cond) bool {
	if s.mode == ModeBDD {
		return a.n == bdd.False
	}
	// Fast syntactic screens before paying for conversion.
	if a.e.Op == sat.OpConst {
		return !a.e.Value
	}
	s.satMu.Lock()
	defer s.satMu.Unlock()
	if v, ok := s.falseMemo[a.e]; ok {
		return v
	}
	satisfiable, stats, gaveUp := sat.ExprSatisfiable(a.e, s.NaiveLimit)
	s.Stats.Checks++
	s.Stats.Clauses += int64(stats.Clauses)
	s.Stats.Literals += int64(stats.Literals)
	if stats.AuxVars > 0 {
		s.Stats.NaiveBlowups++
	}
	if gaveUp {
		s.Stats.GaveUps++
		satisfiable = s.shadowNode(a.e) != bdd.False
	}
	s.falseMemo[a.e] = !satisfiable
	return !satisfiable
}

// shadowNode converts a SAT-mode expression to the shadow BDD (memoized per
// interned node). The caller holds satMu.
func (s *Space) shadowNode(e *sat.Expr) bdd.Node {
	if n, ok := s.shadowMemo[e]; ok {
		return n
	}
	var n bdd.Node
	switch e.Op {
	case sat.OpConst:
		n = bdd.False
		if e.Value {
			n = bdd.True
		}
	case sat.OpVar:
		n = s.shadow.Var(e.Name)
	case sat.OpNot:
		n = s.shadow.Not(s.shadowNode(e.Args[0]))
	case sat.OpAnd:
		n = bdd.True
		for _, a := range e.Args {
			n = s.shadow.And(n, s.shadowNode(a))
		}
	case sat.OpOr:
		n = bdd.False
		for _, a := range e.Args {
			n = s.shadow.Or(n, s.shadowNode(a))
		}
	}
	s.shadowMemo[e] = n
	return n
}

// IsTrue reports whether the condition is valid (always present).
func (s *Space) IsTrue(a Cond) bool {
	if s.mode == ModeBDD {
		return a.n == bdd.True
	}
	if a.e.Op == sat.OpConst {
		return a.e.Value
	}
	return s.IsFalse(s.Not(a))
}

// Equal reports whether two conditions denote the same boolean function.
// In ModeSAT the check routes through IsFalse so its memo (and expression
// interning) amortizes the repeated equality tests expansion performs.
func (s *Space) Equal(a, b Cond) bool {
	if s.mode == ModeBDD {
		return a.n == b.n
	}
	if a.e == b.e {
		return true
	}
	return s.IsFalse(s.AndNot(a, b)) && s.IsFalse(s.AndNot(b, a))
}

// Implies reports whether a entails b. Trivial entailments (a false, b
// true, a identical to b) resolve without a feasibility query — in SAT mode
// that skips a CNF conversion and solver run.
func (s *Space) Implies(a, b Cond) bool {
	if s.isFalseC(a) || s.isTrueC(b) || s.same(a, b) {
		return true
	}
	return s.IsFalse(s.AndNot(a, b))
}

// Disjoint reports whether a ∧ b is unsatisfiable.
func (s *Space) Disjoint(a, b Cond) bool {
	if s.isFalseC(a) || s.isFalseC(b) {
		return true
	}
	if s.same(a, b) {
		return s.IsFalse(a)
	}
	return s.IsFalse(s.And(a, b))
}

// Eval evaluates the condition under a configuration; absent variables are
// false.
func (s *Space) Eval(a Cond, assign map[string]bool) bool {
	if s.mode == ModeBDD {
		return s.bf.Eval(a.n, assign)
	}
	return a.e.Eval(assign)
}

// String renders the condition for diagnostics.
func (s *Space) String(a Cond) string {
	if s.mode == ModeBDD {
		return s.bf.String(a.n)
	}
	return a.e.String()
}

// SatCount returns the number of configurations satisfying a over the
// variables created so far (ModeBDD only; panics in ModeSAT).
func (s *Space) SatCount(a Cond) float64 {
	if s.mode != ModeBDD {
		panic("cond: SatCount requires ModeBDD")
	}
	return s.bf.SatCount(a.n)
}

// SatOne returns one configuration satisfying a — a witness assignment for
// diagnostics; variables absent from the map are don't-cares (Eval treats
// them as false). ok is false when a is unsatisfiable. In ModeBDD the
// witness follows the diagram's preferring-false path and is deterministic;
// in ModeSAT it is the DPLL solver's model, falling back to the exact
// shadow BDD when the budgeted search gives up.
func (s *Space) SatOne(a Cond) (assign map[string]bool, ok bool) {
	if s.mode == ModeBDD {
		return s.bf.SatOne(a.n)
	}
	if a.e.Op == sat.OpConst {
		if a.e.Value {
			return map[string]bool{}, true
		}
		return nil, false
	}
	s.satMu.Lock()
	defer s.satMu.Unlock()
	model, satisfiable, gaveUp := sat.ExprSolve(a.e, s.NaiveLimit)
	s.Stats.Checks++
	if gaveUp {
		s.Stats.GaveUps++
		return s.shadow.SatOne(s.shadowNode(a.e))
	}
	if !satisfiable {
		return nil, false
	}
	return model, true
}
