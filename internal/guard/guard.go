// Package guard is the unified resource governor for the pipeline. A
// per-unit Budget carries a context.Context deadline plus counters with
// configurable ceilings — wall-clock, lexed tokens, macro-expansion steps,
// hoisted-conditional product size, BDD nodes allocated, and live subparser
// count (subsuming the FMLR kill switch of Figure 8). Every stage checks the
// budget at its loop head; on trip the stage stops early and the unit
// degrades to a partial result carrying a structured Diagnostic instead of
// panicking or hanging.
//
// All Budget methods are nil-safe: a nil *Budget is the released
// configuration and costs one pointer comparison per check, so stages thread
// the budget unconditionally.
package guard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Axis names one budgeted resource. The zero value AxisNone means
// "not tripped".
type Axis int32

const (
	AxisNone Axis = iota
	// AxisWall is the per-unit wall-clock deadline.
	AxisWall
	// AxisCancel is external cancellation via the unit's context.
	AxisCancel
	// AxisTokens bounds tokens produced by the lexer.
	AxisTokens
	// AxisMacroSteps bounds macro-expansion rescanning steps.
	AxisMacroSteps
	// AxisHoist bounds the product size of hoisted conditionals
	// (Algorithm 1's worst case is exponential in nesting depth).
	AxisHoist
	// AxisBDDNodes bounds BDD nodes allocated for presence conditions.
	AxisBDDNodes
	// AxisSubparsers bounds the live subparser count (the paper's
	// Figure 8 kill switch).
	AxisSubparsers
	// AxisFault marks a trip forced by the fault-injection layer.
	AxisFault

	// NumAxes sizes per-axis counter vectors.
	NumAxes
)

var axisNames = [NumAxes]string{
	AxisNone:       "none",
	AxisWall:       "wall-clock",
	AxisCancel:     "cancelled",
	AxisTokens:     "tokens",
	AxisMacroSteps: "macro-steps",
	AxisHoist:      "hoist-product",
	AxisBDDNodes:   "bdd-nodes",
	AxisSubparsers: "subparsers",
	AxisFault:      "fault-injected",
}

func (a Axis) String() string {
	if a < 0 || a >= NumAxes {
		return fmt.Sprintf("axis(%d)", int32(a))
	}
	return axisNames[a]
}

// Limits configures the ceilings for one Budget. A zero field means
// "unlimited" on that axis.
type Limits struct {
	Wall       time.Duration // per-unit wall-clock budget
	Tokens     int64         // lexed tokens
	MacroSteps int64         // macro-expansion rescanning steps
	Hoist      int64         // hoisted-conditional product size
	BDDNodes   int64         // BDD nodes allocated
	Subparsers int64         // live subparsers (Figure 8 kill switch)
}

// Zero reports whether no ceiling is configured.
func (l Limits) Zero() bool {
	return l == Limits{}
}

func (l Limits) axis(a Axis) int64 {
	switch a {
	case AxisTokens:
		return l.Tokens
	case AxisMacroSteps:
		return l.MacroSteps
	case AxisHoist:
		return l.Hoist
	case AxisBDDNodes:
		return l.BDDNodes
	case AxisSubparsers:
		return l.Subparsers
	}
	return 0
}

// Diagnostic is the structured record of a budget trip: which stage hit
// which axis, how far over, under what presence condition, and how much
// partial progress the stage had made. It implements error.
type Diagnostic struct {
	Stage    string // pipeline stage that observed the trip
	Axis     Axis   // budget axis that tripped
	Limit    int64  // configured ceiling (ns for AxisWall, 0 when n/a)
	Value    int64  // observed value at trip time
	Cond     string // presence condition of the offending region, if known
	Progress string // human-readable partial-progress note
}

func (d *Diagnostic) Error() string {
	s := fmt.Sprintf("budget exceeded: %s at stage %s", d.Axis, d.Stage)
	if d.Limit > 0 {
		if d.Axis == AxisWall {
			s += fmt.Sprintf(" (%v elapsed, limit %v)",
				time.Duration(d.Value), time.Duration(d.Limit))
		} else {
			s += fmt.Sprintf(" (%d, limit %d)", d.Value, d.Limit)
		}
	}
	if d.Cond != "" {
		s += " under " + d.Cond
	}
	if d.Progress != "" {
		s += "; " + d.Progress
	}
	return s
}

// PollInterval is how many Tick/Charge calls elapse between wall-clock and
// context polls. Checking time.Now on every loop iteration would dominate
// tight loops; every 256th call keeps overhead in the noise while bounding
// overshoot to a fraction of a millisecond of work. Loops that keep their
// own tick count call PollNow at the same interval.
const PollInterval = 256

// Budget is one unit's resource account. It is safe for concurrent use:
// intra-unit parallel subparsers charge one shared budget, so the counters
// are atomic, Observe is a CAS high-water update, and the trip record is an
// atomic pointer (first trip wins under any interleaving). Charges are
// monotone, so a trip can overshoot by at most the in-flight charges of the
// racing goroutines — the same overshoot the amortized poller already
// accepts. trip sits on a cache line of its own: every loop head of every
// region worker reads it, and the counters beside it are written.
type Budget struct {
	ctx      context.Context
	limits   Limits
	deadline time.Time // zero when no wall limit and no ctx deadline
	start    time.Time
	counters [NumAxes]int64
	polls    int32
	_        [64]byte
	trip     atomic.Pointer[Diagnostic]
	_        [64]byte
	annMu    sync.Mutex // serializes Annotate's read-modify-write of the trip
}

// New builds a Budget from a context and limits. The effective deadline is
// the earlier of the context's deadline and now+limits.Wall. New never
// returns nil: even with zero limits the budget still propagates context
// cancellation into in-flight stages.
func New(ctx context.Context, limits Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx, limits: limits, start: time.Now()}
	if limits.Wall > 0 {
		b.deadline = b.start.Add(limits.Wall)
	}
	if d, ok := ctx.Deadline(); ok && (b.deadline.IsZero() || d.Before(b.deadline)) {
		b.deadline = d
	}
	return b
}

// Context returns the unit's context (context.Background for nil budgets).
func (b *Budget) Context() context.Context {
	if b == nil || b.ctx == nil {
		return context.Background()
	}
	return b.ctx
}

// Limits returns the configured ceilings.
func (b *Budget) Limits() Limits {
	if b == nil {
		return Limits{}
	}
	return b.limits
}

// Tripped reports whether any axis has tripped. Nil-safe and cheap: one
// pointer load.
func (b *Budget) Tripped() bool {
	return b != nil && b.trip.Load() != nil
}

// Trip returns the first trip's diagnostic, or nil.
func (b *Budget) Trip() *Diagnostic {
	if b == nil {
		return nil
	}
	return b.trip.Load()
}

// Counter returns the charged total on one axis (high-water for
// AxisSubparsers).
func (b *Budget) Counter(a Axis) int64 {
	if b == nil || a < 0 || a >= NumAxes {
		return 0
	}
	return atomic.LoadInt64(&b.counters[a])
}

// record installs d as the trip unless one is already set. First trip wins:
// downstream stages observing an already-tripped budget unwind without
// overwriting the original cause.
func (b *Budget) record(d *Diagnostic) {
	b.trip.CompareAndSwap(nil, d)
}

// Charge adds n to axis a's counter and trips when the configured ceiling
// is crossed. It also performs the periodic wall-clock/context poll.
// Returns true while the budget holds; false once tripped (by this charge
// or earlier), at which point the caller should stop its loop and degrade.
func (b *Budget) Charge(stage string, a Axis, n int64) bool {
	if b == nil {
		return true
	}
	if b.trip.Load() != nil {
		return false
	}
	v := atomic.AddInt64(&b.counters[a], n)
	if lim := b.limits.axis(a); lim > 0 && v > lim {
		b.record(&Diagnostic{Stage: stage, Axis: a, Limit: lim, Value: v})
		return false
	}
	return b.poll(stage)
}

// Observe records a high-water level on axis a (used for live-population
// axes like subparsers, where the meaningful number is the peak, not a
// running total) and trips when it exceeds the ceiling.
func (b *Budget) Observe(stage string, a Axis, v int64) bool {
	if b == nil {
		return true
	}
	if b.trip.Load() != nil {
		return false
	}
	for {
		cur := atomic.LoadInt64(&b.counters[a])
		if v <= cur || atomic.CompareAndSwapInt64(&b.counters[a], cur, v) {
			break
		}
	}
	if lim := b.limits.axis(a); lim > 0 && v > lim {
		b.record(&Diagnostic{Stage: stage, Axis: a, Limit: lim, Value: v})
		return false
	}
	return b.poll(stage)
}

// Tick is the loop-head check for stages with nothing to count: it polls
// the wall clock and context every PollInterval calls. Returns true while
// the budget holds.
func (b *Budget) Tick(stage string) bool {
	if b == nil {
		return true
	}
	if b.trip.Load() != nil {
		return false
	}
	return b.poll(stage)
}

func (b *Budget) poll(stage string) bool {
	if atomic.AddInt32(&b.polls, 1)%PollInterval != 0 {
		return true
	}
	return b.PollNow(stage)
}

// PollNow checks the deadline and context immediately (Tick amortizes this
// behind PollInterval). Stage boundaries call it directly so a trip is
// noticed promptly even in stages with few loop iterations, and loops that
// count their own ticks call it every PollInterval of them.
func (b *Budget) PollNow(stage string) bool {
	if b == nil {
		return true
	}
	if b.trip.Load() != nil {
		return false
	}
	if !b.deadline.IsZero() || b.ctx.Done() != nil {
		now := time.Now()
		if !b.deadline.IsZero() && now.After(b.deadline) {
			b.record(&Diagnostic{
				Stage: stage,
				Axis:  AxisWall,
				Limit: int64(b.limits.Wall),
				Value: int64(now.Sub(b.start)),
			})
			return false
		}
		select {
		case <-b.ctx.Done():
			b.record(&Diagnostic{Stage: stage, Axis: AxisCancel})
			return false
		default:
		}
	}
	return true
}

// ForceTrip trips the budget unconditionally on the given axis. The fault
// injector uses it for deterministic budget-exhaust faults; stages may use
// it to convert a local hard limit into a budget trip.
func (b *Budget) ForceTrip(stage string, a Axis) {
	if b == nil {
		return
	}
	b.record(&Diagnostic{Stage: stage, Axis: a, Value: atomic.LoadInt64(&b.counters[a]), Limit: b.limits.axis(a)})
}

// Cancel trips the budget as externally cancelled.
func (b *Budget) Cancel(stage string) {
	if b == nil {
		return
	}
	b.record(&Diagnostic{Stage: stage, Axis: AxisCancel})
}

// maxCondLen bounds the presence-condition string captured into a
// Diagnostic; pathological units are exactly where conditions blow up.
const maxCondLen = 256

// Annotate fills in the presence condition and partial-progress note on an
// existing trip. Stages call it on unwind with whatever context they have;
// the first non-empty value for each field wins.
func (b *Budget) Annotate(cond, progress string) {
	if b == nil {
		return
	}
	d := b.trip.Load()
	if d == nil {
		return
	}
	b.annMu.Lock()
	defer b.annMu.Unlock()
	if d.Cond == "" && cond != "" {
		if len(cond) > maxCondLen {
			cond = cond[:maxCondLen] + "..."
		}
		d.Cond = cond
	}
	if d.Progress == "" && progress != "" {
		d.Progress = progress
	}
}
