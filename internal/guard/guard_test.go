package guard

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestNilBudgetIsNoOp(t *testing.T) {
	var b *Budget
	if !b.Charge("lex", AxisTokens, 100) {
		t.Fatal("nil budget charged")
	}
	if !b.Observe("fmlr", AxisSubparsers, 1<<40) {
		t.Fatal("nil budget observed")
	}
	if !b.Tick("pp") {
		t.Fatal("nil budget ticked")
	}
	if b.Tripped() || b.Trip() != nil {
		t.Fatal("nil budget tripped")
	}
	b.ForceTrip("x", AxisFault)
	b.Cancel("x")
	b.Annotate("c", "p")
	if b.Context() == nil {
		t.Fatal("nil budget context")
	}
	if !b.Limits().Zero() {
		t.Fatal("nil budget limits")
	}
}

func TestChargeTripsAtCeiling(t *testing.T) {
	b := New(context.Background(), Limits{Tokens: 10})
	for i := 0; i < 10; i++ {
		if !b.Charge("lex", AxisTokens, 1) {
			t.Fatalf("tripped early at %d", i)
		}
	}
	if b.Charge("lex", AxisTokens, 1) {
		t.Fatal("no trip past ceiling")
	}
	d := b.Trip()
	if d == nil || d.Axis != AxisTokens || d.Stage != "lex" || d.Limit != 10 || d.Value != 11 {
		t.Fatalf("bad diagnostic: %+v", d)
	}
	// Subsequent charges on any axis keep failing; first trip wins.
	if b.Charge("pp", AxisMacroSteps, 1) {
		t.Fatal("charge succeeded after trip")
	}
	if got := b.Trip(); got != d {
		t.Fatalf("trip overwritten: %+v", got)
	}
}

func TestObserveHighWater(t *testing.T) {
	b := New(context.Background(), Limits{Subparsers: 16})
	b.Observe("fmlr", AxisSubparsers, 5)
	b.Observe("fmlr", AxisSubparsers, 12)
	b.Observe("fmlr", AxisSubparsers, 3)
	if got := b.Counter(AxisSubparsers); got != 12 {
		t.Fatalf("high-water = %d, want 12", got)
	}
	if b.Observe("fmlr", AxisSubparsers, 17) {
		t.Fatal("no trip past ceiling")
	}
	if d := b.Trip(); d == nil || d.Axis != AxisSubparsers || d.Value != 17 {
		t.Fatalf("bad diagnostic: %+v", d)
	}
}

func TestWallDeadline(t *testing.T) {
	b := New(context.Background(), Limits{Wall: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	if b.PollNow("pp") {
		t.Fatal("no trip past deadline")
	}
	d := b.Trip()
	if d == nil || d.Axis != AxisWall {
		t.Fatalf("bad diagnostic: %+v", d)
	}
	if d.Value < int64(time.Millisecond) {
		t.Fatalf("elapsed %v under limit", time.Duration(d.Value))
	}
}

func TestTickPollsEventually(t *testing.T) {
	b := New(context.Background(), Limits{Wall: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	tripped := false
	for i := 0; i < 2*PollInterval; i++ {
		if !b.Tick("pp") {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("Tick never observed the expired deadline")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{})
	if !b.PollNow("pp") {
		t.Fatal("tripped before cancel")
	}
	cancel()
	if b.PollNow("pp") {
		t.Fatal("no trip after cancel")
	}
	if d := b.Trip(); d == nil || d.Axis != AxisCancel {
		t.Fatalf("bad diagnostic: %+v", d)
	}
}

func TestContextDeadlineTightensWall(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Millisecond))
	defer cancel()
	b := New(ctx, Limits{Wall: time.Hour})
	if b.deadline.After(time.Now().Add(time.Second)) {
		t.Fatal("ctx deadline did not tighten the wall limit")
	}
}

func TestAnnotateAndError(t *testing.T) {
	b := New(context.Background(), Limits{Hoist: 4})
	b.Annotate("(defined A)", "ignored: no trip yet")
	if d := b.Trip(); d != nil {
		t.Fatalf("annotate created a trip: %+v", d)
	}
	b.Charge("preprocessor", AxisHoist, 5)
	b.Annotate("(defined A)", "3 of 9 branches hoisted")
	b.Annotate("(defined B)", "later annotation loses")
	d := b.Trip()
	if d.Cond != "(defined A)" || d.Progress != "3 of 9 branches hoisted" {
		t.Fatalf("bad annotation: %+v", d)
	}
	msg := d.Error()
	for _, want := range []string{"hoist-product", "preprocessor", "limit 4", "(defined A)", "branches hoisted"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q missing %q", msg, want)
		}
	}
	// Long conditions are truncated.
	b2 := New(context.Background(), Limits{Tokens: 1})
	b2.Charge("lex", AxisTokens, 2)
	b2.Annotate(strings.Repeat("x", 10*maxCondLen), "")
	if got := len(b2.Trip().Cond); got > maxCondLen+3 {
		t.Fatalf("cond not truncated: %d chars", got)
	}
}

func TestForceTripAndCancelMethods(t *testing.T) {
	b := New(context.Background(), Limits{})
	b.ForceTrip("fault", AxisFault)
	if d := b.Trip(); d == nil || d.Axis != AxisFault || d.Stage != "fault" {
		t.Fatalf("bad diagnostic: %+v", d)
	}
	b2 := New(context.Background(), Limits{})
	b2.Cancel("harness")
	if d := b2.Trip(); d == nil || d.Axis != AxisCancel {
		t.Fatalf("bad diagnostic: %+v", d)
	}
}

func TestAxisStrings(t *testing.T) {
	for a := AxisNone; a < NumAxes; a++ {
		if s := a.String(); s == "" || strings.HasPrefix(s, "axis(") {
			t.Fatalf("axis %d has no name", a)
		}
	}
	if s := Axis(99).String(); s != "axis(99)" {
		t.Fatalf("out-of-range axis: %q", s)
	}
}
