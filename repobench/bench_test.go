package main

import (
	"strings"
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	// unit [0,100] has two overlapping children and one running past its
	// end; a grandchild counts only against its own parent.
	spans := []span{
		sp(1, 0, "unit", 0, 100),
		sp(2, 1, "fmlr", 10, 60),
		sp(3, 2, "region", 20, 30),
		sp(4, 2, "region", 25, 55),
		sp(5, 1, "analysis", 50, 80),
		sp(6, 1, "link", 90, 120),
	}
	tree := newSpanTree(spans)
	// Children of unit cover [10,80] and [90,100]: 80 of 100.
	if got := tree.self(spans[0]); got != 20 {
		t.Errorf("unit self = %v, want 20", got)
	}
	// Regions overlap on [25,30]; their union is [20,55], 35 of fmlr's 50.
	if got := tree.self(spans[1]); got != 15 {
		t.Errorf("fmlr self = %v, want 15", got)
	}
	if got := tree.selfTotal("region"); got != 10+30 {
		t.Errorf("region self total = %v, want 40", got)
	}
	if got := tree.minCoverage("unit"); got != 0.8 {
		t.Errorf("unit coverage = %v, want 0.8", got)
	}
}

func TestCoveredDisjointAndContained(t *testing.T) {
	parent := sp(1, 0, "p", 0, 100)
	cases := []struct {
		children []span
		want     time.Duration
	}{
		{nil, 0},
		{[]span{sp(2, 1, "c", 0, 10), sp(3, 1, "c", 20, 30)}, 20},
		{[]span{sp(2, 1, "c", 10, 90), sp(3, 1, "c", 20, 30)}, 80},
		{[]span{sp(2, 1, "c", 40, 50), sp(3, 1, "c", 0, 45)}, 50},
		{[]span{sp(2, 1, "c", 100, 110), sp(3, 1, "c", -10, 0)}, 0},
	}
	for i, c := range cases {
		if got := covered(parent, c.children); got != c.want {
			t.Errorf("case %d: covered = %v, want %v", i, got, c.want)
		}
	}
}

func TestTracerRecordsParentsAndNilIsSilent(t *testing.T) {
	var off *tracer
	if id := off.begin("x", "k", 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(0)

	tr := newTracer()
	u := tr.begin("unit", "a.c", 0)
	c := tr.begin("fmlr", "a.c", u)
	tr.end(c)
	tr.end(u)
	if len(tr.spans) != 2 || tr.spans[1].Parent != u || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: the helper must sort
	}
	return s
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	_, err := percentile(seq(20), 0.51)
	if err == nil || !strings.Contains(err.Error(), "20 samples") {
		t.Errorf("p51 of 20 samples: err = %v, want a refusal naming the sample count", err)
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must be refused")
	}
}

func TestTailFallsBackToHighestSupportedPercentile(t *testing.T) {
	v, pct, err := tail(seq(25))
	if err != nil || pct != 60 || v != 15 {
		t.Errorf("tail of 1..25 = %v at p%d, %v; want 15 at p60", v, pct, err)
	}
	if _, pct, err := tail(seq(2000)); err != nil || pct != 99 {
		t.Errorf("tail of 2000 samples = p%d, %v; want p99", pct, err)
	}
	if _, _, err := tail(seq(15)); err == nil {
		t.Error("15 samples support no percentile from p50 up")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestDigestsCompareAgainstFirstOutputPerKey(t *testing.T) {
	d := newDigests()
	if !d.check("a", []byte("x")) || !d.check("b", []byte("y")) {
		t.Fatal("a key's first output must match")
	}
	if !d.check("a", []byte("x")) {
		t.Error("identical output reported as a mismatch")
	}
	if d.check("a", []byte("x ")) {
		t.Error("changed output not reported")
	}
	if d.check("b", []byte("x")) {
		t.Error("another key's output accepted")
	}
	if !d.check("a", []byte("x")) {
		t.Error("a mismatch replaced the key's reference output")
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				rs := tr.begin("request", "k", 0)
				ds := tr.begin("daemon", "k", rs)
				tr.end(ds)
				tr.end(rs)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	tree := newSpanTree(tr.spans)
	if len(tr.spans) != 800 || len(tree.children) != 400 {
		t.Fatalf("%d spans, %d parents; want 800 and 400", len(tr.spans), len(tree.children))
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
}
