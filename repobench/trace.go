package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent is the enclosing span's ID (0 for a
// root); Key names the unit or request the span belongs to.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Key    string        `json:"key"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so one code path serves the traced and the untraced run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, key string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's: children of a region-parallel parse overlap, so summing
// their durations would count shared time twice.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// spanTree indexes a finished trace by parent.
type spanTree struct {
	spans    []span
	children map[int][]span
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: map[int][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// self is a span's duration minus the time its children cover.
func (t *spanTree) self(s span) time.Duration { return s.dur() - covered(s, t.children[s.ID]) }

// selfTotal sums the self time of every span with the given name.
func (t *spanTree) selfTotal(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += t.self(s)
		}
	}
	return d
}

// minCoverage is the smallest share of a named span's duration that its
// children cover, over every span with that name (1 when there are none).
func (t *spanTree) minCoverage(name string) float64 {
	low := 1.0
	for _, s := range t.spans {
		if s.Name == name && s.dur() > 0 {
			low = min(low, float64(covered(s, t.children[s.ID]))/float64(s.dur()))
		}
	}
	return low
}
