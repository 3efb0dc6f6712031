package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one outlier, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1). It
// refuses, with an error naming the sample count, when fewer than minBeyond
// samples lie beyond the chosen rank.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", 100*q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g: %d samples leave %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tail returns p99 when the samples support it, and otherwise the highest
// whole percentile from p98 down to p50 that keeps minBeyond samples above
// it, together with the percentile used.
func tail(samples []float64) (v float64, pct int, err error) {
	for pct = 99; pct >= 50; pct-- {
		if v, err = percentile(samples, float64(pct)/100); err == nil {
			return v, pct, nil
		}
	}
	return 0, 0, err
}

// median is the middle sample (mean of the two middle ones for even n).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digests checks that every output recorded under a key is byte-identical
// to the first one recorded under it.
type digests struct {
	first map[string]string
}

func newDigests() *digests { return &digests{first: map[string]string{}} }

// check records out under key and reports whether it matches the first
// output recorded under that key (the first always matches).
func (d *digests) check(key string, out []byte) bool {
	sum := digest(out)
	ref, seen := d.first[key]
	if !seen {
		d.first[key] = sum
		return true
	}
	return sum == ref
}
