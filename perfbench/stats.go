package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples than this is one outlier.
const tailMinBeyond = 10

// dist is one latency (or size) distribution, reduced the way every
// timing metric of the benchmark is reported: its median, and its tail —
// p99 when at least tailMinBeyond samples lie beyond it, otherwise the
// highest percentile that still has that many beyond it.
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// quantile is the nearest-rank q-quantile (0 on an empty distribution).
func (d dist) quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return d.sorted[k-1]
}

func (d dist) median() float64 { return d.quantile(0.5) }

// tail returns the tail value and the percentile it sits at (0.99 or
// lower). ok is false when fewer than tailMinBeyond+1 samples exist; the
// value is then the maximum.
func (d dist) tail() (value, q float64, ok bool) {
	n := len(d.sorted)
	if n == 0 {
		return 0, 0, false
	}
	if n <= tailMinBeyond {
		return d.sorted[n-1], 1, false
	}
	k := int(math.Ceil(0.99 * float64(n)))
	if k > n-tailMinBeyond {
		k = n - tailMinBeyond
	}
	return d.sorted[k-1], float64(k) / float64(n), true
}

func (d dist) mean() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	var s float64
	for _, x := range d.sorted {
		s += x
	}
	return s / float64(len(d.sorted))
}

// Steady statistics. On a shared host, neighbour load (hypervisor steal,
// a busy sibling hyperthread) comes in bursts of a few seconds that slow
// every sample they cover; it never speeds one up. A run's samples, in
// time order, are cut into up to steadyBlocks equal blocks of at least
// steadyMinBlock samples, and the reported figure is the lower quartile
// of the per-block statistic, so bursts move it only when they cover
// most of the run. (The lowest block was tried too: how quiet a run's
// quietest stretch is varies more from run to run than this.)
const (
	steadyBlocks   = 15
	steadyMinBlock = 100
)

// steady returns the lower quartile of stat over the blocks of xs.
func steady(xs []float64, stat func(dist) float64) float64 {
	return newDist(perBlock(len(xs), func(lo, hi int) float64 {
		return stat(newDist(xs[lo:hi]))
	})).quantile(0.25)
}

// steadyNorm scales xs to the reference speed (see probe.go). ref are
// the probe samples interleaved with xs at an even rate; both are cut
// into the same number of blocks, and in each, the mean of xs is divided
// by the median of ref. The figure is the median of that ratio over the
// blocks, times refNominal in seconds.
func steadyNorm(xs, ref []float64) float64 {
	blocks := blockCount(min(len(xs), len(ref)))
	var ratios []float64
	for b := 0; b < blocks; b++ {
		x := xs[b*len(xs)/blocks : (b+1)*len(xs)/blocks]
		r := ref[b*len(ref)/blocks : (b+1)*len(ref)/blocks]
		ratios = append(ratios, newDist(x).mean()/newDist(r).median())
	}
	return refNominal.Seconds() * newDist(ratios).median()
}

// blockCount is how many blocks n samples are cut into: one when there
// are too few.
func blockCount(n int) int { return max(1, min(steadyBlocks, n/steadyMinBlock)) }

// perBlock cuts n samples in time order into blocks and returns f of
// each block's index range.
func perBlock(n int, f func(lo, hi int) float64) []float64 {
	blocks := blockCount(n)
	per := make([]float64, blocks)
	for b := range per {
		per[b] = f(b*n/blocks, (b+1)*n/blocks)
	}
	return per
}
