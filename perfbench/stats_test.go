package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: newDist must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		value float64
		q     float64
		ok    bool
	}{
		{n: 2000, value: 1980, q: 0.99, ok: true}, // p99 has 20 beyond
		{n: 1000, value: 990, q: 0.99, ok: true},  // exactly 10 beyond
		{n: 999, value: 989, q: 989.0 / 999, ok: true},
		{n: 100, value: 90, q: 0.90, ok: true},
		{n: 11, value: 1, q: 1.0 / 11, ok: true},
		{n: 10, value: 10, q: 1, ok: false}, // too few: the maximum
	} {
		v, q, ok := newDist(seq(c.n)).tail()
		if v != c.value || q != c.q || ok != c.ok {
			t.Errorf("n=%d: tail = (%v, %v, %v), want (%v, %v, %v)", c.n, v, q, ok, c.value, c.q, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailMinBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3})
	if got := d.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := d.quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := d.quantile(1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if got := d.mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if v, _, ok := newDist(nil).tail(); v != 0 || ok {
		t.Errorf("empty tail = %v, %v", v, ok)
	}
}

// A burst that slows a third of the run moves the all-samples median but
// not the steady figure; with too few samples for blocks, steady is the
// plain statistic.
func TestSteadyIgnoresBursts(t *testing.T) {
	var xs []float64
	for i := 0; i < 1500; i++ {
		v := 10.0 + float64(i%7)/10
		if i >= 500 && i < 1000 {
			v *= 2
		}
		xs = append(xs, v)
	}
	got, all := steady(xs, dist.median), newDist(xs).median()
	if got != 10.3 || all <= got {
		t.Errorf("steady median = %v (all samples %v), want the unburst median 10.3", got, all)
	}
	if m := steady(xs, dist.mean); m > 10.31 {
		t.Errorf("steady mean = %v, want the unburst mean near 10.3", m)
	}
	few := []float64{3, 1, 2}
	if got := steady(few, dist.median); got != 2 {
		t.Errorf("steady over 3 samples = %v, want their median 2", got)
	}
}
