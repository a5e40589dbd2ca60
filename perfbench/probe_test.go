package main

import (
	"math"
	"testing"

	"vmpower/internal/shapley"
	"vmpower/internal/vm"
)

// The probe computes Shapley values of its game: Σ (i+1)·φ_i over its
// players agrees with the repository's exact solver on the same worths,
// and its loads are the sums of its players' features.
func TestProbeSolvesItsGame(t *testing.T) {
	p := newRefProbe()
	got := p.solve()
	for _, m := range []int{1, 6, 1<<refPlayers - 1} {
		var load float64
		for i := 0; i < refPlayers; i++ {
			if m>>i&1 == 1 {
				load += refFeature(i)
			}
		}
		if math.Abs(p.load[m]-load) > 1e-9 {
			t.Errorf("load of %b = %v, want %v", m, p.load[m], load)
		}
	}
	phi, err := shapley.Exact(refPlayers, func(c vm.Coalition) float64 { return p.worth[c] })
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 0; i < refSolved; i++ {
		want += float64(i+1) * phi[i]
	}
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("probe Σ i·φ_i = %v, exact solver %v", got, want)
	}
	if err := p.run(); err != nil || len(p.cpu) != 1 || p.cpu[0] <= 0 {
		t.Errorf("probe run: err %v, cpu samples %v", err, p.cpu)
	}
}

// steadyNorm divides each block's mean by the median of the probes
// beside it, so a slowdown that covers both cancels; the blocks of xs and
// of the sparser probes are cut at the same fractions of the run.
func TestSteadyNormCancelsCommonSlowdown(t *testing.T) {
	nominal := refNominal.Seconds()
	var xs, ref []float64
	for i := 0; i < 3000; i++ {
		slow := 1.0
		if i >= 1000 {
			slow = 1.5 // the second two thirds of the run on a slower host
		}
		xs = append(xs, 4*nominal*slow)
		if i%4 == 0 {
			ref = append(ref, nominal*slow)
		}
	}
	if got := steadyNorm(xs, ref); math.Abs(got-4*nominal) > 1e-12 {
		t.Errorf("steadyNorm = %v, want %v", got, 4*nominal)
	}
	if got := steadyNorm([]float64{2, 4}, []float64{1}); got != 3*nominal {
		t.Errorf("steadyNorm over one block = %v, want %v", got, 3*nominal)
	}
}
