package shapley

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// singletonScratch prepares a scratch for n singleton classes (V = 2^n).
func singletonScratch(t testing.TB, n int) *SymScratch {
	t.Helper()
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	var sc SymScratch
	if _, err := sc.Prepare(counts); err != nil {
		t.Fatal(err)
	}
	return &sc
}

// radix2Table fills a 2^n worth table from seed in one of four shapes:
// dense mixed-sign worths, mostly zeros with negative and positive
// outliers, an all-negative game, and a smooth superadditive game whose
// grand entry is overwritten by an unrelated "measured" value — the shape
// every production tick has.
func radix2Table(n int, seed int64, shape int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	table := make([]float64, 1<<uint(n))
	for i := range table {
		switch shape % 4 {
		case 0:
			table[i] = rng.NormFloat64() * 100
		case 1:
			if rng.Intn(10) < 7 {
				table[i] = 0
			} else {
				table[i] = (rng.Float64() - 0.6) * math.Exp(rng.Float64()*20-10)
			}
		case 2:
			table[i] = -rng.Float64() * 250
		case 3:
			size := bits.OnesCount(uint(i))
			table[i] = float64(size*size) * (1 + rng.Float64()/8)
		}
	}
	if shape%4 == 3 {
		table[len(table)-1] = rng.Float64() * 400
	}
	return table
}

// requireRadix2Generic runs the radix-2 kernel, the generic mixed-radix
// loop and the public entry point over one singleton table and demands
// the same bits from all three.
func requireRadix2Generic(t testing.TB, sc *SymScratch, table []float64, label string) {
	t.Helper()
	n := sc.NumPlayers()
	fast := make([]float64, n)
	slow := make([]float64, n)
	public := make([]float64, n)
	symRadix2(fast, sc.w, table)
	symGeneric(slow, sc, table)
	if err := SymExactFromTableInto(public, sc, table); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		if math.Float64bits(fast[j]) != math.Float64bits(slow[j]) {
			t.Fatalf("%s: phi[%d] radix-2 %.17g (%#x), generic %.17g (%#x)",
				label, j, fast[j], math.Float64bits(fast[j]), slow[j], math.Float64bits(slow[j]))
		}
		if math.Float64bits(public[j]) != math.Float64bits(fast[j]) {
			t.Fatalf("%s: SymExactFromTableInto phi[%d] = %.17g, radix-2 %.17g", label, j, public[j], fast[j])
		}
	}
}

// TestSymRadix2MatchesGeneric pins the radix-2 kernel to the generic
// collapsed loop bit for bit for every n from 1 to 16, over tables with
// zero, negative and grand-overwritten worths.
func TestSymRadix2MatchesGeneric(t *testing.T) {
	for n := 1; n <= 16; n++ {
		sc := singletonScratch(t, n)
		for shape := 0; shape < 4; shape++ {
			table := radix2Table(n, int64(100*n+shape), shape)
			requireRadix2Generic(t, sc, table, fmt.Sprintf("n=%d shape=%d", n, shape))
		}
	}
}

// TestSymRadix2ZeroAlloc pins the per-tick contract of the singleton
// solve: with a prepared scratch it allocates nothing.
func TestSymRadix2ZeroAlloc(t *testing.T) {
	const n = 12
	sc := singletonScratch(t, n)
	table := radix2Table(n, 7, 0)
	phi := make([]float64, n)
	allocs := testing.AllocsPerRun(50, func() {
		if err := SymExactFromTableInto(phi, sc, table); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("radix-2 solve allocates %v per run, want 0", allocs)
	}
}

// FuzzSymRadix2 drives the radix-2 vs generic comparison over fuzzed
// sizes, seeds, table shapes and measured grand worths.
func FuzzSymRadix2(f *testing.F) {
	f.Add(uint8(1), int64(1), uint8(0), 0.0)
	f.Add(uint8(7), int64(42), uint8(1), -13.5)
	f.Add(uint8(16), int64(9), uint8(3), 212.25)
	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64, shape uint8, grand float64) {
		if math.IsNaN(grand) || math.IsInf(grand, 0) {
			t.Skip()
		}
		n := 1 + int(nRaw%16)
		table := radix2Table(n, seed, int(shape))
		table[len(table)-1] = grand
		requireRadix2Generic(t, singletonScratch(t, n), table, "fuzz")
	})
}
