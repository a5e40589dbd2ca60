package vhc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vmpower/internal/shapley"
	"vmpower/internal/vm"
)

// forEachCount calls fn with every count vector of the classes and its
// mixed-radix index (class 0 the fastest digit), in index order.
func forEachCount(classes []SymClass, fn func(idx int, t []int)) {
	t := make([]int, len(classes))
	for idx := 0; ; idx++ {
		fn(idx, t)
		j := 0
		for ; j < len(t) && t[j] == classes[j].Count; j++ {
			t[j] = 0
		}
		if j == len(t) {
			return
		}
		t[j]++
	}
}

// numVectors returns ∏(c_j+1).
func numVectors(classes []SymClass) int {
	v := 1
	for _, c := range classes {
		v *= c.Count + 1
	}
	return v
}

// oracleTable tabulates EvalCounts over every count vector.
func oracleTable(t testing.TB, plan *Plan, classes []SymClass) []float64 {
	t.Helper()
	table := make([]float64, numVectors(classes))
	forEachCount(classes, func(idx int, tv []int) {
		w, err := plan.EvalCounts(classes, tv)
		if err != nil {
			t.Fatalf("EvalCounts(%v): %v", tv, err)
		}
		table[idx] = w
	})
	return table
}

// countFeatures is EvalCounts' feature fold, exposed to the tests so they
// can train exact-match table entries at chosen count vectors.
func countFeatures(classes []SymClass, tv []int) (ComboMask, []float64) {
	const k = int(vm.NumComponents)
	var combo ComboMask
	for j, x := range tv {
		if x > 0 {
			combo |= classes[j].Bit
		}
	}
	feat := make([]float64, combo.Size()*k)
	for j, x := range tv {
		base := (combo & (classes[j].Bit - 1)).Size() * k
		for ; x > 0; x-- {
			for c := 0; c < k; c++ {
				feat[base+c] += classes[j].State[c]
			}
		}
	}
	return combo, feat
}

// latticeState draws a state on the 0.01 lattice.
func latticeState(rng *rand.Rand) vm.State {
	var s vm.State
	for c := range s {
		s[c] = math.Round(rng.Float64()*100) / 100
	}
	return s
}

// randomLayout draws 1–6 classes over the three VHC bits of the test set,
// so several classes usually share one bit. Half the layouts keep their
// states on the 0.01 lattice; the rest draw them off it.
func randomLayout(rng *rand.Rand) []SymClass {
	classes := make([]SymClass, 1+rng.Intn(6))
	onLattice := rng.Intn(2) == 0
	for j := range classes {
		classes[j] = SymClass{Bit: 1 << uint(rng.Intn(3)), Count: 1 + rng.Intn(4), First: j}
		if onLattice {
			classes[j].State = latticeState(rng)
		} else {
			for c := range classes[j].State {
				classes[j].State[c] = rng.Float64()
			}
		}
	}
	return classes
}

// layoutPlan trains a plan whose samples are the layout's own count
// vectors — about half of them, and at least one per combo — so the walk
// meets both exact-match table hits and regressed misses.
func layoutPlan(t testing.TB, rng *rand.Rand, classes []SymClass, res float64) *Plan {
	t.Helper()
	set := testSet(t)
	cm, err := IdentityClassMap(len(set.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(cm.Classes, Options{Resolution: res})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ComboMask]bool{}
	forEachCount(classes, func(_ int, tv []int) {
		combo, feat := countFeatures(classes, tv)
		if combo == 0 || (seen[combo] && rng.Intn(2) == 0) {
			return
		}
		seen[combo] = true
		if err := a.AddSample(combo, feat, 5+20*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	})
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(set, cm, a)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// hitsAndMisses counts the non-empty vectors whose worth is an exact-match
// table hit and those that are regressed.
func hitsAndMisses(plan *Plan, classes []SymClass) (hits, misses int) {
	forEachCount(classes, func(_ int, tv []int) {
		combo, feat := countFeatures(classes, tv)
		if combo == 0 {
			return
		}
		if tab := plan.table[combo]; tab != nil && plan.resolution > 0 {
			var key tableKey
			for i, f := range feat {
				key[i] = latticeCoord(f, plan.resolution)
			}
			if _, ok := tab[key]; ok {
				hits++
				return
			}
		}
		misses++
	})
	return hits, misses
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, EvalCounts %v (diff %g)", what, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// TestSymTabulateMatchesEvalCounts pins every entry of the walk kernel to
// EvalCounts bit for bit, over random layouts with classes sharing VHC
// bits, with and without the exact-match table, on and off its lattice.
func TestSymTabulateMatchesEvalCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var w SymWalk
	var hits, misses int
	for trial := 0; trial < 300; trial++ {
		classes := randomLayout(rng)
		res := []float64{0, 0.01, 0.1}[trial%3]
		plan := layoutPlan(t, rng, classes, res)
		want := oracleTable(t, plan, classes)
		got := make([]float64, len(want))
		for i := range got {
			got[i] = math.NaN() // every entry must be written
		}
		evaluated, err := plan.SymTabulateInto(got, classes, nil, &w)
		if err != nil {
			t.Fatalf("classes %+v: %v", classes, err)
		}
		if evaluated != len(want) {
			t.Fatalf("full walk evaluated %d of %d vectors", evaluated, len(want))
		}
		sameBits(t, "full walk", got, want)
		h, m := hitsAndMisses(plan, classes)
		hits += h
		misses += m
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("layouts cover %d table hits and %d misses; want both", hits, misses)
	}
}

// TestSymTabulateDirtyMatchesFull: re-walking after some classes change
// state, with those classes flagged dirty, lands on the full walk's table
// and evaluates exactly the vectors touching a dirty class.
func TestSymTabulateDirtyMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	set, cm, a := trainedRig(t, 0.01, 47)
	plan, err := NewPlan(set, cm, a)
	if err != nil {
		t.Fatal(err)
	}
	var w SymWalk
	for trial := 0; trial < 300; trial++ {
		classes := randomLayout(rng)
		table := make([]float64, numVectors(classes))
		if _, err := plan.SymTabulateInto(table, classes, nil, &w); err != nil {
			t.Fatal(err)
		}
		dirty := make([]bool, len(classes))
		next := append([]SymClass(nil), classes...)
		for j := range dirty {
			if dirty[j] = rng.Intn(2) == 0; dirty[j] {
				next[j].State = latticeState(rng)
			}
		}
		wantEval := 0
		forEachCount(classes, func(_ int, tv []int) {
			for j, x := range tv {
				if dirty[j] && x > 0 {
					wantEval++
					return
				}
			}
		})
		evaluated, err := plan.SymTabulateInto(table, next, dirty, &w)
		if err != nil {
			t.Fatal(err)
		}
		if evaluated != wantEval {
			t.Fatalf("dirty=%v: evaluated %d vectors, want %d", dirty, evaluated, wantEval)
		}
		sameBits(t, "dirty walk", table, oracleTable(t, plan, next))
	}
}

// TestSymTabulateUntrained: a layout reaching an untrained combo fails
// with ErrUntrained, as EvalCounts does.
func TestSymTabulateUntrained(t *testing.T) {
	set := testSet(t)
	cm, err := IdentityClassMap(len(set.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(cm.Classes, Options{Resolution: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := a.AddSample(0b001, []float64{0.1 * float64(i), 0, 0}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(set, cm, a)
	if err != nil {
		t.Fatal(err)
	}
	var w SymWalk
	trained := []SymClass{{Bit: 0b001, State: vm.State{vm.CPU: 0.5}, Count: 2}}
	if _, err := plan.SymTabulateInto(make([]float64, 3), trained, nil, &w); err != nil {
		t.Fatalf("trained combo: %v", err)
	}
	untrained := append(trained, SymClass{Bit: 0b010, State: vm.State{vm.CPU: 0.5}, Count: 1, First: 2})
	if _, err := plan.SymTabulateInto(make([]float64, 6), untrained, nil, &w); !errors.Is(err, ErrUntrained) {
		t.Fatalf("untrained combo err = %v, want ErrUntrained", err)
	}
}

func TestSymTabulateErrors(t *testing.T) {
	set, cm, a := trainedRig(t, 0.01, 53)
	plan, err := NewPlan(set, cm, a)
	if err != nil {
		t.Fatal(err)
	}
	var w SymWalk
	ok := []SymClass{{Bit: 0b001, Count: 2}, {Bit: 0b100, Count: 1}}
	for _, tc := range []struct {
		name    string
		table   int
		classes []SymClass
		dirty   []bool
	}{
		{"no classes", 1, nil, nil},
		{"dirty length", 6, ok, []bool{true}},
		{"empty class", 2, []SymClass{{Bit: 0b001, Count: 0}}, nil},
		{"no bit", 3, []SymClass{{Count: 2}}, nil},
		{"two bits", 3, []SymClass{{Bit: 0b011, Count: 2}}, nil},
		{"bit past the plan", 3, []SymClass{{Bit: 0b1000, Count: 2}}, nil},
		{"short table", 5, ok, nil},
		{"long table", 7, ok, nil},
	} {
		if _, err := plan.SymTabulateInto(make([]float64, tc.table), tc.classes, tc.dirty, &w); err == nil {
			t.Errorf("%s: want an error", tc.name)
		}
	}
}

// TestSymTabulateZeroAlloc extends TestEvalCountsZeroAlloc to the walk: a
// steady retabulation on warm scratch allocates nothing.
func TestSymTabulateZeroAlloc(t *testing.T) {
	set, cm, a := trainedRig(t, 0.01, 31)
	plan, err := NewPlan(set, cm, a)
	if err != nil {
		t.Fatal(err)
	}
	classes := []SymClass{
		{Bit: 0b001, State: vm.State{vm.CPU: 0.37, vm.Memory: 0.12}, Count: 5},
		{Bit: 0b001, State: vm.State{vm.CPU: 0.2}, Count: 2, First: 5},
		{Bit: 0b010, State: vm.State{vm.CPU: 0.5, vm.DiskIO: 0.05}, Count: 1, First: 7},
		{Bit: 0b100, State: vm.State{vm.CPU: 0.1}, Count: 3, First: 8},
	}
	table := make([]float64, numVectors(classes))
	dirty := []bool{true, false, false, true}
	var w SymWalk
	if _, err := plan.SymTabulateInto(table, classes, nil, &w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := plan.SymTabulateInto(table, classes, dirty, &w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("plan.SymTabulateInto allocates %v per run, want 0", allocs)
	}
}

// FuzzSymTabulate checks the walk against EvalCounts on fuzzed layouts:
// class sizes, bits and lattice states from the input, then a dirty
// re-walk after the flagged classes change state.
func FuzzSymTabulate(f *testing.F) {
	set, cm, a := trainedRig(f, 0.01, 59)
	plan, err := NewPlan(set, cm, a)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{3, 0, 1, 30, 40, 50, 1, 2, 10, 0, 0, 0, 3, 7, 7, 7}, byte(0b101))
	f.Add([]byte{1, 2, 3, 99, 99, 99}, byte(1))
	f.Add([]byte{5, 0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 2, 1, 1, 1, 1, 2, 0, 0, 0, 0, 1, 1, 1}, byte(0xff))
	f.Fuzz(func(t *testing.T, layout []byte, dirtyBits byte) {
		// Byte 0 picks 1–5 classes; each class reads 4 bytes: bit and size,
		// then its three state components on the 0.01 lattice.
		if len(layout) == 0 {
			return
		}
		nc := 1 + int(layout[0])%5
		layout = layout[1:]
		if len(layout) < 4*nc {
			return
		}
		classes := make([]SymClass, nc)
		for j := range classes {
			b := layout[4*j:]
			classes[j] = SymClass{Bit: 1 << uint(b[0]%3), Count: 1 + int(b[0]/3)%4, First: j}
			for c := 0; c < int(vm.NumComponents); c++ {
				classes[j].State[c] = float64(b[1+c]) / 100
			}
		}
		var w SymWalk
		table := make([]float64, numVectors(classes))
		if _, err := plan.SymTabulateInto(table, classes, nil, &w); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "full walk", table, oracleTable(t, plan, classes))
		dirty := make([]bool, nc)
		for j := range classes {
			if dirty[j] = dirtyBits&(1<<uint(j)) != 0; dirty[j] {
				classes[j].State[vm.CPU] += 0.01
			}
		}
		if _, err := plan.SymTabulateInto(table, classes, dirty, &w); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "dirty walk", table, oracleTable(t, plan, classes))
	})
}

// BenchmarkSymSingletons sizes the production exact tick where every VM
// is its own symmetry class: a 16-VM host (10/4/2 VMs of the three test
// types), 2^16 coalitions. The sym-walk arm is the production route (walk
// kernel plus the solver's radix-2 kernel); the mask arm is the legacy
// 2^n route that Estimate and the auditor's deep re-solve keep as the
// oracle, sized here for comparison. Both arms tabulate and solve on one
// goroutine, with the exact-match table on (res=0.01, every worth a table
// probe) and off (res=0, regression only).
func BenchmarkSymSingletons(b *testing.B) {
	const n = 16
	vms := make([]vm.VM, n)
	for i := range vms {
		vms[i] = vm.VM{Name: "vm", Type: vm.TypeID(min(i/10+i/14, 2))}
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		b.Fatal(err)
	}
	cm, err := IdentityClassMap(len(set.Catalog()))
	if err != nil {
		b.Fatal(err)
	}
	for _, res := range []float64{0.01, 0} {
		plan, states := singletonPlan(b, set, cm, res)
		b.Run(fmt.Sprintf("res=%g/sym-walk", res), func(b *testing.B) {
			classes := make([]SymClass, n)
			counts := make([]int, n)
			for i := range classes {
				bit, err := plan.ClassBit(i)
				if err != nil {
					b.Fatal(err)
				}
				classes[i] = SymClass{Bit: bit, State: states[i], Count: 1, First: i}
				counts[i] = 1
			}
			var sc shapley.SymScratch
			v, err := sc.Prepare(counts)
			if err != nil {
				b.Fatal(err)
			}
			var w SymWalk
			table, phi := make([]float64, v), make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.SymTabulateInto(table, classes, nil, &w); err != nil {
					b.Fatal(err)
				}
				if err := shapley.SymExactFromTableInto(phi, &sc, table); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("res=%g/mask", res), func(b *testing.B) {
			worth := func(s vm.Coalition) float64 {
				x, err := plan.Eval(s, states)
				if err != nil {
					b.Fatal(err)
				}
				return x
			}
			table, phi := make([]float64, 1<<n), make([]float64, n)
			partials := make([]float64, shapley.ExactScratch(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := shapley.TabulateParallelInto(table, n, worth, 1); err != nil {
					b.Fatal(err)
				}
				if err := shapley.ExactFromTableParallelInto(phi, partials, n, table, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// singletonPlan trains every combo of the set's three types on random
// member subsets, each holding VMs 0, 10 and 14 (one per type) when their
// type is present, and returns the compiled plan with fresh lattice states.
func singletonPlan(b *testing.B, set *vm.Set, cm *ClassMap, res float64) (*Plan, []vm.State) {
	b.Helper()
	a, err := New(cm.Classes, Options{Resolution: res})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	states := make([]vm.State, set.Len())
	for combo := ComboMask(1); combo < 8; combo++ {
		for s := 0; s < 60; s++ {
			var mask vm.Coalition
			for i := range states {
				v, err := set.VM(vm.ID(i))
				if err != nil {
					b.Fatal(err)
				}
				if combo.Contains(v.Type) && (i == 0 || i == 10 || i == 14 || rng.Intn(2) == 0) {
					mask = mask.With(vm.ID(i))
				}
				states[i] = latticeState(rng)
			}
			_, feats, err := ClassedFeaturesFor(set, mask, states, cm)
			if err != nil {
				b.Fatal(err)
			}
			if err := a.AddSample(combo, feats, 5+20*rng.Float64()); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := a.Train(); err != nil {
		b.Fatal(err)
	}
	plan, err := NewPlan(set, cm, a)
	if err != nil {
		b.Fatal(err)
	}
	for i := range states {
		states[i] = latticeState(rng)
	}
	return plan, states
}
