package vhc

import (
	"fmt"
	"math/bits"
	"slices"

	"vmpower/internal/vm"
)

// This file extends the compiled worth plan to symmetry-collapsed
// evaluation: when the host's VMs group into classes that share a VHC
// class bit AND a bit-equal quantized state, v(S, C) depends only on how
// many members of each class S contains, and the plan can evaluate a
// type-count vector directly without materialising any coalition mask.
// This is what lets core estimate exactly past the 2^n mask wall.

// SymClass describes one symmetry class of the current tick: a maximal
// group of running VMs with the same plan class bit and bit-equal state.
type SymClass struct {
	// Bit is the plan class bit shared by every member (1 << VHC class).
	Bit ComboMask
	// State is the members' shared quantized state (bit-equal across the
	// class by construction).
	State vm.State
	// Count is the number of members.
	Count int
	// First is the lowest VM ID in the class, fixing a stable class order.
	First int
}

// ClassBit returns VM i's compiled class bit (1 << class(type(vm i))).
func (p *Plan) ClassBit(i int) (ComboMask, error) {
	if i < 0 || i >= p.n {
		return 0, fmt.Errorf("vhc: plan compiled for %d VMs, no VM %d", p.n, i)
	}
	return p.classBit[i], nil
}

// EvalCounts returns v(t, C): the worth of a coalition containing t[j]
// members of symmetry class j, under the plan's trained snapshot. It is
// equivalent to Eval on any mask realising those counts — and bit-equal
// to it, because each class slot is accumulated by repeated addition of
// the shared state (t[j] copies), the exact float sequence the per-member
// aggregation produces; a multiplicative t·x shortcut could differ in the
// last ulp and flip an exact-match table hit near a lattice boundary.
// The all-zero vector is the empty coalition, worth 0.
//
// Production tabulation runs SymTabulateInto, which reaches the same bits
// at one addition per vector; EvalCounts stays as its per-vector oracle
// (tests, the fuzz target and the auditor's deep re-solve).
func (p *Plan) EvalCounts(classes []SymClass, t []int) (float64, error) {
	const k = int(vm.NumComponents)
	if len(t) != len(classes) {
		return 0, fmt.Errorf("vhc: %d counts for %d classes", len(t), len(classes))
	}
	var combo ComboMask
	for j := range classes {
		switch {
		case t[j] < 0 || t[j] > classes[j].Count:
			return 0, fmt.Errorf("vhc: count t[%d]=%d outside [0,%d]", j, t[j], classes[j].Count)
		case t[j] > 0:
			combo |= classes[j].Bit
		}
	}
	if combo == 0 {
		return 0, nil
	}
	var feat [maxFeatureLen]float64
	for j := range classes {
		if t[j] == 0 {
			continue
		}
		cb := classes[j].Bit
		base := bits.OnesCount16(uint16(combo&(cb-1))) * k
		st := &classes[j].State
		for x := 0; x < t[j]; x++ {
			for c := 0; c < k; c++ {
				feat[base+c] += st[c]
			}
		}
	}
	flen := combo.Size() * k
	if p.resolution > 0 {
		if tab := p.table[combo]; tab != nil {
			var key tableKey
			for i := 0; i < flen; i++ {
				key[i] = latticeCoord(feat[i], p.resolution)
			}
			if v, ok := tab[key]; ok {
				return v, nil
			}
		}
	}
	w := p.weights[combo]
	if w == nil {
		return 0, fmt.Errorf("%w: %s", ErrUntrained, combo)
	}
	var dot float64
	for i, x := range w {
		dot += x * feat[i]
	}
	if dot < 0 {
		dot = 0
	}
	return dot, nil
}

// SymWalk is the scratch of SymTabulateInto: the walk's count vector and
// mixed-radix strides, and per class the state its VHC slot had before the
// class's first member joined. The zero value is ready; reusing one across
// ticks keeps tabulation allocation-free.
type SymWalk struct {
	t      []int      // current count vector
	stride []int      // stride[j] = ∏_{l<j} (c_l+1), class 0 fastest
	slot   []int      // VHC class index of classes[j].Bit
	saved  []symSaved // slot state under digit j while t_j > 0
}

// symSaved is one class slot's features, lattice coordinates and the
// combo as they stood just before a digit left zero; restoring it when the
// digit wraps back to zero undoes the digit's additions exactly.
type symSaved struct {
	combo ComboMask
	feat  vm.State
	key   [vm.NumComponents]int64
}

// SymTabulateInto fills table (V = ∏(c_j+1) entries, mixed radix with
// class 0 the fastest digit, as shapley.SymIndexOf) with v(t, C) for the
// count vectors t, bit-identical to EvalCounts, and returns how many
// entries it evaluated. With dirty nil every entry is evaluated, the empty
// vector included (worth 0). Otherwise only vectors with t_j > 0 for some
// dirty class j are; the rest describe coalitions of unchanged composition
// and keep their previous values.
//
// The walk visits the vectors with the LAST class as the fastest digit.
// Then a vector's parent — t less one member of l, the highest class with
// t_l > 0 — is the walk's state just before digit l moved, and its feature
// vector is the parent's plus one copy of State_l in l's slot: exactly the
// last addition of EvalCounts' fold, which adds classes in ascending order.
// Only that slot's lattice coordinates are re-rounded. When a digit wraps
// to zero its slot, coordinates and combo are restored from the copy taken
// when it left zero, so memory is O(classes), whatever V is. A walk with
// no dirty class visits nothing.
func (p *Plan) SymTabulateInto(table []float64, classes []SymClass, dirty []bool, w *SymWalk) (int, error) {
	const k = int(vm.NumComponents)
	nc := len(classes)
	if nc == 0 {
		return 0, fmt.Errorf("vhc: no symmetry classes")
	}
	if dirty != nil && len(dirty) != nc {
		return 0, fmt.Errorf("vhc: %d dirty flags for %d classes", len(dirty), nc)
	}
	w.t = slices.Grow(w.t[:0], nc)[:nc]
	w.stride = slices.Grow(w.stride[:0], nc)[:nc]
	w.slot = slices.Grow(w.slot[:0], nc)[:nc]
	w.saved = slices.Grow(w.saved[:0], nc)[:nc]
	v := 1
	for j := range classes {
		c, bit := classes[j].Count, classes[j].Bit
		if c < 1 {
			return 0, fmt.Errorf("vhc: class %d has %d members", j, c)
		}
		if bits.OnesCount16(uint16(bit)) != 1 || int(bit) >= len(p.weights) {
			return 0, fmt.Errorf("vhc: class %d bit %#x is not one class of the plan", j, uint16(bit))
		}
		if v > len(table)/(c+1) {
			return 0, fmt.Errorf("vhc: table has %d entries, fewer than the classes' count vectors", len(table))
		}
		w.t[j] = 0
		w.stride[j] = v
		w.slot[j] = bits.TrailingZeros16(uint16(bit))
		v *= c + 1
	}
	if v != len(table) {
		return 0, fmt.Errorf("vhc: table has %d entries, want %d", len(table), v)
	}

	// Digits past the last dirty class are clean, so under a prefix with
	// no dirty class present their whole subtree is clean: the walk then
	// treats the last dirty digit as its fastest and skips the subtree.
	last := nc - 1
	if dirty != nil {
		for last >= 0 && !dirty[last] {
			last--
		}
	}
	res := p.resolution
	var feat [MaxTypes]vm.State
	var key [MaxTypes][k]int64
	var combo ComboMask
	t := w.t
	idx, evaluated, active := 0, 0, 0
	if dirty == nil {
		table[0] = 0
		evaluated = 1
	}
	for {
		d := nc - 1
		if active == 0 {
			d = last
		}
		for ; d >= 0 && t[d] == classes[d].Count; d-- {
			s, sl := &w.saved[d], w.slot[d]
			combo, feat[sl], key[sl] = s.combo, s.feat, s.key
			if dirty != nil && dirty[d] {
				active--
			}
			idx -= t[d] * w.stride[d]
			t[d] = 0
		}
		if d < 0 {
			return evaluated, nil
		}
		sl := w.slot[d]
		if t[d] == 0 {
			w.saved[d] = symSaved{combo: combo, feat: feat[sl], key: key[sl]}
			combo |= classes[d].Bit
			if dirty != nil && dirty[d] {
				active++
			}
		}
		t[d]++
		idx += w.stride[d]
		f, st := &feat[sl], &classes[d].State
		for c := 0; c < k; c++ {
			f[c] += st[c]
		}
		if res > 0 {
			for c := 0; c < k; c++ {
				key[sl][c] = latticeCoord(f[c], res)
			}
		}
		if dirty != nil && active == 0 {
			continue
		}
		x, err := p.slotWorth(combo, &feat, &key)
		if err != nil {
			return evaluated, err
		}
		table[idx] = x
		evaluated++
	}
}

// slotWorth is EvalCounts' lookup-then-regress tail over features and
// lattice coordinates kept per VHC slot: the combo's present slots, in
// ascending class order, are its feature vector.
func (p *Plan) slotWorth(combo ComboMask, feat *[MaxTypes]vm.State, key *[MaxTypes][vm.NumComponents]int64) (float64, error) {
	const k = int(vm.NumComponents)
	if tab := p.table[combo]; tab != nil && p.resolution > 0 {
		var tk tableKey
		i := 0
		for m := uint16(combo); m != 0; m &= m - 1 {
			copy(tk[i:i+k], key[bits.TrailingZeros16(m)][:])
			i += k
		}
		if x, ok := tab[tk]; ok {
			return x, nil
		}
	}
	wt := p.weights[combo]
	if wt == nil {
		return 0, fmt.Errorf("%w: %s", ErrUntrained, combo)
	}
	var dot float64
	i := 0
	for m := uint16(combo); m != 0; m &= m - 1 {
		f := &feat[bits.TrailingZeros16(m)]
		for c := 0; c < k; c++ {
			dot += wt[i+c] * f[c]
		}
		i += k
	}
	if dot < 0 {
		dot = 0
	}
	return dot, nil
}

// ClassedFeaturesRunning is ClassedFeaturesFor over a running-flag vector
// instead of a coalition mask — the wide-set form used when the VM set
// exceeds the bitmask cap. Flags are scanned in ascending VM-ID order, the
// same addition order as the mask form, so the two agree bit for bit on
// sets both can represent.
func ClassedFeaturesRunning(set *vm.Set, running []bool, states []vm.State, classes *ClassMap) (ComboMask, []float64, error) {
	if err := classes.Validate(); err != nil {
		return 0, nil, err
	}
	if len(states) != set.Len() {
		return 0, nil, fmt.Errorf("vhc: %d states for %d VMs", len(states), set.Len())
	}
	if len(running) != set.Len() {
		return 0, nil, fmt.Errorf("vhc: %d running flags for %d VMs", len(running), set.Len())
	}
	agg := make(map[vm.TypeID]vm.State, classes.Classes)
	var combo ComboMask
	for i, r := range running {
		if !r {
			continue
		}
		v, err := set.VM(vm.ID(i))
		if err != nil {
			return 0, nil, err
		}
		if int(v.Type) >= len(classes.ByType) {
			return 0, nil, fmt.Errorf("vhc: type %d not covered by class map", v.Type)
		}
		class := vm.TypeID(classes.ByType[v.Type])
		combo |= 1 << uint(class)
		agg[class] = agg[class].Add(states[i])
	}
	return combo, Features(combo, agg), nil
}
