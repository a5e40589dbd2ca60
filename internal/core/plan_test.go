package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"vmpower/internal/hypervisor"
	"vmpower/internal/obs"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// TestPlanWorthMatchesBuildWorth is the compiled-plan worth property: over
// randomized coalitions, states and class maps, the plan-backed worth must
// reproduce the legacy buildWorth bit for bit on every one of the 2^n
// masks — including stopped-VM dummies (masks reaching outside the running
// set) and the measured-power override for the running grand coalition.
// Bit equality trivially satisfies the ≤1e-12 acceptance bound.
func TestPlanWorthMatchesBuildWorth(t *testing.T) {
	merged := &vhc.ClassMap{ByType: []int{0, 0, 1, 1}, Classes: 2}
	for _, tc := range []struct {
		name    string
		classes *vhc.ClassMap
	}{
		{"identity-classes", nil},
		{"merged-classes", merged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, est := testRig(t, Config{Seed: 7, Classes: tc.classes})
			if err := est.CollectOffline(); err != nil {
				t.Fatal(err)
			}
			plan := est.ensurePlan()
			if plan == nil {
				t.Fatal("plan must compile for a trained estimator")
			}
			n := est.host.Set().Len()
			rng := rand.New(rand.NewSource(41))
			quant := func() float64 { return float64(rng.Intn(101)) / 100 }
			for trial := 0; trial < 400; trial++ {
				running := vm.Coalition(rng.Intn(1 << uint(n)))
				states := make([]vm.State, n)
				for i := range states {
					// Stopped VMs keep random garbage states on purpose:
					// both worths must mask them out as dummies.
					states[i] = vm.State{quant(), quant(), quant()}
				}
				dyn := rng.Float64() * 200
				snap := hypervisor.Snapshot{Tick: trial, Coalition: running, States: states}
				legacy, legacyErr := est.buildWorth(snap, dyn)
				planned, planErr := planWorth(plan, running, states, dyn)
				for s := vm.Coalition(0); s < 1<<uint(n); s++ {
					lw, pw := legacy(s), planned(s)
					if pw != lw {
						t.Fatalf("trial %d running=%s: worth(%s) plan=%.17g legacy=%.17g",
							trial, running, s, pw, lw)
					}
				}
				if !running.IsEmpty() && planned(running) != dyn {
					t.Fatalf("trial %d: grand coalition must return measured dyn", trial)
				}
				if err := legacyErr(); err != nil {
					t.Fatalf("trial %d: legacy worth error: %v", trial, err)
				}
				if err := planErr(); err != nil {
					t.Fatalf("trial %d: plan worth error: %v", trial, err)
				}
			}
		})
	}
}

// planScenario drives one or more hosts in lock-step through the phases
// that exercise every arm of the incremental recurrence: steady constant
// states (dirty = 0, full verbatim reuse), per-tick random states (partial
// dirty sets), a running-set change (forced full retabulation) and a
// recovery phase. step is called once per tick after every host advanced.
func planScenario(t *testing.T, hosts []*hypervisor.Host, step func(tick int)) {
	t.Helper()
	for _, host := range hosts {
		if err := host.Attach(0, workload.Constant("steady", vm.State{vm.CPU: 0.5, vm.Memory: 0.25, vm.DiskIO: 0.1})); err != nil {
			t.Fatal(err)
		}
		if err := host.Attach(1, workload.Synthetic{Seed: 5}); err != nil {
			t.Fatal(err)
		}
		if err := host.Attach(2, workload.Synthetic{Seed: 9, IdleProb: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	tick := 0
	phase := func(coalition vm.Coalition, ticks int) {
		for _, host := range hosts {
			host.SetCoalition(coalition)
		}
		for i := 0; i < ticks; i++ {
			for _, host := range hosts {
				host.Advance(1)
			}
			tick++
			step(tick)
		}
	}
	phase(vm.CoalitionOf(0), 8)        // constant states: dirty = 0 reuse
	phase(vm.CoalitionOf(0, 1, 2), 12) // random states: partial dirty sets
	phase(vm.CoalitionOf(0, 2), 8)     // running-set change: full retabulation
	phase(vm.CoalitionOf(0, 1, 2), 8)  // recovery
}

// requireMatchesLegacy re-solves the tick got was served for on the
// legacy mask path (Estimate: buildWorth worths, a full 2^n tabulation
// and the sharded mask solve) and demands the same allocation. The worths
// of the two paths are bit-identical; only the solve's summation
// association differs, so the shares must agree to 1e-12 of the dynamic
// power, and everything else exactly.
func requireMatchesLegacy(t *testing.T, est *Estimator, host *hypervisor.Host, got *Allocation, label string) {
	t.Helper()
	want, err := est.Estimate(host.Collect(), got.MeasuredPower)
	if err != nil {
		t.Fatalf("%s: legacy estimate: %v", label, err)
	}
	if got.Tick != want.Tick || got.Coalition != want.Coalition || got.Method != want.Method ||
		got.MeasuredPower != want.MeasuredPower || got.DynamicPower != want.DynamicPower {
		t.Fatalf("%s: tick %+v != legacy %+v", label, got, want)
	}
	tol := 1e-12 * math.Max(1, got.DynamicPower)
	within := func(what string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d entries, legacy %d", label, what, len(g), len(w))
		}
		for i := range g {
			if math.Abs(g[i]-w[i]) > tol {
				t.Fatalf("%s: %s[%d] = %.17g, legacy %.17g (tol %g)", label, what, i, g[i], w[i], tol)
			}
		}
	}
	within("PerVM", got.PerVM, want.PerVM)
	within("IdlePerVM", got.IdlePerVM, want.IdlePerVM)
}

// TestPlanEstimateTickMatchesLegacy runs the full scenario and re-solves
// every tick on the legacy mask path (requireMatchesLegacy). This pins
// the collapsed walk's cross-tick reuse and the radix-2 solve against a
// from-scratch tabulation under steady states, dirty subsets and
// coalition changes, with the legacy solve at parallelism 1 and 4.
func TestPlanEstimateTickMatchesLegacy(t *testing.T) {
	for _, par := range []int{1, 4} {
		host, est := testRig(t, Config{Seed: 3, Parallelism: par, IdleAttribution: IdleProportional})
		if err := est.CollectOffline(); err != nil {
			t.Fatal(err)
		}
		planScenario(t, []*hypervisor.Host{host}, func(tick int) {
			alloc, err := est.EstimateTick()
			if err != nil {
				t.Fatalf("par %d tick %d: plan estimate: %v", par, tick, err)
			}
			if alloc.Prov.Tier != TierSymExact {
				t.Fatalf("par %d tick %d: tier %q, want %q", par, tick, alloc.Prov.Tier, TierSymExact)
			}
			requireMatchesLegacy(t, est, host, alloc, fmt.Sprintf("par %d tick %d", par, tick))
		})
	}
}

// TestPlanParallelismDeepEqual pins the acceptance criterion directly: the
// plan-based EstimateTick sequence is DeepEqual-deterministic between
// parallelism 1 and NumCPU (and the "all cores" default) across a
// scenario exercising reuse, dirty sets and coalition changes.
func TestPlanParallelismDeepEqual(t *testing.T) {
	run := func(par int) []*Allocation {
		host, est := testRig(t, Config{Seed: 3, Parallelism: par})
		if err := est.CollectOffline(); err != nil {
			t.Fatal(err)
		}
		var out []*Allocation
		planScenario(t, []*hypervisor.Host{host}, func(tick int) {
			alloc, err := est.EstimateTick()
			if err != nil {
				t.Fatalf("par %d tick %d: %v", par, tick, err)
			}
			out = append(out, alloc)
		})
		return out
	}
	ref := run(1)
	for _, par := range []int{runtime.NumCPU(), -1} {
		got := run(par)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("parallelism %d: allocation sequence differs from parallelism 1", par)
		}
	}
}

// TestPlanMonteCarloMatchesLegacy forces the Monte-Carlo arm (lowered
// ExactMaxPlayers) so the plan-backed worth feeds the permutation sampler;
// with a fixed seed the result must match the legacy worth's (Estimate)
// bit for bit.
func TestPlanMonteCarloMatchesLegacy(t *testing.T) {
	host, est := testRig(t, Config{Seed: 11, ExactMaxPlayers: 2, MCPermutations: 64})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(1, workload.Synthetic{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0, 1, 2))
	for tick := 0; tick < 6; tick++ {
		host.Advance(1)
		allocP, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		allocL, err := est.Estimate(host.Collect(), allocP.MeasuredPower)
		if err != nil {
			t.Fatal(err)
		}
		if allocP.Method != "montecarlo" {
			t.Fatalf("tick %d: method %q, want montecarlo", tick, allocP.Method)
		}
		allocP.Prov, allocL.Prov = Provenance{}, Provenance{}
		if !reflect.DeepEqual(allocP, allocL) {
			t.Fatalf("tick %d: plan MC %+v != legacy MC %+v", tick, allocP, allocL)
		}
	}
}

// TestPlanMetricsCounters wires the package metrics and checks the
// scenario's cache behaviour is observable on the vmpower_sym_* series:
// every exact tick is a collapsed tick, steady ticks reuse vectors
// verbatim, dirty ticks re-evaluate them, and the running-set changes
// force full tabulations.
func TestPlanMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	t.Cleanup(func() { Instrument(nil) })
	m := metrics()

	host, est := testRig(t, Config{Seed: 3})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	ticks, full := 0, 0
	var evaluated, reused int
	planScenario(t, []*hypervisor.Host{host}, func(int) {
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		ticks++
		if alloc.Prov.FullTabulation {
			full++
		}
		evaluated += alloc.Prov.Evaluated
		reused += alloc.Prov.Reused
	})
	if got := m.SymTicks.Value(); got != uint64(ticks) {
		t.Fatalf("SymTicks = %d, want %d", got, ticks)
	}
	if m.PlanCompiles.Value() != 1 {
		t.Fatalf("PlanCompiles = %d, want 1 (one model epoch)", m.PlanCompiles.Value())
	}
	// First tick plus the three coalition changes tabulate in full.
	if full < 4 || full == ticks {
		t.Fatalf("%d full tabulations over %d ticks, want >= 4 and < ticks", full, ticks)
	}
	if got := m.SymVectorsReused.Value(); got == 0 || got != uint64(reused) {
		t.Fatalf("SymVectorsReused = %d, want %d > 0 (steady phases reuse vectors verbatim)", got, reused)
	}
	if got := m.SymVectorsEvaluated.Value(); got == 0 || got != uint64(evaluated) {
		t.Fatalf("SymVectorsEvaluated = %d, want %d > 0 (dirty phases re-evaluate vectors)", got, evaluated)
	}
}
