package main

import (
	"reflect"
	"strings"
	"testing"

	"vmpower/internal/fleet"
	"vmpower/internal/vm"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	fleetIn := func(seed int64) any {
		in, err := newFleetInput(seed, 600)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	for name, gen := range map[string]func(int64) any{
		"host16-spec":         func(s int64) any { return host16Input(s) },
		"wide200-sym":         func(s int64) any { return wide200Input(s) },
		"fleet8-churn-scrape": fleetIn,
	} {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
}

func TestHostInputShapes(t *testing.T) {
	in := host16Input(3)
	types := map[vm.TypeID]int{}
	for _, v := range in.VMs {
		types[v.Type]++
	}
	if len(in.VMs) != 16 || types[0] != 10 || types[1] != 4 || types[2] != 2 {
		t.Errorf("host16 roster %v, want 10×VM1 4×VM2 2×VM3", types)
	}

	wide := wide200Input(3)
	sizes := map[int]int{}
	for _, v := range wide.VMs {
		sizes[v.Class]++
		if v.Type != vm.TypeID(v.Class%2) {
			t.Fatalf("%s: class %d has type %d", v.Name, v.Class, v.Type)
		}
	}
	for j, c := range wide200Classes {
		if sizes[j] != c {
			t.Errorf("class %d has %d members, want %d", j, sizes[j], c)
		}
	}
}

// The fleet roster: 48 VMs of 4 tenants, at most 8 VMs on a host once
// the spares leave.
func TestFleetRosterShape(t *testing.T) {
	in, err := newFleetInput(5, 400)
	if err != nil {
		t.Fatal(err)
	}
	tenants := map[string]bool{}
	for _, r := range in.VMs {
		tenants[r.Tenant] = true
	}
	if len(in.VMs) != 48 || len(tenants) != 4 {
		t.Errorf("roster has %d VMs of %d tenants, want 48 of 4", len(in.VMs), len(tenants))
	}
	f, err := fleet.New(fleet.Config{Hosts: in.Hosts, Seed: in.Seed}, in.VMs)
	if err != nil {
		t.Fatal(err)
	}
	perHost := map[int]int{}
	for _, h := range f.Placement() {
		perHost[h]++
	}
	for h := 0; h < fleetHosts; h++ {
		// Tick 1 removes one spare VM from every host.
		if n := perHost[h] - 1; n > 8 {
			t.Errorf("host %d holds %d VMs after the spares leave, want at most 8", h, n)
		}
	}
}

// Every generated event must be accepted by the fleet, on any seed.
func TestFleetTimelinePlaysWithoutRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates eight hosts per seed")
	}
	const ticks = 400
	for seed := int64(1); seed <= 4; seed++ {
		in, err := newFleetInput(seed, ticks)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"migrate", "hotplug", "drain", "undrain", "poweroff", "autoscale"} {
			if !strings.Contains(in.Scenario, ":"+kind) {
				t.Errorf("seed %d: scenario has no %s event", seed, kind)
			}
		}
		f, engine, err := newFleet(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.Run(ticks, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := engine.Status()
		if st.Refused != 0 || !engine.Done() {
			var refused []string
			for _, a := range engine.Log() {
				if a.Err != "" {
					refused = append(refused, a.Op+" "+a.Subject+": "+a.Err)
				}
			}
			t.Errorf("seed %d: %d of %d events refused, done=%v: %v", seed, st.Refused, st.Events, engine.Done(), refused)
		}
		if done, _ := f.MigrationTotals(); done < fleetCycles {
			t.Errorf("seed %d: %d migrations completed, want at least %d", seed, done, fleetCycles)
		}
	}
}
