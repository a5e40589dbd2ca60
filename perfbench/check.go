package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"vmpower/internal/fleet"
	"vmpower/internal/fleetd"
	"vmpower/internal/powerd"
)

// The correctness gate. Every check that fails counts in error_rate and
// makes the benchmark exit non-zero.

// checkEfficiency: Σφ equals the dynamic power on every tick.
func checkEfficiency(t tickOut) error {
	if d := math.Abs(t.SumShares - t.Dynamic); d > 1e-9*math.Max(1, t.Dynamic) {
		return fmt.Errorf("tick %d: Σφ = %v W, dynamic = %v W (off by %g)", t.Tick, t.SumShares, t.Dynamic, d)
	}
	return nil
}

// checkServed: the per-VM watts a response carries are bit-equal to the
// tick's.
func checkServed(tick int, got map[string]float64, t tickOut) error {
	if tick != t.Tick {
		return fmt.Errorf("served tick %d, stepped tick %d", tick, t.Tick)
	}
	want := t.servedWatts()
	if len(got) != len(want) {
		return fmt.Errorf("tick %d: served %d VMs, want %d", tick, len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("tick %d: VM %s served %v W, want %v W", tick, name, g, w)
		}
	}
	return nil
}

func decode[T any](body []byte) (T, error) {
	var v T
	err := json.Unmarshal(body, &v)
	return v, err
}

// composePowerd applies a powerd ?since= delta to the full read it was
// taken against (AllocationDeltaJSON's contract).
func composePowerd(base powerd.AllocationJSON, d powerd.AllocationDeltaJSON) powerd.AllocationJSON {
	out := powerd.AllocationJSON{
		Tick:             d.Tick,
		MeasuredWatts:    d.MeasuredWatts,
		DynamicWatts:     d.DynamicWatts,
		Method:           d.Method,
		PerVM:            map[string]float64{},
		Degraded:         d.Degraded,
		DegradedReason:   d.DegradedReason,
		HoldoverAgeTicks: d.HoldoverAgeTicks,
		RejectedSamples:  d.RejectedSamples,
	}
	if !d.Full {
		for name, w := range base.PerVM {
			out.PerVM[name] = w
		}
	}
	for name, w := range d.PerVM {
		out.PerVM[name] = w
	}
	return out
}

// composeFleet applies a fleetd ?since= delta to the full read it was
// taken against (TickDeltaJSON's contract).
func composeFleet(base fleetd.TickJSON, d fleetd.TickDeltaJSON) fleetd.TickJSON {
	out := fleetd.TickJSON{
		Tick:               d.Tick,
		MeasuredWatts:      d.MeasuredWatts,
		DynamicWatts:       d.DynamicWatts,
		PerVM:              map[string]float64{},
		PerTenant:          map[string]float64{},
		Degraded:           d.Degraded,
		DegradedHosts:      d.DegradedHosts,
		QuarantinedHosts:   d.QuarantinedHosts,
		DrainingHosts:      d.DrainingHosts,
		DrainedHosts:       d.DrainedHosts,
		IdleUnmeteredHosts: d.IdleUnmeteredHosts,
		Unaccounted:        d.Unaccounted,
		Events:             d.Events,
		Migrations:         d.Migrations,
	}
	hosts := map[int]fleetd.HostJSON{}
	if !d.Full {
		for name, w := range base.PerVM {
			out.PerVM[name] = w
		}
		for name, w := range base.PerTenant {
			out.PerTenant[name] = w
		}
		for _, h := range base.Hosts {
			hosts[h.Host] = h
		}
	}
	for name, w := range d.PerVM {
		out.PerVM[name] = w
	}
	for name, w := range d.PerTenant {
		out.PerTenant[name] = w
	}
	for _, name := range d.RemovedVMs {
		delete(out.PerVM, name)
	}
	for _, name := range d.RemovedTenants {
		delete(out.PerTenant, name)
	}
	for _, h := range d.Hosts {
		hosts[h.Host] = h
	}
	for _, id := range d.RemovedHosts {
		delete(hosts, id)
	}
	ids := make([]int, 0, len(hosts))
	for id := range hosts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out.Hosts = append(out.Hosts, hosts[id])
	}
	return out
}

// checkTwin: the lockstep twin fleet, built from the same input, produced
// the tick the daemon served.
func checkTwin(twin, served *fleet.Tick) error {
	if twin.Tick != served.Tick ||
		math.Float64bits(twin.MeasuredTotal) != math.Float64bits(served.MeasuredTotal) ||
		math.Float64bits(twin.DynamicTotal) != math.Float64bits(served.DynamicTotal) ||
		len(twin.Events) != len(served.Events) || len(twin.Migrations) != len(served.Migrations) {
		return fmt.Errorf("twin tick %d differs from served tick %d", twin.Tick, served.Tick)
	}
	for _, pair := range [][2]map[string]float64{{twin.PerVM, served.PerVM}, {twin.PerTenant, served.PerTenant}} {
		if len(pair[0]) != len(pair[1]) {
			return fmt.Errorf("tick %d: twin has %d entries, served %d", served.Tick, len(pair[0]), len(pair[1]))
		}
		for k, w := range pair[1] {
			if g, ok := pair[0][k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("tick %d: %s twin %v W, served %v W", served.Tick, k, g, w)
			}
		}
	}
	return nil
}
