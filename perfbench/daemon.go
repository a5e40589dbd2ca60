package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"vmpower/internal/cliutil"
	"vmpower/internal/core"
	"vmpower/internal/fleet"
	"vmpower/internal/fleetd"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/powerd"
	"vmpower/internal/scenario"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// This file is the benchmark's only contact with the production daemons:
// boot (build the hosts, calibrate, construct, instrument on a registry
// the benchmark owns, enable the audit), Step, the HTTP handler and the
// registry. Every setting but parallelism is the cmd/powerd or cmd/fleetd
// flag default: -audit-deep 60, meter noise 0.25 W, a 1 s interval,
// holdover 10 ticks. A change to how a daemon is built or wired
// ports the benchmark by changing this file alone.

// tickOut is what one Step produced, reduced to what the benchmark checks.
type tickOut struct {
	Tick int
	// SumShares and Dynamic are Σφ and the dynamic power it must equal
	// (Efficiency).
	SumShares, Dynamic float64
	// Alloc is the single-host allocation (nil on the fleet).
	Alloc *core.Allocation
	// Fleet is the fleet tick (nil on a single host).
	Fleet *fleet.Tick

	names []string
}

// servedWatts returns the per-VM watts the daemon must serve for this
// tick: dynamic plus idle share on a single host, the rollup on the fleet.
func (t tickOut) servedWatts() map[string]float64 {
	if t.Fleet != nil {
		return t.Fleet.PerVM
	}
	out := make(map[string]float64, len(t.names))
	for i, name := range t.names {
		out[name] = t.Alloc.Total(vm.ID(i))
	}
	return out
}

const (
	daemonInterval  = time.Second
	daemonAuditDeep = 60
	daemonNoise     = 0.25
	daemonHoldover  = 10
	daemonHistory   = 600
	// daemonParallelism is serial, not the flag default of all cores. On
	// a shared host with few vCPUs a parallel tick waits for whichever
	// worker the scheduler or the hypervisor delayed, so its latency
	// measures the neighbours; serial, the tick runs on the goroutine
	// that times it, beside the reference probe (probe.go).
	daemonParallelism = 1
)

func quietLogger() *obs.Logger { return obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV) }

// powerdDaemon is cmd/powerd's pipeline over a generated single-host input.
type powerdDaemon struct {
	srv   *powerd.Server
	reg   *obs.Registry
	host  *hypervisor.Host
	names []string
}

// bootPowerd builds, calibrates and instruments a powerd over in. hooks,
// when non-nil, wraps the meter and the trace generators (traced runs).
func bootPowerd(in hostInput, hooks *traceHooks) (*powerdDaemon, error) {
	var prof machine.Profile
	switch in.Profile {
	case "xeon16":
		prof = machine.XeonProfile()
	case "dense256":
		prof = machine.DenseProfile()
	default:
		return nil, fmt.Errorf("unknown machine profile %q", in.Profile)
	}
	mach, err := machine.New(prof, machine.Pack)
	if err != nil {
		return nil, err
	}
	vms := make([]vm.VM, len(in.VMs))
	names := make([]string, len(in.VMs))
	for i, v := range in.VMs {
		vms[i] = vm.VM{Name: v.Name, Type: v.Type}
		names[i] = v.Name
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		return nil, err
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		return nil, err
	}
	sim, err := meter.NewSim(host.PowerSource(), meter.SimOptions{
		NoiseStdDev: daemonNoise, Resolution: 0.1, Seed: in.MeterSeed,
	})
	if err != nil {
		return nil, err
	}
	var m meter.Meter = sim
	if hooks != nil {
		m = hooks.wrapMeter(m)
	}
	est, err := core.New(host, m, core.Config{
		Seed:          in.MeterSeed,
		Parallelism:   daemonParallelism,
		HoldoverTicks: daemonHoldover,
	})
	if err != nil {
		return nil, err
	}
	if err := est.CollectOffline(); err != nil {
		return nil, err
	}
	gens := map[int]workload.Generator{}
	running := make([]bool, len(in.VMs))
	for i, v := range in.VMs {
		g, ok := gens[v.Class]
		if !ok {
			if g, err = workload.ByName(v.Workload, v.Seed); err != nil {
				return nil, err
			}
			if hooks != nil {
				g = hooks.wrapGen(g)
			}
			gens[v.Class] = g
		}
		if err := host.Attach(vm.ID(i), g); err != nil {
			return nil, err
		}
		running[i] = true
	}
	if err := host.SetRunning(running); err != nil {
		return nil, err
	}
	srv, err := powerd.New(est, names, daemonHistory)
	if err != nil {
		return nil, err
	}
	if err := srv.SetInterval(daemonInterval); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv.Instrument(reg, quietLogger(), daemonInterval)
	srv.EnableAudit(core.AuditConfig{DeepEvery: daemonAuditDeep})
	return &powerdDaemon{srv: srv, reg: reg, host: host, names: names}, nil
}

func (d *powerdDaemon) Step() (tickOut, error) {
	alloc, err := d.srv.Step()
	if err != nil {
		return tickOut{}, err
	}
	var sum float64
	for _, w := range alloc.PerVM {
		sum += w
	}
	return tickOut{Tick: alloc.Tick, SumShares: sum, Dynamic: alloc.DynamicPower, Alloc: alloc, names: d.names}, nil
}

func (d *powerdDaemon) Handler() http.Handler   { return d.srv.Handler() }
func (d *powerdDaemon) Registry() *obs.Registry { return d.reg }

// fleetdDaemon is cmd/fleetd's pipeline with a -scenario over a generated
// fleet input.
type fleetdDaemon struct {
	srv *fleetd.Server
	reg *obs.Registry
}

// newFleet builds and calibrates the fleet and its scenario engine the
// way cmd/fleetd does; the traced run builds a second one as a lockstep
// twin.
func newFleet(in fleetInput) (*fleet.Fleet, *scenario.Engine, error) {
	f, err := fleet.New(fleet.Config{
		Hosts:         in.Hosts,
		Seed:          in.Seed,
		MeterNoise:    daemonNoise,
		Parallelism:   daemonParallelism,
		TickInterval:  daemonInterval,
		HoldoverTicks: daemonHoldover,
	}, in.VMs)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Calibrate(); err != nil {
		return nil, nil, err
	}
	events, err := cliutil.ParseScenario(in.Scenario)
	if err != nil {
		return nil, nil, err
	}
	engine, err := scenario.New(f, events, in.ScenarioSeed)
	if err != nil {
		return nil, nil, err
	}
	return f, engine, nil
}

func bootFleetd(in fleetInput) (*fleetdDaemon, error) {
	f, engine, err := newFleet(in)
	if err != nil {
		return nil, err
	}
	srv, err := fleetd.New(f)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv.Instrument(reg, quietLogger(), daemonInterval)
	srv.EnableAudit(core.AuditConfig{DeepEvery: daemonAuditDeep})
	srv.SetScenario(engine)
	return &fleetdDaemon{srv: srv, reg: reg}, nil
}

func (d *fleetdDaemon) Step() (tickOut, error) {
	t, err := d.srv.Step()
	if err != nil {
		return tickOut{}, err
	}
	var sum float64
	for _, w := range t.PerVM {
		sum += w
	}
	return tickOut{Tick: t.Tick, SumShares: sum, Dynamic: t.DynamicTotal, Fleet: t}, nil
}

func (d *fleetdDaemon) Handler() http.Handler   { return d.srv.Handler() }
func (d *fleetdDaemon) Registry() *obs.Registry { return d.reg }
