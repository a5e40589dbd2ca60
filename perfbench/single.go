package main

import (
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/powerd"
	"vmpower/internal/shapley"
	"vmpower/internal/vm"
)

// Single-host workloads (host16-spec, wide200-sym): powerd.Server.Step
// back to back on one goroutine (a closed loop), one GET
// /api/v1/allocation after each tick.

const (
	// hostWarmTicks are stepped and dropped after set-up; the first tick
	// (inside set-up) tabulates in full.
	hostWarmTicks = 5
	// hostDeltaEvery: every this many ticks, a ?since= read against the
	// previous full read is composed and compared with the full read.
	hostDeltaEvery = 10
	// oracleEvery / oracleSamples: the ground-truth Shapley oracle solves
	// every oracleEvery-th timed tick, oracleSamples times per run, off
	// the clock (the sampled ticks do not depend on speed, so
	// phi_err_mean_pct is a function of the seed alone).
	oracleEvery   = 20
	oracleSamples = 12
	// phiErrFloorW: VMs with a smaller true share are left out of the
	// relative error.
	phiErrFloorW = 0.5
	// hostLivePerSecond sets the timed tick after which heap_live_mb is
	// read: this many per second of run length (810 at 30 s, past the
	// 600-entry history ring's fill). The daemon's rings trim by
	// re-slicing, so what stays reachable moves with the tick count; the
	// loop runs on past its time budget until it reaches that tick, so the
	// figure is a function of the seed and the run length, not of speed.
	hostLivePerSecond = 27
	// stageGapMaxPct bounds how far the sum of the stage means may fall
	// short of the mean Step latency timed from outside (the remainder is
	// the daemon's post-span bookkeeping: gauges, journal, flight record).
	stageGapMaxPct = 10
)

// hostRun is one booted single-host daemon being driven.
type hostRun struct {
	d     *powerdDaemon
	ep    *endpoint
	conn  *http.Client
	hooks *traceHooks
	last  powerd.AllocationJSON // the previous full read
}

// startHost boots a daemon, serves it and serves its first tick, which
// is the end of set-up.
func startHost(in hostInput, traced bool, rep *report) (*hostRun, setupCost, error) {
	start, cpu0 := time.Now(), threadCPU()
	h := &hostRun{}
	if traced {
		h.hooks = &traceHooks{}
	}
	d, err := bootPowerd(in, h.hooks)
	if err != nil {
		return nil, setupCost{}, err
	}
	h.d = d
	if h.ep, err = serve(d.Handler()); err != nil {
		return nil, setupCost{}, err
	}
	h.conn = newConn()
	if _, _, err := h.tick(rep, false); err != nil {
		h.close()
		return nil, setupCost{}, err
	}
	return h, since(start, cpu0), nil
}

func (h *hostRun) close() {
	closeConn(h.conn)
	h.ep.close()
}

// warm steps and drops hostWarmTicks ticks.
func (h *hostRun) warm(rep *report) error {
	for i := 0; i < hostWarmTicks; i++ {
		if _, _, err := h.tick(rep, false); err != nil {
			return err
		}
	}
	return nil
}

// hostTick is one timed iteration.
type hostTick struct {
	step, get, cpu time.Duration
	// tcpu is the Step's thread CPU time: the tick runs serially on the
	// calling goroutine, locked to its thread by the loop.
	tcpu  time.Duration
	bytes int
}

// tick steps the daemon, reads the allocation it served and checks it.
// The returned error is a failed Step or GET; failed checks go to rep.
func (h *hostRun) tick(rep *report, deltaCheck bool) (hostTick, tickOut, error) {
	rep.attempted += 2
	cpu0, tcpu0 := cpuTime(), threadCPU()
	t0 := time.Now()
	out, err := h.d.Step()
	t1 := time.Now()
	cpu1, tcpu1 := cpuTime(), threadCPU()
	if err != nil {
		return hostTick{}, out, fmt.Errorf("step: %w", err)
	}
	body, err := get(h.conn, h.ep.base+"/api/v1/allocation")
	t2 := time.Now()
	if err != nil {
		return hostTick{}, out, err
	}
	rep.check(checkEfficiency(out))
	full, err := decode[powerd.AllocationJSON](body)
	if err != nil {
		rep.check(fmt.Errorf("tick %d: decoding allocation: %w", out.Tick, err))
	} else {
		rep.check(checkServed(full.Tick, full.PerVM, out))
	}
	if deltaCheck && h.last.Tick > 0 && err == nil {
		rep.attempted++
		raw, derr := get(h.conn, h.ep.base+"/api/v1/allocation?since="+strconv.Itoa(h.last.Tick))
		if derr == nil {
			var delta powerd.AllocationDeltaJSON
			if delta, derr = decode[powerd.AllocationDeltaJSON](raw); derr == nil &&
				!reflect.DeepEqual(composePowerd(h.last, delta), full) {
				derr = fmt.Errorf("tick %d: full read at %d plus ?since= delta differs from the full read", out.Tick, h.last.Tick)
			}
		}
		rep.check(derr)
	}
	h.last = full
	return hostTick{step: t1.Sub(t0), get: t2.Sub(t1), cpu: cpu1 - cpu0, tcpu: tcpu1 - tcpu0, bytes: len(body)}, out, nil
}

// hostLoop collects a closed loop's samples.
type hostLoop struct {
	step, toBytes, get, cpu []float64 // seconds
	tcpu                    []float64 // seconds, hostTick.tcpu
	bytes                   []float64
	ref                     *refProbe     // one probe after each tick
	busy                    time.Duration // Step+GET time, the ticks_per_s base
	heap                    *heapSampler
	liveMB                  float64 // heap_live_mb, read after liveTick ticks
	phiErrSum               float64
	phiErrN                 int
	oracles                 int

	// traced runs only
	tiers                  map[string]int
	meterReads, stateCalls int64
}

// loop drives closed-loop ticks for budget of Step+GET time (oracle and
// set-up time is excluded), and on past it until liveTick ticks are done.
// After tick liveTick (when positive) it reads the live heap; st, when
// non-nil, times set-ups spread over those first liveTick ticks. A failed
// Step or GET ends the loop.
func (h *hostRun) loop(rep *report, budget time.Duration, oracle bool, liveTick int, st *setupTimer) (*hostLoop, error) {
	l := &hostLoop{heap: newHeapSampler(), ref: newRefProbe(), tiers: map[string]int{}}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 1; l.busy < budget || i <= liveTick; i++ {
		var m0, s0 int64
		if h.hooks != nil {
			m0, s0 = h.hooks.meterReads.Load(), h.hooks.stateCalls.Load()
		}
		t, out, err := h.tick(rep, i%hostDeltaEvery == 0)
		if err != nil {
			return l, err
		}
		if h.hooks != nil {
			l.meterReads += h.hooks.meterReads.Load() - m0
			l.stateCalls += h.hooks.stateCalls.Load() - s0
			l.tiers[out.Alloc.Prov.Tier]++
		}
		l.step = append(l.step, t.step.Seconds())
		l.get = append(l.get, t.get.Seconds())
		l.toBytes = append(l.toBytes, (t.step + t.get).Seconds())
		l.cpu = append(l.cpu, t.cpu.Seconds())
		l.tcpu = append(l.tcpu, t.tcpu.Seconds())
		l.bytes = append(l.bytes, float64(t.bytes))
		l.busy += t.step + t.get
		if err := l.ref.run(); err != nil {
			return l, err
		}
		l.heap.sample()
		if i == liveTick {
			l.liveMB = liveHeapMB() // off the clock, like the oracle
		}
		if oracle && i%oracleEvery == 0 && l.oracles < oracleSamples {
			l.oracles++
			sum, n, err := phiErr(h.d, out.Alloc)
			if err != nil {
				return l, err
			}
			l.phiErrSum += sum
			l.phiErrN += n
			// Collect the oracle's garbage now, off the clock, rather than
			// in GC cycles overlapping the next timed ticks.
			runtime.GC()
		}
		if st != nil && setupDue(i, liveTick) {
			if err := st.sample(); err != nil {
				return l, err
			}
		}
	}
	return l, nil
}

// phiErr solves exact Shapley over the machine's ground-truth worths at
// the tick's states and returns Σ|φ̂−φ*|/φ* over VMs with φ* ≥ 0.5 W.
func phiErr(d *powerdDaemon, alloc *core.Allocation) (float64, int, error) {
	snap := d.host.Collect()
	worth, err := d.host.Machine().WorthFunc(d.host.Set(), snap.States)
	if err != nil {
		return 0, 0, err
	}
	var failed atomic.Bool
	phi, err := shapley.ExactParallel(len(snap.States), func(c vm.Coalition) float64 {
		w, err := worth(c)
		if err != nil {
			failed.Store(true)
		}
		return w
	}, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, 0, err
	}
	if failed.Load() {
		return 0, 0, fmt.Errorf("tick %d: ground-truth worth failed", alloc.Tick)
	}
	var sum float64
	n := 0
	for i, want := range phi {
		if want >= phiErrFloorW {
			sum += math.Abs(alloc.PerVM[i]-want) / want
			n++
		}
	}
	return sum, n, nil
}

// runHost runs a single-host workload for seconds of measured ticks.
func runHost(in hostInput, seconds float64, traced, oracle bool) (*report, error) {
	rep := &report{}
	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		return rep, traceHost(rep, in, budget)
	}
	st := &setupTimer{start: func() (setupCost, error) {
		h, c, err := startHost(in, false, rep)
		if err == nil {
			h.close()
		}
		return c, err
	}}
	if err := st.warm(); err != nil {
		return nil, err
	}
	h, _, err := startHost(in, false, rep)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if err := h.warm(rep); err != nil {
		return nil, err
	}
	liveTick := max(1, int(seconds*hostLivePerSecond))
	l, err := h.loop(rep, budget, oracle, liveTick, st)
	if err != nil {
		return nil, err
	}
	checkViolations(rep, h.d.Registry())
	hostE2E(rep, st, l, liveTick)
	if oracle {
		v := 0.0
		if l.phiErrN > 0 {
			v = 100 * l.phiErrSum / float64(l.phiErrN)
		}
		rep.add(&rep.extra, "phi_err_mean_pct", "%", v,
			fmt.Sprintf("%d VM-ticks with φ* ≥ %.1f W over %d oracle ticks", l.phiErrN, phiErrFloorW, l.oracles))
	}
	return rep, nil
}

func hostE2E(rep *report, st *setupTimer, l *hostLoop, liveTick int) {
	e2e := &rep.e2e
	st.report(rep, "the timed ticks", l.ref.cpu)
	rep.addSteady(e2e, "tick_p50_ms", l.step, dist.median)
	rep.addTail(e2e, "tick_p99_ms", l.step)
	rep.addSteady(e2e, "tick_cpu_ms", l.cpu, dist.mean)
	rep.addNorm(e2e, "tick_cpu_norm_ms", l.tcpu, l.ref.cpu)
	// Every tick of a single host is followed by its read, so the ticks
	// served beside reads are all of them.
	rep.addNorm(e2e, "tick_cpu_scraped_norm_ms", l.tcpu, l.ref.cpu)
	rep.add(e2e, "ticks_per_s", "1/s", float64(len(l.step))/l.busy.Seconds(), "closed loop, Step+GET time")
	rep.addTail(e2e, "sample_to_bytes_p99_ms", l.toBytes)
	rep.addSteady(e2e, "scrape_p50_ms", l.get, dist.median)
	rep.addTail(e2e, "scrape_p99_ms", l.get)
	rep.add(e2e, "heap_peak_mb", "MB", float64(l.heap.peak)/(1<<20), "peak HeapInuse, sampled per tick")
	rep.add(e2e, "heap_live_mb", "MB", l.liveMB, fmt.Sprintf("live heap after a forced GC at timed tick %d", liveTick))
}

// traceHost is the traced run: an untraced closed loop for the overhead
// baseline, then the same loop on a daemon booted with every wrapper.
func traceHost(rep *report, in hostInput, budget time.Duration) error {
	plain, _, err := startHost(in, false, rep)
	if err != nil {
		return err
	}
	err = plain.warm(rep)
	var base *hostLoop
	if err == nil {
		base, err = plain.loop(rep, budget*2/5, false, 0, nil)
	}
	checkViolations(rep, plain.d.Registry())
	plain.close()
	if err != nil {
		return err
	}

	h, _, err := startHost(in, true, rep)
	if err != nil {
		return err
	}
	defer h.close()
	if err := h.warm(rep); err != nil {
		return err
	}
	reg := h.d.Registry()
	c0, rt0 := readCounters(reg), readRuntime()
	s0, n0 := stageSeconds(reg)
	l, err := h.loop(rep, budget*3/5, false, 0, nil)
	if err != nil {
		return err
	}
	c1, rt1 := readCounters(reg), readRuntime()
	s1, n1 := stageSeconds(reg)
	counted := c1.minus(c0)
	checkViolations(rep, reg)

	ticks := float64(len(l.step))
	stageMs := map[string]float64{}
	var stageSum float64
	for _, st := range tickStages {
		if c := n1[st] - n0[st]; c > 0 {
			stageMs[st] = 1e3 * (s1[st] - s0[st]) / float64(c)
		}
		stageSum += stageMs[st]
	}
	meanTick := 1e3 * sum(l.step) / ticks
	gap := 100 * (stageSum - meanTick) / meanTick
	if math.Abs(gap) > stageGapMaxPct {
		rep.fail(fmt.Errorf("stage means sum to %.3f ms, %.1f%% off the %.3f ms mean tick", stageSum, gap, meanTick))
	}
	tiers := func(t string) float64 { return float64(l.tiers[t]) / ticks }
	perTick := func(d float64) float64 { return d / ticks }
	layer := &rep.layer
	rep.add(layer, "hypervisor.snapshot_ms", "ms", stageMs["snapshot"], "stage snapshot")
	rep.add(layer, "workload.state_calls_per_tick", "count", float64(l.stateCalls)/ticks, "wrapped generators")
	rep.add(layer, "meter.read_ms", "ms", stageMs["meter"], "stage meter")
	rep.add(layer, "meter.reads_per_tick", "count", float64(l.meterReads)/ticks, "wrapped meter")
	rep.add(layer, "vhc.worth_ms", "ms", stageMs["worth"], "stage worth")
	addTableLayers(rep, counted, ticks)
	rep.add(layer, "shapley.solve_ms", "ms", stageMs["solve"], "stage solve")
	rep.add(layer, "shapley.tier_mask_frac", "ratio", tiers(core.TierMaskExact), "Prov.Tier")
	rep.add(layer, "shapley.tier_sym_frac", "ratio", tiers(core.TierSymExact), "Prov.Tier")
	rep.add(layer, "shapley.tier_mc_frac", "ratio", tiers(core.TierMonteCarlo), "Prov.Tier")
	rep.add(layer, "core.normalize_ms", "ms", stageMs["normalize"], "stage normalize")
	rep.add(layer, "core.audit_checks_per_tick", "count", perTick(counted.auditCheck), "registry")
	rep.add(layer, "core.audit_deep_per_tick", "count", perTick(counted.auditDeep), "registry")
	rep.add(layer, "powerd.publish_ms", "ms", stageMs["publish"], "stage publish: audit + record + encode")
	rep.add(layer, "powerd.snapshot_bytes", "bytes", newDist(l.bytes).mean(), "full allocation body")
	rep.add(layer, "powerd.get_ms", "ms", 1e3*newDist(l.get).mean(), "post-tick GET, client side")
	for _, m := range fleetLayerNames {
		rep.add(layer, m[0], m[1], 0, "not exercised on a single host")
	}
	addRuntimeLayers(rep, rt0, rt1, ticks)
	rep.add(layer, "trace.stage_gap_pct", "%", gap, fmt.Sprintf("Σ stage means %.3f ms vs mean Step %.3f ms", stageSum, meanTick))
	rep.add(layer, "trace.overhead_pct", "%",
		100*(newDist(l.step).median()-newDist(base.step).median())/newDist(base.step).median(),
		"traced vs untraced tick p50")
	sortLayers(rep)
	return nil
}

// addTableLayers reports the worth-table work the registry counted.
func addTableLayers(rep *report, c regCounters, ticks float64) {
	ratio := 0.0
	if all := c.planEval + c.planReused + c.symEval + c.symReused; all > 0 {
		ratio = (c.planReused + c.symReused) / all
	}
	layer := &rep.layer
	rep.add(layer, "vhc.coalitions_evaluated_per_tick", "count", c.planEval/ticks, "registry, mask path")
	rep.add(layer, "vhc.reuse_ratio", "ratio", ratio, "reused / (evaluated + reused), mask and sym tables")
	rep.add(layer, "vhc.sym_vectors_per_tick", "count", c.symEval/ticks, "registry, sym path")
}

func addRuntimeLayers(rep *report, rt0, rt1 runtimeStats, ticks float64) {
	frac := 0.0
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		frac = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	rep.add(&rep.layer, "runtime.alloc_kb_per_tick", "KB", (rt1.allocBytes-rt0.allocBytes)/1024/ticks, "runtime/metrics")
	rep.add(&rep.layer, "runtime.gc_cpu_frac", "ratio", frac, "runtime/metrics estimate")
}

// sortLayers orders the per-layer report by name.
func sortLayers(rep *report) {
	sort.SliceStable(rep.layer, func(a, b int) bool { return rep.layer[a].Name < rep.layer[b].Name })
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
