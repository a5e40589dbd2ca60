package main

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// The traced run measures layers from outside the program: it wraps the
// interfaces the benchmark itself supplies (the meter, the trace
// generators, the HTTP handler), reads the stage histograms and counters
// the daemons record into the registry the benchmark passed to
// Instrument, times calls into public functions, and reads runtime/metrics.

// traceHooks counts calls through the wrapped meter and generators.
type traceHooks struct {
	meterReads atomic.Int64
	stateCalls atomic.Int64
}

type countingMeter struct {
	meter.Meter
	n *atomic.Int64
}

func (m countingMeter) Sample() (meter.Sample, error) {
	m.n.Add(1)
	return m.Meter.Sample()
}

type countingGen struct {
	workload.Generator
	n *atomic.Int64
}

func (g countingGen) StateAt(tick int) vm.State {
	g.n.Add(1)
	return g.Generator.StateAt(tick)
}

func (h *traceHooks) wrapMeter(m meter.Meter) meter.Meter {
	return countingMeter{Meter: m, n: &h.meterReads}
}

func (h *traceHooks) wrapGen(g workload.Generator) workload.Generator {
	return countingGen{Generator: g, n: &h.stateCalls}
}

// handlerTimer is timing middleware around a daemon's Handler.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	on   bool
	us   []float64
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start)
	t.mu.Lock()
	if t.on {
		t.us = append(t.us, float64(d.Nanoseconds())/1e3)
	}
	t.mu.Unlock()
}

// record turns sample collection on or off and returns what was
// collected since the last call.
func (t *handlerTimer) record(on bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.us
	t.us = nil
	t.on = on
	return out
}

// tickStages are the stage names core.EstimateTickSpan and
// powerd.Server.Step mark into vmpower_tick_stage_duration_seconds.
var tickStages = []string{"snapshot", "meter", "worth", "solve", "normalize", "publish"}

// regCounters is a snapshot of the registry counters the traced run
// diffs.
type regCounters struct {
	planEval, planReused  float64
	symEval, symReused    float64
	auditCheck, auditDeep float64
}

func readCounters(reg *obs.Registry) regCounters {
	counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	return regCounters{
		planEval:   counter("vmpower_plan_coalitions_evaluated_total"),
		planReused: counter("vmpower_plan_coalitions_reused_total"),
		symEval:    counter("vmpower_sym_vectors_evaluated_total"),
		symReused:  counter("vmpower_sym_vectors_reused_total"),
		auditCheck: counter("vmpower_audit_checks_total"),
		auditDeep:  counter("vmpower_audit_deep_checks_total"),
	}
}

func (a regCounters) minus(b regCounters) regCounters {
	return regCounters{a.planEval - b.planEval, a.planReused - b.planReused, a.symEval - b.symEval,
		a.symReused - b.symReused, a.auditCheck - b.auditCheck, a.auditDeep - b.auditDeep}
}

func (a regCounters) plus(b regCounters) regCounters {
	return a.minus(regCounters{-b.planEval, -b.planReused, -b.symEval, -b.symReused, -b.auditCheck, -b.auditDeep})
}

// stageSeconds returns each stage histogram's (sum, count).
func stageSeconds(reg *obs.Registry) (sums map[string]float64, counts map[string]uint64) {
	sums, counts = map[string]float64{}, map[string]uint64{}
	for _, st := range tickStages {
		h := reg.Histogram("vmpower_tick_stage_duration_seconds", "", nil, obs.L("stage", st))
		sums[st], counts[st] = h.Sum(), h.Count()
	}
	return sums, counts
}

// checkViolations requires the audit and fleet-conservation violation
// counters of a daemon's registry to read zero.
func checkViolations(rep *report, reg *obs.Registry) {
	var n uint64
	for _, name := range []string{
		"vmpower_audit_violations_total",
		"vmpower_audit_deep_mismatches_total",
		"vmpower_fleet_audit_violations_total",
	} {
		n += reg.Counter(name, "").Value()
	}
	if n > 0 {
		rep.fail(fmt.Errorf("registry reports %d audit or conservation violations", n))
	}
}

// runtimeStats reads the runtime/metrics the per-layer report diffs.
type runtimeStats struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeStats{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// heapSampler tracks peak HeapInuse (heap objects plus unused heap
// spans), sampled once per tick.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

// sample reads HeapInuse; a nil sampler (a phase whose own bookkeeping
// would dominate the heap) does nothing.
func (h *heapSampler) sample() {
	if h == nil {
		return
	}
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64() + h.s[1].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// liveHeapMB collects garbage and returns the heap still reachable: what
// the daemon retains (plus the benchmark's own small sample slices). Peak
// HeapInuse also counts garbage awaiting collection, so it depends on
// where GC cycles fall; this does not.
func liveHeapMB() float64 {
	// Two cycles: sync.Pool contents survive the first in victim caches.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
