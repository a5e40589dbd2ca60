package main

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/fleet"
	"vmpower/internal/fleetd"
	"vmpower/internal/scenario"
)

// fleet8-churn-scrape: fleetd.Server.Step over eight hosts with a
// lifecycle scenario, in three phases. Churn: a fixed number of
// closed-loop ticks and no scrapes. Scrape: ticks on a 20 ms schedule
// beside an open-loop read stream at 2000 req/s over nproc keep-alive
// connections. Saturate: closed-loop reads on nproc connections while
// ticks continue on schedule.

const (
	fleetWarmTicks = 10
	// fleetChurnPerSecond is the churn phase's tick count per second of
	// run length. It is a count, not a duration: every tick may add to
	// the scenario's effect on host sizes, so the timeline and the work
	// of a run must not depend on how fast ticks are.
	fleetChurnPerSecond = 1000
	fleetScrapeShare    = 0.45
	fleetSatShare       = 0.10
	fleetSchedule       = 20 * time.Millisecond
	fleetReadRate       = 2000.0
	// fleetCheckEvery: during churn, every this many ticks a full read is
	// checked against the tick and a ?since= delta against the previous
	// checked read.
	fleetCheckEvery = 50
	// fleetProbeEvery: during churn, the reference probe (probe.go) runs
	// after every this many ticks; a probe costs about one and a half
	// churn ticks. The scheduled phases probe after every tick, in the
	// slack of its 20 ms slot.
	fleetProbeEvery = 8
)

// fleetPhases returns the tick counts of the three phases.
func fleetPhases(seconds float64) (churn, scrape, sat int) {
	churn = int(seconds * fleetChurnPerSecond)
	scrape = int(seconds * fleetScrapeShare / fleetSchedule.Seconds())
	sat = int(seconds * fleetSatShare / fleetSchedule.Seconds())
	return churn, scrape, sat
}

// fleetTimelineTicks is the tick count a run makes, set-up tick included;
// the scenario is generated for exactly this many.
func fleetTimelineTicks(seconds float64) int {
	churn, scrape, sat := fleetPhases(seconds)
	n := 1 + fleetWarmTicks + churn + scrape + sat
	if n < fleetMinTicks {
		n = fleetMinTicks
	}
	return n
}

// tickStore keeps the recent served ticks so stream readers can check the
// bytes they got against the tick that produced them.
type tickStore struct {
	mu    sync.Mutex
	ticks map[int]map[string]float64
}

func (s *tickStore) put(t *fleet.Tick) {
	s.mu.Lock()
	s.ticks[t.Tick] = t.PerVM
	delete(s.ticks, t.Tick-64)
	s.mu.Unlock()
}

// wait returns tick's per-VM watts, waiting briefly for the tick loop to
// record a tick a reader saw first (Step publishes before it returns).
func (s *tickStore) wait(tick int) (map[string]float64, bool) {
	for deadline := time.Now().Add(time.Second); ; {
		s.mu.Lock()
		w, ok := s.ticks[tick]
		s.mu.Unlock()
		if ok || time.Now().After(deadline) {
			return w, ok
		}
		time.Sleep(50 * time.Microsecond)
	}
}

type fleetRun struct {
	d     *fleetdDaemon
	ep    *endpoint
	conn  *http.Client
	timer *handlerTimer
	store *tickStore
	last  fleetd.TickJSON // the previous checked full read
	tick  int             // the last stepped tick

	// traced runs only: the lockstep twin and what it measured
	twin       *fleet.Fleet
	twinEngine *scenario.Engine
	tr         fleetTrace
}

type fleetTrace struct {
	ticks                  int
	apply, step, served    []float64 // seconds
	hostsEst, events, migs float64
	hostTicks              int
	tiers                  map[string]int
	// counters sums the registry deltas across served Steps only: the
	// twin's estimators count into the same package-level core metrics.
	counters regCounters
}

func startFleet(in fleetInput, traced bool, rep *report) (*fleetRun, setupCost, error) {
	start, cpu0 := time.Now(), threadCPU()
	d, err := bootFleetd(in)
	if err != nil {
		return nil, setupCost{}, err
	}
	r := &fleetRun{d: d, store: &tickStore{ticks: map[int]map[string]float64{}}}
	handler := d.Handler()
	if traced {
		r.timer = &handlerTimer{next: handler}
		handler = r.timer
		if r.twin, r.twinEngine, err = newFleet(in); err != nil {
			return nil, setupCost{}, err
		}
		r.tr.tiers = map[string]int{}
	}
	if r.ep, err = serve(handler); err != nil {
		return nil, setupCost{}, err
	}
	r.conn = newConn()
	if _, err := r.step(rep); err != nil {
		r.close()
		return nil, setupCost{}, err
	}
	if err := r.checkRead(rep); err != nil {
		r.close()
		return nil, setupCost{}, err
	}
	return r, since(start, cpu0), nil
}

func (r *fleetRun) close() {
	closeConn(r.conn)
	r.ep.close()
}

// stepCost is what one Step took: wall time, process CPU time and the
// thread CPU time of the Step, which runs serially on the calling
// goroutine (its caller locks it to its thread).
type stepCost struct{ wall, cpu, tcpu time.Duration }

// step runs one daemon tick (and, traced, the twin's) and checks it.
func (r *fleetRun) step(rep *report) (stepCost, error) {
	var c0 regCounters
	if r.twin != nil {
		c0 = readCounters(r.d.Registry())
	}
	cpu0, tcpu0 := cpuTime(), threadCPU()
	t0 := time.Now()
	out, err := r.d.Step()
	c := stepCost{wall: time.Since(t0), cpu: cpuTime() - cpu0, tcpu: threadCPU() - tcpu0}
	rep.attempted++
	if err != nil {
		return c, fmt.Errorf("step: %w", err)
	}
	r.tick = out.Tick
	r.store.put(out.Fleet)
	rep.check(checkEfficiency(out))
	if r.twin != nil {
		r.traceTwin(rep, out.Fleet, c.wall, readCounters(r.d.Registry()).minus(c0))
	}
	return c, nil
}

// traceTwin steps the twin fleet in lockstep, timing scenario.Engine.Apply
// and fleet.Fleet.Step apart, and checks it reproduces the served tick.
func (r *fleetRun) traceTwin(rep *report, served *fleet.Tick, took time.Duration, counted regCounters) {
	t0 := time.Now()
	r.twinEngine.Apply()
	t1 := time.Now()
	twin, err := r.twin.Step()
	t2 := time.Now()
	if err == nil {
		err = checkTwin(twin, served)
	}
	rep.check(err)
	tr := &r.tr
	tr.ticks++
	tr.apply = append(tr.apply, t1.Sub(t0).Seconds())
	tr.step = append(tr.step, t2.Sub(t1).Seconds())
	tr.served = append(tr.served, took.Seconds())
	for _, hs := range served.Hosts {
		tr.hostTicks++
		if hs.State != fleet.HostQuarantined {
			tr.hostsEst++
		}
		tr.tiers[hs.Tier]++
	}
	tr.events += float64(len(served.Events))
	tr.migs += float64(len(served.Migrations))
	tr.counters = tr.counters.plus(counted)
}

// checkRead reads the full allocation and a ?since= delta against the
// previous checked read, and checks both against the latest tick.
func (r *fleetRun) checkRead(rep *report) error {
	rep.attempted++
	body, err := get(r.conn, r.ep.base+"/api/v1/allocation")
	if err != nil {
		return err
	}
	full, err := decode[fleetd.TickJSON](body)
	if err != nil {
		rep.check(fmt.Errorf("decoding fleet allocation: %w", err))
		return nil
	}
	if watts, ok := r.store.wait(full.Tick); ok {
		rep.check(checkServed(full.Tick, full.PerVM, tickOut{Tick: full.Tick, Fleet: &fleet.Tick{PerVM: watts}}))
	} else {
		rep.check(fmt.Errorf("served tick %d was never stepped", full.Tick))
	}
	if r.last.Tick > 0 {
		rep.attempted++
		raw, err := get(r.conn, r.ep.base+"/api/v1/allocation?since="+strconv.Itoa(r.last.Tick))
		if err == nil {
			var delta fleetd.TickDeltaJSON
			if delta, err = decode[fleetd.TickDeltaJSON](raw); err == nil && !reflect.DeepEqual(composeFleet(r.last, delta), full) {
				err = fmt.Errorf("fleet tick %d: full read at %d plus ?since= delta differs from the full read", full.Tick, r.last.Tick)
			}
		}
		rep.check(err)
	}
	r.last = full
	return nil
}

// checkScenario reads the daemon's scenario progress: no generated event
// may have been refused, and a full run plays the whole timeline.
func (r *fleetRun) checkScenario(rep *report, wantDone bool) {
	rep.attempted++
	body, err := get(r.conn, r.ep.base+"/api/v1/scenario")
	if err == nil {
		var st fleetd.ScenarioJSON
		if st, err = decode[fleetd.ScenarioJSON](body); err == nil && (st.Refused != 0 || (wantDone && !st.Done)) {
			err = fmt.Errorf("scenario: %d of %d events refused, done=%v", st.Refused, st.Events, st.Done)
		}
	}
	rep.check(err)
}

// tickSamples are a phase's per-tick costs, in seconds and tick order,
// with the reference probes interleaved with them.
type tickSamples struct {
	step, cpu, tcpu []float64
	ref             *refProbe
}

func (t *tickSamples) add(c stepCost) {
	t.step = append(t.step, c.wall.Seconds())
	t.cpu = append(t.cpu, c.cpu.Seconds())
	t.tcpu = append(t.tcpu, c.tcpu.Seconds())
}

// churn runs n closed-loop ticks with no scrapes; st, when non-nil, times
// set-ups spread over them.
func (r *fleetRun) churn(rep *report, n int, heap *heapSampler, st *setupTimer) (*tickSamples, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := &tickSamples{ref: newRefProbe()}
	for i := 1; i <= n; i++ {
		c, err := r.step(rep)
		if err != nil {
			return out, err
		}
		out.add(c)
		heap.sample()
		if i%fleetProbeEvery == 0 {
			if err := out.ref.run(); err != nil {
				return out, err
			}
		}
		if i%fleetCheckEvery == 0 {
			if err := r.checkRead(rep); err != nil {
				return out, err
			}
		}
		if st != nil && setupDue(i, n) {
			if err := st.sample(); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// scheduled runs n ticks on the fixed schedule from start, returning each
// tick's start time and costs, with a reference probe after each tick. A
// late tick runs at once; none is skipped.
func (r *fleetRun) scheduled(rep *report, n int, start time.Time, heap *heapSampler) ([]time.Time, *tickSamples, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var starts []time.Time
	out := &tickSamples{ref: newRefProbe()}
	for i := 0; i < n; i++ {
		if wait := time.Until(start.Add(time.Duration(i) * fleetSchedule)); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		c, err := r.step(rep)
		if err != nil {
			return starts, out, err
		}
		starts = append(starts, t0)
		out.add(c)
		heap.sample()
		if err := out.ref.run(); err != nil {
			return starts, out, err
		}
	}
	return starts, out, nil
}

// reader is one stream connection's state. Most reads are not decoded:
// the reader only notes the tick a response carries, so the client stays
// cheap next to the daemon it measures. Every readerCheckEvery-th request of a
// connection starts a checked triple instead: a full read (decoded and
// checked against the stepped tick), a ?since= delta against it, and a
// full read that base + delta must equal when it carries the same tick.
type reader struct {
	c        *http.Client
	n        int // requests sent
	lastTick int
	seen     []tickSeen
	full     []float64 // body bytes
	delta    []float64
	resyncs  int
	checks   int // triples whose last two reads landed on one tick

	triple int // position in a checked triple; 0 when none is running
	base   fleetd.TickJSON
}

// readerCheckEvery spaces the checked triples on a connection.
const readerCheckEvery = 16

// tickSeen is a response that carried tick, complete at done.
type tickSeen struct {
	done time.Time
	tick int
}

// streamKind picks request i's kind from the seed: 40% full allocation,
// 30% ?since= delta, 15% status, 15% energy.
func streamKind(seed int64, i int) int {
	x := uint64(seed) ^ uint64(i)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	switch p := x % 100; {
	case p < 40:
		return 0
	case p < 70:
		return 1
	case p < 85:
		return 2
	default:
		return 3
	}
}

// wireTick reads the "tick" field from the head of an allocation or delta
// body without decoding the rest (both encoders write it first or second).
func wireTick(body []byte) (int, bool) {
	head := body[:min(len(body), 64)]
	i := bytes.Index(head, []byte(`"tick":`))
	if i < 0 {
		return 0, false
	}
	n, ok := 0, false
	for _, c := range head[i+len(`"tick":`):] {
		if c < '0' || c > '9' {
			break
		}
		n, ok = 10*n+int(c-'0'), true
	}
	return n, ok
}

// read performs stream request i on this connection.
func (rd *reader) read(base string, seed int64, i int, store *tickStore) error {
	if rd.triple == 0 && rd.n%readerCheckEvery == 0 {
		rd.triple = 1
	}
	rd.n++
	if rd.triple > 0 {
		return rd.checked(base, store)
	}
	kind := streamKind(seed, i)
	if kind == 1 && rd.lastTick == 0 {
		kind = 0
	}
	var url string
	switch kind {
	case 0:
		url = base + "/api/v1/allocation"
	case 1:
		url = base + "/api/v1/allocation?since=" + strconv.Itoa(rd.lastTick)
	case 2:
		url = base + "/api/v1/status"
	default:
		url = base + "/api/v1/energy"
	}
	body, err := get(rd.c, url)
	if err != nil {
		return err
	}
	if kind > 1 {
		return nil
	}
	tick, ok := wireTick(body)
	if !ok {
		return fmt.Errorf("GET %s: no tick in the response", url)
	}
	rd.note(time.Now(), tick)
	if kind == 0 {
		rd.full = append(rd.full, float64(len(body)))
		return nil
	}
	rd.delta = append(rd.delta, float64(len(body)))
	if bytes.Contains(body[:min(len(body), 80)], []byte(`"full":true`)) {
		rd.resyncs++
	}
	return nil
}

func (rd *reader) note(done time.Time, tick int) {
	rd.seen = append(rd.seen, tickSeen{done, tick})
	rd.lastTick = tick
}

// checked performs the next read of a checked triple.
func (rd *reader) checked(base string, store *tickStore) error {
	step := rd.triple
	rd.triple = (rd.triple + 1) % 4
	if step == 2 {
		body, err := get(rd.c, base+"/api/v1/allocation?since="+strconv.Itoa(rd.base.Tick))
		if err != nil {
			return err
		}
		done := time.Now()
		delta, err := decode[fleetd.TickDeltaJSON](body)
		if err != nil {
			return err
		}
		rd.base = composeFleet(rd.base, delta)
		rd.note(done, delta.Tick)
		rd.delta = append(rd.delta, float64(len(body)))
		if delta.Full {
			rd.resyncs++
		}
		return nil
	}
	body, err := get(rd.c, base+"/api/v1/allocation")
	if err != nil {
		return err
	}
	done := time.Now()
	full, err := decode[fleetd.TickJSON](body)
	if err != nil {
		return err
	}
	rd.note(done, full.Tick)
	rd.full = append(rd.full, float64(len(body)))
	if step == 3 {
		if rd.base.Tick == full.Tick {
			rd.checks++
			if !reflect.DeepEqual(rd.base, full) {
				return fmt.Errorf("fleet tick %d: full read plus ?since= delta differs from the full read", full.Tick)
			}
		}
		return nil
	}
	rd.base = full
	watts, ok := store.wait(full.Tick)
	if !ok {
		return fmt.Errorf("served tick %d was never stepped", full.Tick)
	}
	return checkServed(full.Tick, full.PerVM, tickOut{Tick: full.Tick, Fleet: &fleet.Tick{PerVM: watts}})
}

// phaseOut is what a stream phase measured: each tick's start and costs,
// every read, and the readers' state.
type phaseOut struct {
	starts  []time.Time
	ticks   *tickSamples
	samples []reqSample
	readers []*reader
	dur     time.Duration
}

// streamPhase runs ticks on the fixed schedule beside a read load on
// nproc connections; load runs until the last tick's slot ends.
func (r *fleetRun) streamPhase(rep *report, ticks int, seed int64, heap *heapSampler,
	load func(start, end time.Time, conns int, do func(conn, i int) error) []reqSample) (*phaseOut, error) {
	conns := runtime.NumCPU()
	out := &phaseOut{readers: make([]*reader, conns)}
	for c := range out.readers {
		out.readers[c] = &reader{c: newConn()}
		defer closeConn(out.readers[c].c)
	}
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(time.Duration(ticks) * fleetSchedule)
	var tickErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out.starts, out.ticks, tickErr = r.scheduled(rep, ticks, start, heap)
	}()
	out.samples = load(start, end, conns, func(c, i int) error {
		return out.readers[c].read(r.ep.base, seed, i, r.store)
	})
	wg.Wait()
	out.dur = end.Sub(start)
	rep.attempted += len(out.samples)
	for _, s := range out.samples {
		if s.err != nil {
			rep.fail(s.err)
		}
	}
	return out, tickErr
}

// sampleToBytes: for each tick, from its start to the first stream
// response (by completion) that carries that tick or a later one.
func sampleToBytes(starts []time.Time, firstTick int, readers []*reader) []float64 {
	var seen []tickSeen
	for _, rd := range readers {
		seen = append(seen, rd.seen...)
	}
	sort.Slice(seen, func(a, b int) bool { return seen[a].done.Before(seen[b].done) })
	maxTick := make([]int, len(seen))
	m := 0
	for i, s := range seen {
		if s.tick > m {
			m = s.tick
		}
		maxTick[i] = m
	}
	var out []float64
	for k, st := range starts {
		tick := firstTick + k
		j := sort.SearchInts(maxTick, tick)
		if j < len(seen) {
			out = append(out, seen[j].done.Sub(st).Seconds())
		}
	}
	return out
}

// runFleet runs fleet8-churn-scrape.
func runFleet(seed int64, seconds float64, traced bool) (*report, error) {
	rep := &report{}
	in, err := newFleetInput(seed, fleetTimelineTicks(seconds))
	if err != nil {
		return nil, err
	}
	churnN, scrapeN, satN := fleetPhases(seconds)
	if traced {
		return rep, traceFleet(rep, in, seed, churnN, scrapeN)
	}
	st := &setupTimer{start: func() (setupCost, error) {
		r, c, err := startFleet(in, false, rep)
		if err == nil {
			r.close()
		}
		return c, err
	}}
	if err := st.warm(); err != nil {
		return nil, err
	}
	r, _, err := startFleet(in, false, rep)
	if err != nil {
		return nil, err
	}
	defer r.close()
	heap := newHeapSampler()
	if _, err := r.churn(rep, fleetWarmTicks, heap, nil); err != nil {
		return nil, err
	}
	churn, err := r.churn(rep, churnN, heap, st)
	if err != nil {
		return nil, err
	}
	liveMB := liveHeapMB()
	firstScrapeTick := r.tick + 1
	scrape, err := r.streamPhase(rep, scrapeN, seed, heap, func(start, end time.Time, conns int, do func(int, int) error) []reqSample {
		return openLoop(start, end, fleetReadRate, conns, do)
	})
	if err != nil {
		return nil, err
	}
	// The saturate phase keeps one sample per read at up to ~10k reads/s;
	// that bookkeeping, not the daemon, would set the heap peak.
	sat, err := r.streamPhase(rep, satN, seed, nil, func(_, end time.Time, conns int, do func(int, int) error) []reqSample {
		return closedLoop(end, conns, do)
	})
	if err != nil {
		return nil, err
	}
	checkViolations(rep, r.d.Registry())
	r.checkScenario(rep, true)
	checks := 0
	for _, rd := range append(scrape.readers, sat.readers...) {
		checks += rd.checks
	}
	if checks == 0 {
		rep.fail(fmt.Errorf("no stream read composed base + delta into a tick it then read in full"))
	}

	e2e := &rep.e2e
	st.report(rep, "the churn ticks", churn.ref.cpu)
	rep.addSteady(e2e, "tick_p50_ms", churn.step, dist.median)
	rep.addTail(e2e, "tick_p99_ms", churn.step)
	rep.addSteady(e2e, "tick_cpu_ms", churn.cpu, dist.mean)
	rep.addNorm(e2e, "tick_cpu_norm_ms", churn.tcpu, churn.ref.cpu)
	rep.add(e2e, "ticks_per_s", "1/s", float64(len(churn.step))/sum(churn.step), "churn closed loop, Step time")
	rep.addTail(e2e, "sample_to_bytes_p99_ms", sampleToBytes(scrape.starts, firstScrapeTick, scrape.readers))
	scrapeLat := latencies(scrape.samples, reqSample.latency)
	rep.addSteady(e2e, "scrape_p50_ms", scrapeLat, dist.median)
	rep.addTail(e2e, "scrape_p99_ms", scrapeLat)
	rep.add(e2e, "heap_peak_mb", "MB", float64(heap.peak)/(1<<20), "peak HeapInuse, sampled per tick")
	rep.add(e2e, "heap_live_mb", "MB", liveMB, "live heap after a forced GC at the end of the churn ticks")
	rep.addSteady(e2e, "tick_p50_scraped_ms", scrape.ticks.step, dist.median)
	rep.addNorm(e2e, "tick_cpu_scraped_norm_ms", scrape.ticks.tcpu, scrape.ticks.ref.cpu)
	rep.addTail(&rep.extra, "tick_p99_scraped_ms", scrape.ticks.step)
	rep.add(&rep.extra, "scrape_max_rps", "1/s", float64(okCount(sat.samples))/sat.dur.Seconds(),
		fmt.Sprintf("closed loop on %d connections", runtime.NumCPU()))
	return rep, nil
}

// latencies returns f of every successful sample, in seconds, in request
// (and so time) order.
func latencies(samples []reqSample, f func(reqSample) time.Duration) []float64 {
	xs := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.err == nil {
			xs = append(xs, f(s).Seconds())
		}
	}
	return xs
}

func okCount(samples []reqSample) int {
	n := 0
	for _, s := range samples {
		if s.err == nil {
			n++
		}
	}
	return n
}

// fleetLayerNames are the per-layer metrics only the fleet workload
// exercises.
var fleetLayerNames = [][2]string{
	{"scenario.apply_ms", "ms"}, {"fleet.step_ms", "ms"},
	{"fleet.hosts_estimated_per_tick", "count"}, {"fleet.lifecycle_events_per_tick", "count"},
	{"fleet.migrations_active_mean", "count"}, {"fleetd.publish_ms", "ms"},
	{"fleetd.handler_us_p50", "us"}, {"fleetd.handler_us_p99", "us"}, {"fleetd.transport_us_p50", "us"},
	{"fleetd.full_bytes", "bytes"}, {"fleetd.delta_bytes", "bytes"}, {"fleetd.delta_ratio", "ratio"},
	{"fleetd.resyncs", "count"}, {"loadgen.late_p99_ms", "ms"},
}

// hostLayerNames are the per-layer metrics only a single host exercises:
// fleet hosts build their own meters and generators, and fleet ticks
// carry no stage spans.
var hostLayerNames = [][2]string{
	{"hypervisor.snapshot_ms", "ms"}, {"workload.state_calls_per_tick", "count"},
	{"meter.read_ms", "ms"}, {"meter.reads_per_tick", "count"}, {"vhc.worth_ms", "ms"},
	{"shapley.solve_ms", "ms"}, {"core.normalize_ms", "ms"}, {"powerd.publish_ms", "ms"},
	{"powerd.snapshot_bytes", "bytes"}, {"powerd.get_ms", "ms"}, {"trace.stage_gap_pct", "%"},
}

// traceFleet is the traced run: an untraced churn for the overhead
// baseline, then the churn and scrape phases with the twin fleet and the
// handler middleware. The saturate phase has no per-layer metric.
func traceFleet(rep *report, in fleetInput, seed int64, churnN, scrapeN int) error {
	plain, _, err := startFleet(in, false, rep)
	if err != nil {
		return err
	}
	heap := newHeapSampler()
	_, err = plain.churn(rep, fleetWarmTicks, heap, nil)
	var base *tickSamples
	if err == nil {
		base, err = plain.churn(rep, churnN/2, heap, nil)
	}
	checkViolations(rep, plain.d.Registry())
	plain.close()
	if err != nil {
		return err
	}

	r, _, err := startFleet(in, true, rep)
	if err != nil {
		return err
	}
	defer r.close()
	if _, err := r.churn(rep, fleetWarmTicks, heap, nil); err != nil {
		return err
	}
	r.tr = fleetTrace{tiers: map[string]int{}}
	rt0 := readRuntime()
	churn, err := r.churn(rep, churnN, heap, nil)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	r.timer.record(true)
	scrape, err := r.streamPhase(rep, scrapeN, seed, heap, func(start, end time.Time, conns int, do func(int, int) error) []reqSample {
		return openLoop(start, end, fleetReadRate, conns, do)
	})
	if err != nil {
		return err
	}
	handler := newDist(r.timer.record(false))
	checkViolations(rep, r.d.Registry())
	r.checkScenario(rep, false)

	tr := &r.tr
	ticks := float64(tr.ticks)
	apply, fstep, served := newDist(tr.apply).mean(), newDist(tr.step).mean(), newDist(tr.served).mean()
	var fullB, deltaB []float64
	resyncs := 0
	for _, rd := range scrape.readers {
		fullB = append(fullB, rd.full...)
		deltaB = append(deltaB, rd.delta...)
		resyncs += rd.resyncs
	}
	full, delta := newDist(fullB).mean(), newDist(deltaB).mean()
	ratio := 0.0
	if full > 0 {
		ratio = delta / full
	}
	client := newDist(latencies(scrape.samples, reqSample.service))
	late, _, _ := newDist(latencies(scrape.samples, reqSample.late)).tail()
	hostTiers := func(t string) float64 { return float64(tr.tiers[t]) / float64(tr.hostTicks) }
	layer := &rep.layer
	rep.add(layer, "scenario.apply_ms", "ms", 1e3*apply, "twin Engine.Apply")
	rep.add(layer, "fleet.step_ms", "ms", 1e3*fstep, "twin Fleet.Step")
	rep.add(layer, "fleet.hosts_estimated_per_tick", "count", tr.hostsEst/ticks, "Tick.Hosts not quarantined")
	rep.add(layer, "fleet.lifecycle_events_per_tick", "count", tr.events/ticks, "Tick.Events")
	rep.add(layer, "fleet.migrations_active_mean", "count", tr.migs/ticks, "Tick.Migrations")
	rep.add(layer, "fleetd.publish_ms", "ms", 1e3*(served-apply-fstep), "Server.Step − apply − fleet step")
	rep.add(layer, "fleetd.handler_us_p50", "us", handler.median(), "timing middleware, scrape phase")
	hTail, _, _ := handler.tail()
	rep.add(layer, "fleetd.handler_us_p99", "us", hTail, fmt.Sprintf("n=%d", handler.n()))
	rep.add(layer, "fleetd.transport_us_p50", "us", 1e6*client.median()-handler.median(), "client p50 from send − handler p50")
	rep.add(layer, "fleetd.full_bytes", "bytes", full, "")
	rep.add(layer, "fleetd.delta_bytes", "bytes", delta, "")
	rep.add(layer, "fleetd.delta_ratio", "ratio", ratio, "delta / full bytes")
	rep.add(layer, "fleetd.resyncs", "count", float64(resyncs), "full:true answers to ?since=")
	rep.add(layer, "loadgen.late_p99_ms", "ms", 1e3*late, "send − due, open-loop stream")
	addTableLayers(rep, tr.counters, ticks)
	rep.add(layer, "shapley.tier_mask_frac", "ratio", hostTiers(core.TierMaskExact), "per host-tick")
	rep.add(layer, "shapley.tier_sym_frac", "ratio", hostTiers(core.TierSymExact), "per host-tick")
	rep.add(layer, "shapley.tier_mc_frac", "ratio", hostTiers(core.TierMonteCarlo), "per host-tick")
	rep.add(layer, "core.audit_checks_per_tick", "count", tr.counters.auditCheck/ticks, "registry, all hosts")
	rep.add(layer, "core.audit_deep_per_tick", "count", tr.counters.auditDeep/ticks, "registry, all hosts")
	for _, m := range hostLayerNames {
		rep.add(layer, m[0], m[1], 0, "not exercised on the fleet")
	}
	addRuntimeLayers(rep, rt0, rt1, float64(len(churn.step)))
	plainP50 := newDist(base.step).median()
	traced := newDist(churn.step[:len(base.step)]).median()
	rep.add(layer, "trace.overhead_pct", "%", 100*(traced-plainP50)/plainP50,
		fmt.Sprintf("traced vs untraced tick p50 over the same %d churn ticks", len(base.step)))
	sortLayers(rep)
	return nil
}
