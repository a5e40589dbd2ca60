package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Note is printed beside the value on the text report: the percentile
	// a tail was read at, its sample count, where a figure comes from.
	Note string
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	failures          []string
	// e2e are the end-to-end metrics every workload reports (the JSON
	// result of an untraced run); extra are printed only, because they
	// exist on some workloads alone; layer are the traced run's metrics.
	e2e, extra, layer []metric
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

// check counts one correctness check and records it when it fails.
func (r *report) check(err error) {
	if err != nil {
		r.fail(err)
	}
}

func (r *report) add(list *[]metric, name, unit string, v float64, note string) {
	*list = append(*list, metric{Name: name, Unit: unit, Value: v, Note: note})
}

// addTail adds the tail, in milliseconds, of samples in seconds.
func (r *report) addTail(list *[]metric, name string, xs []float64) {
	d := newDist(xs)
	tail, q, ok := d.tail()
	note := fmt.Sprintf("p%.1f of n=%d", 100*q, d.n())
	if !ok {
		note = fmt.Sprintf("max of n=%d (too few samples for a tail)", d.n())
	}
	r.add(list, name, "ms", 1e3*tail, note)
}

// addSteady adds the steady median (or mean), in milliseconds, of samples
// in seconds taken in time order, with the all-samples figure beside it.
func (r *report) addSteady(list *[]metric, name string, xs []float64, stat func(dist) float64) {
	r.add(list, name, "ms", 1e3*steady(xs, stat),
		fmt.Sprintf("steady: lower quartile of block figures; all %d samples: %.4g", len(xs), 1e3*stat(newDist(xs))))
}

// addNorm adds the mean of xs, thread CPU seconds in time order, scaled
// to the reference speed by the probe samples ref interleaved with them,
// in milliseconds.
func (r *report) addNorm(list *[]metric, name string, xs, ref []float64) {
	r.add(list, name, "ms", 1e3*steadyNorm(xs, ref),
		fmt.Sprintf("thread CPU at the reference speed: %d ticks, mean %.4g ms raw; %d probes, median %.4g ms",
			len(xs), 1e3*newDist(xs).mean(), len(ref), 1e3*newDist(ref).median()))
}

// endpoint is a daemon handler served on a loopback listener.
type endpoint struct {
	base string
	srv  *http.Server
}

func serve(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
	return &endpoint{base: "http://" + ln.Addr().String(), srv: srv}, nil
}

func (e *endpoint) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // the benchmark is done with it either way
}

// newConn returns a client that keeps exactly one connection alive.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func closeConn(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// get fetches url and returns the body; a non-2xx answer is an error.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A run sets its workload up from scratch setupWarm times, untimed (the
// process's heap growth and cold caches made these up to twice as slow),
// then setupReps times spread evenly over its timed ticks, on the tick
// loop's locked thread; setup_s is the median of their thread CPU times,
// scaled to the reference speed by the probes of the same run (see
// probe.go). Spread over the run, like the tick blocks, a few seconds of
// neighbour load cannot set the figure.
const (
	setupWarm = 5
	setupReps = 20
)

// setupCost is what one set-up took: wall time, and the CPU time of the
// thread that ran it.
type setupCost struct{ wall, tcpu time.Duration }

// since returns the cost of a set-up that started at start, on a thread
// whose CPU time then read cpu0.
func since(start time.Time, cpu0 time.Duration) setupCost {
	return setupCost{wall: time.Since(start), tcpu: threadCPU() - cpu0}
}

// setupTimer times set-ups of a workload, off the tick clock.
type setupTimer struct {
	// start sets one instance up, closes it and returns what the set-up
	// cost.
	start     func() (setupCost, error)
	wall, cpu []float64 // seconds
}

// warm runs the untimed set-ups.
func (s *setupTimer) warm() error {
	for i := 0; i < setupWarm; i++ {
		if _, err := s.start(); err != nil {
			return err
		}
	}
	return nil
}

// sample times one set-up. Forced GCs before and after it keep its
// garbage out of the timed ticks, and its predecessor's out of it.
func (s *setupTimer) sample() error {
	runtime.GC()
	c, err := s.start()
	runtime.GC()
	if err != nil {
		return err
	}
	s.wall = append(s.wall, c.wall.Seconds())
	s.cpu = append(s.cpu, c.tcpu.Seconds())
	return nil
}

// report adds setup_s, the median set-up thread CPU time over the median
// of ref, the probes of the run, times refNominal; and setup_wall_s, the
// median wall time of the same set-ups.
func (s *setupTimer) report(rep *report, over string, ref []float64) {
	cpu, probe := newDist(s.cpu).median(), newDist(ref).median()
	rep.add(&rep.e2e, "setup_s", "s", refNominal.Seconds()*cpu/probe,
		fmt.Sprintf("thread CPU at the reference speed: median of %d set-ups spread over %s, %.4g s raw; probe median %.4g ms",
			len(s.cpu), over, cpu, 1e3*probe))
	rep.add(&rep.e2e, "setup_wall_s", "s", newDist(s.wall).median(), "median wall time of the same set-ups")
}

// setupDue reports whether timed tick i (counted from 1) is followed by a
// set-up: setupReps of them are spaced evenly over the first n ticks.
func setupDue(i, n int) bool {
	step := max(1, n/setupReps)
	return i%step == 0 && i/step <= setupReps
}
