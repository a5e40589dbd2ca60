package main

import (
	"sort"
	"sync"
	"time"
)

// reqSample is one generated request: when it was due, when the
// generator actually sent it, and when its response was complete.
type reqSample struct {
	index           int
	due, sent, done time.Time
	err             error
}

// latency is the open-loop latency: from the due time, so a stall
// charges every request queued behind it, not only the one that hit it.
func (s reqSample) latency() time.Duration { return s.done.Sub(s.due) }

// service is the read as its client saw it: from send to the complete
// response, without the generator's lateness.
func (s reqSample) service() time.Duration { return s.done.Sub(s.sent) }

// late is how far behind schedule the generator sent the request.
func (s reqSample) late() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends requests on a fixed schedule, independent of how fast
// the daemon answers: request i is due at start + i/rate. Requests are
// dealt round-robin to conns workers (one keep-alive connection each);
// a worker still busy when its next request falls due sends it late, and
// that lateness is recorded. Requests due at or after end are not sent.
// do performs request index on connection conn. openLoop returns once
// every worker has finished, with the samples in index order.
func openLoop(start, end time.Time, rate float64, conns int, do func(conn, index int) error) []reqSample {
	period := time.Duration(float64(time.Second) / rate)
	perConn := make([][]reqSample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += conns {
				due := start.Add(time.Duration(i) * period)
				if !due.Before(end) {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				s := reqSample{index: i, due: due, sent: time.Now()}
				s.err = do(c, i)
				s.done = time.Now()
				perConn[c] = append(perConn[c], s)
			}
		}(c)
	}
	wg.Wait()
	return merge(perConn)
}

// closedLoop runs conns workers, each sending its next request as soon
// as the previous one completes, until end. A sample's due time is its
// send time: a closed loop has no schedule to fall behind.
func closedLoop(end time.Time, conns int, do func(conn, index int) error) []reqSample {
	perConn := make([][]reqSample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(end); i += conns {
				now := time.Now()
				s := reqSample{index: i, due: now, sent: now}
				s.err = do(c, i)
				s.done = time.Now()
				perConn[c] = append(perConn[c], s)
			}
		}(c)
	}
	wg.Wait()
	return merge(perConn)
}

// merge joins the connections' samples in request order.
func merge(perConn [][]reqSample) []reqSample {
	var out []reqSample
	for _, s := range perConn {
		out = append(out, s...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}
