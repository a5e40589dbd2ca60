package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A server slower than the schedule: every request takes 5 ms while one
// connection is asked for one every 1 ms. The open loop must still send
// every request that falls due inside the window, each exactly once;
// time each from its due time; and report the generator falling behind.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const (
		rate   = 1000.0
		window = 40 * time.Millisecond
		work   = 5 * time.Millisecond
	)
	start := time.Now().Add(2 * time.Millisecond)
	var calls atomic.Int64
	samples := openLoop(start, start.Add(window), rate, 1, func(_, _ int) error {
		calls.Add(1)
		time.Sleep(work)
		return nil
	})
	if len(samples) != 40 || calls.Load() != 40 {
		t.Fatalf("sent %d requests (%d calls), want the 40 due in the window", len(samples), calls.Load())
	}
	for i, s := range samples {
		if s.index != i {
			t.Fatalf("sample %d has index %d", i, s.index)
		}
		if want := start.Add(time.Duration(i) * time.Millisecond); !s.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, s.due.Sub(start), want.Sub(start))
		}
		if s.sent.Before(s.due) {
			t.Fatalf("request %d sent before it was due", i)
		}
		if s.latency() != s.done.Sub(s.due) || s.latency() < s.late()+work {
			t.Fatalf("request %d: latency %v must run from due and cover lateness %v + work", i, s.latency(), s.late())
		}
	}
	// Request k cannot be sent before k earlier 5 ms requests finished.
	last := samples[len(samples)-1]
	if minLate := 39*work - 39*time.Millisecond; last.late() < minLate {
		t.Fatalf("last request only %v late, want at least %v", last.late(), minLate)
	}
}

func TestOpenLoopDealsRoundRobin(t *testing.T) {
	start := time.Now()
	var perConn [3]atomic.Int64
	samples := openLoop(start, start.Add(30*time.Millisecond), 1000, 3, func(c, i int) error {
		if i%3 != c {
			t.Errorf("request %d went to connection %d", i, c)
		}
		perConn[c].Add(1)
		return nil
	})
	if len(samples) != 30 {
		t.Fatalf("sent %d requests, want 30", len(samples))
	}
	for c := range perConn {
		if perConn[c].Load() != 10 {
			t.Errorf("connection %d sent %d, want 10", c, perConn[c].Load())
		}
	}
}

func TestClosedLoopHasNoSchedule(t *testing.T) {
	samples := closedLoop(time.Now().Add(10*time.Millisecond), 2, func(_, _ int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if len(samples) == 0 {
		t.Fatal("closed loop sent nothing")
	}
	for _, s := range samples {
		if s.late() != 0 || !s.due.Equal(s.sent) {
			t.Fatalf("closed-loop request %d has lateness %v", s.index, s.late())
		}
	}
}
