package main

import (
	"fmt"
	"math"
	"math/bits"
	"syscall"
	"time"
	"unsafe"
)

// The reference probe. On a shared host, wall time measures the
// neighbours as much as the program: a tick is time-sliced against other
// threads and loses its vCPU to hypervisor steal. The CPU time of the
// thread that runs a serial tick leaves both out (the kernel does not
// count steal as a task's run time), but the work a CPU-second buys still
// moves by tens of percent from minute to minute, with a busy sibling
// hyperthread or neighbours' cache and memory traffic, and no statistic
// over one run's samples takes out a slowdown that covers the whole run.
// So the timed ticks are interleaved, on the same goroutine, with a fixed
// piece of reference work that lives in the benchmark and that no change
// to the program can move: the exact Shapley values of two players of a
// 16-player game, from a full worth table. Like a mask-path tick, it
// rewrites and reads 2^16-entry tables (1 MB, which fits the per-core L2
// of the host it was written on), so neighbours' cache traffic slows it
// as it slows a tick. The *_norm_ms metrics are a tick's thread CPU time
// scaled by refNominal over the probe's thread CPU time measured beside
// it: what the tick would cost on a host where the probe costs
// refNominal. The raw times are printed next to them.

const (
	refPlayers = 16
	// refSolved is how many players' values the probe computes: each is
	// one pass over the worth table.
	refSolved = 2
)

// refNominal is the probe's median CPU time on the host the benchmark was
// written on (Intel Xeon, 2 vCPUs, Go 1.24, quiet); it only sets the
// scale of the *_norm_ms figures.
const refNominal = 680 * time.Microsecond

// refWant is the probe's result; a different one means the probe was
// miscompiled or the machine miscomputes, and fails the run.
var refWant = newRefProbe().solve()

// refFeature is player i's contribution to a coalition's load.
func refFeature(i int) float64 { return float64(i%5+1) * 0.75 }

// solve tabulates the load and the worth of every coalition of the
// reference game and returns Σ (i+1)·φ_i over the first refSolved
// players.
func (p *refProbe) solve() float64 {
	const n = refPlayers
	p.load[0], p.worth[0] = 0, 0
	for m := 1; m < len(p.load); m++ {
		s := p.load[m&(m-1)] + refFeature(bits.TrailingZeros(uint(m)))
		p.load[m] = s
		p.worth[m] = s * s / (4 + s)
	}
	// w[k] = k!(n-1-k)!/n!, the weight of a coalition of k others.
	var w [n]float64
	w[0] = 1.0 / n
	for k := 1; k < n; k++ {
		w[k] = w[k-1] * float64(k) / float64(n-k)
	}
	var out float64
	for i := 0; i < refSolved; i++ {
		bit := 1 << i
		var phi float64
		for m := range p.worth {
			if m&bit == 0 {
				phi += w[bits.OnesCount(uint(m))] * (p.worth[m|bit] - p.worth[m])
			}
		}
		out += float64(i+1) * phi
	}
	return out
}

// threadCPU is the calling thread's CPU time so far. Its callers lock
// their goroutine to its thread (runtime.LockOSThread) around what they
// time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refProbe times the reference work and keeps the samples.
type refProbe struct {
	load, worth []float64 // by coalition mask, rewritten by every probe
	cpu         []float64 // thread CPU seconds, one per probe, in time order
}

func newRefProbe() *refProbe {
	return &refProbe{load: make([]float64, 1<<refPlayers), worth: make([]float64, 1<<refPlayers)}
}

// run probes once, on the calling goroutine's locked thread; a wrong
// result is an error.
func (p *refProbe) run() error {
	cpu0 := threadCPU()
	got := p.solve()
	p.cpu = append(p.cpu, (threadCPU() - cpu0).Seconds())
	if math.Float64bits(got) != math.Float64bits(refWant) {
		return fmt.Errorf("reference probe computed %v, want %v", got, refWant)
	}
	return nil
}
