package shapley

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vmpower/internal/vm"
)

// Parallelism semantics, shared by every parallel entry point in this
// package (ExactParallel, TabulateParallel, ExactFromTableParallel and
// MCOptions.Parallelism):
//
//	p <= 0 — use runtime.GOMAXPROCS(0) workers ("all cores")
//	p == 1 — evaluate on the calling goroutine, no workers spawned
//	p >= 2 — use exactly p workers
//
// Results are bit-for-bit identical for any parallelism value: the work
// is decomposed into shards whose layout depends only on the game (never
// on the worker count or GOMAXPROCS), each shard is reduced in a fixed
// internal order, and shard partials are merged in shard-index order.
// Workers only race for *which* shard to pull next, never for how a
// shard is computed or merged.
//
// Thread-safety contract: the parallel entry points call the WorthFunc
// concurrently from multiple goroutines. A WorthFunc passed to them must
// be safe for concurrent calls and pure (same coalition → same value for
// the duration of the call); the worth functions built by core over a
// trained vhc.Approximator satisfy both (the approximator serialises
// access with an RWMutex and is read-only during estimation). The serial
// entry points (Exact, Tabulate, ExactFromTable, MonteCarlo with
// Parallelism == 1) never call the WorthFunc from more than one
// goroutine.

// resolveParallelism maps the user-facing knob to a worker count.
func resolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// exactMaxShards bounds the shard count of the mask-space decomposition.
// 256 shards keep the per-shard partial vectors tiny while leaving
// plenty of shards per worker for load balancing at any realistic core
// count.
const exactMaxShards = 256

// exactShards returns the shard count for an n-player mask space. It
// depends only on n so the decomposition — and therefore the floating-
// point merge order — is identical at every parallelism.
func exactShards(n int) int {
	total := 1 << uint(n)
	if total < exactMaxShards {
		return total
	}
	return exactMaxShards
}

// runSharded executes fn(shard) for every shard in [0, shards) on up to
// parallelism workers. Shard assignment is dynamic (an atomic counter),
// which is safe because every shard's output slot is private to it.
func runSharded(shards, parallelism int, fn func(shard int)) {
	workers := resolveParallelism(parallelism)
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(s)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s := int(atomic.AddInt64(&next, 1)) - 1
				if s >= shards {
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
}

// TabulateParallel evaluates worth over all 2^n coalitions into a dense
// table using up to parallelism workers. Each table entry is written by
// exactly one shard, so the result is identical to Tabulate for a pure
// worth function. worth must be safe for concurrent calls when
// parallelism != 1 (see the package's thread-safety contract above).
func TabulateParallel(n int, worth WorthFunc, parallelism int) ([]float64, error) {
	if n < 1 || n > ExactMaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	table := make([]float64, 1<<uint(n))
	if err := TabulateParallelInto(table, n, worth, parallelism); err != nil {
		return nil, err
	}
	return table, nil
}

// TabulateParallelInto is TabulateParallel into a caller-owned table of
// length exactly 2^n.
func TabulateParallelInto(table []float64, n int, worth WorthFunc, parallelism int) error {
	if n < 1 || n > ExactMaxPlayers {
		return fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if worth == nil {
		return ErrNilWorth
	}
	if len(table) != 1<<uint(n) {
		return fmt.Errorf("shapley: table has %d entries, want 2^%d", len(table), n)
	}
	m := metrics()
	start := m.startTimer()
	shards := exactShards(n)
	per := len(table) / shards
	if resolveParallelism(parallelism) > 1 && shards > 1 {
		runSharded(shards, parallelism, func(shard int) {
			lo := shard * per
			hi := lo + per
			for s := lo; s < hi; s++ {
				table[s] = worth(vm.Coalition(s))
			}
		})
	} else {
		// Same writes in the same per-entry order, without the closure
		// allocation the sharded dispatch would cost a serial caller.
		for s := range table {
			table[s] = worth(vm.Coalition(s))
		}
	}
	m.observeTabulate(start)
	return nil
}

// ExactFromTableParallel computes the exact Shapley value from a
// pre-tabulated worth table with up to parallelism workers. The mask
// space is split into exactShards(n) contiguous shards; each shard
// accumulates a private phi partial in ascending mask order and the
// partials are merged in shard order, so the output is bit-for-bit
// identical at every parallelism (it can differ from the serial
// ExactFromTable in the last ulps, since the summation is associated
// differently).
func ExactFromTableParallel(n int, table []float64, parallelism int) ([]float64, error) {
	if n < 1 || n > ExactMaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	phi := make([]float64, n)
	scratch := make([]float64, ExactScratch(n))
	if err := ExactFromTableParallelInto(phi, scratch, n, table, parallelism); err != nil {
		return nil, err
	}
	return phi, nil
}

// ExactScratch returns the scratch length (shard partials) that
// ExactFromTableParallelInto needs for an n-player game.
func ExactScratch(n int) int {
	if n < 1 {
		return 0
	}
	return exactShards(n) * n
}

// ExactFromTableParallelInto is ExactFromTableParallel into caller-owned
// buffers: phi of length exactly n and scratch of at least ExactScratch(n)
// (both zeroed here, so they can be reused across solves as-is). The
// shard layout and merge order are those of ExactFromTableParallel, so
// the output is bit-for-bit identical to it at every parallelism.
func ExactFromTableParallelInto(phi, scratch []float64, n int, table []float64, parallelism int) error {
	if n < 1 || n > ExactMaxPlayers {
		return fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if len(table) != 1<<uint(n) {
		return fmt.Errorf("shapley: table has %d entries, want 2^%d", len(table), n)
	}
	if len(phi) != n {
		return fmt.Errorf("shapley: phi has %d entries, want %d", len(phi), n)
	}
	if len(scratch) < ExactScratch(n) {
		return fmt.Errorf("shapley: scratch has %d entries, want >= %d", len(scratch), ExactScratch(n))
	}
	w, err := weightsShared(n)
	if err != nil {
		return err
	}
	m := metrics()
	start := m.startTimer()
	shards := exactShards(n)
	per := len(table) / shards
	partials := scratch[:shards*n]
	for i := range partials {
		partials[i] = 0
	}
	if resolveParallelism(parallelism) > 1 && shards > 1 {
		runSharded(shards, parallelism, func(shard int) {
			accumulateShard(partials, w, table, n, shard, per)
		})
	} else {
		// Identical shard decomposition executed on the calling
		// goroutine, so serial and parallel results share every bit.
		for shard := 0; shard < shards; shard++ {
			accumulateShard(partials, w, table, n, shard, per)
		}
	}
	for i := range phi {
		phi[i] = 0
	}
	for shard := 0; shard < shards; shard++ {
		part := partials[shard*n : (shard+1)*n]
		for i := 0; i < n; i++ {
			phi[i] += part[i]
		}
	}
	m.observeAccumulate(start)
	return nil
}

// accumulateShard folds one contiguous mask shard's weighted marginal
// contributions into its private partial vector, in ascending mask order.
func accumulateShard(partials, w, table []float64, n, shard, per int) {
	phi := partials[shard*n : (shard+1)*n]
	lo := vm.Coalition(shard * per)
	hi := lo + vm.Coalition(per)
	for s := lo; s < hi; s++ {
		vs := table[s]
		size := s.Size()
		for i := 0; i < n; i++ {
			id := vm.ID(i)
			if s.Contains(id) {
				continue
			}
			phi[i] += w[size] * (table[s.With(id)] - vs)
		}
	}
}

// ExactParallel computes the exact Shapley value (Eq. 4) with up to
// parallelism workers: a parallel tabulation of the 2^n worths followed
// by a parallel sharded accumulation. worth must be safe for concurrent
// calls when parallelism != 1. For a fixed game the result is identical
// at every parallelism value.
func ExactParallel(n int, worth WorthFunc, parallelism int) ([]float64, error) {
	table, err := TabulateParallel(n, worth, parallelism)
	if err != nil {
		return nil, err
	}
	return ExactFromTableParallel(n, table, parallelism)
}
