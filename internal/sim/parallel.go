// Deterministic parallel run execution: the engine is single-threaded by
// design (per-run determinism comes from a sequential send path), so the
// unit of parallelism is the *run* — independent replications, each on
// its own Engine, fanned across workers. Because every run derives all of
// its randomness from its own seed and touches no shared state, the
// fan-out is deterministic by construction: results land in slots indexed
// by run, and the reduction order is the caller's, not the scheduler's.

package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachRun executes fn(run) for every run in [0, runs) across up to
// `workers` goroutines (workers <= 0 means GOMAXPROCS; the count is
// clamped to runs). It is the simulator's only parallelism: a run starts
// no goroutine, so ForEachRun parallelizes whole independent runs, each
// of which must build (or Reset) its own Engine from its own seed.
//
// Determinism contract: fn must not share mutable state across runs —
// each run's engine, RNG streams and result slot belong to that run
// alone. Under that contract the outcome is bit-identical for any worker
// count, including 1: write results to out[run] inside fn and reduce them
// in run order after ForEachRun returns (float accumulation is not
// commutative in the bits, so the reduction must not happen inside fn).
func ForEachRun(runs, workers int, fn func(run int)) {
	if runs <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	if workers <= 1 {
		for r := 0; r < runs; r++ {
			fn(r)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= runs {
					return
				}
				fn(r)
			}
		}()
	}
	wg.Wait()
}
