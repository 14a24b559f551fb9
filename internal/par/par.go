// Package par provides deterministic data-parallel loops for the
// simulator.
//
// The simulator advances all n processors in lock step; within a step
// the per-processor work (sim's generate/consume sweep, the sparse
// engine's catch-up sync, the load folds) is independent, so it is
// sharded over a worker pool. Shard boundaries depend only on
// (n, workers) and all randomness is drawn from per-processor streams,
// so results are identical for any worker count — parallelism is
// purely an accelerator.
package par

import (
	"runtime"
	"sync"
)

// DefaultWorkers is the worker count used when a caller passes
// workers <= 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// minShardLen is the smallest shard worth a cross-goroutine dispatch:
// below it the channel handoff costs more than the sharded loop body,
// so the shard count is reduced (down to a single inline shard) for
// small n. Shard counts remain a pure function of (n, workers).
const minShardLen = 64

// shardTask is one dispatched shard. Tasks travel the pool channel by
// value and the WaitGroups are pooled, so dispatching allocates
// nothing — the per-step machine shards stay zero-alloc as long as the
// caller's f does not itself allocate (reuse f across calls; a fresh
// closure literal per call is one small allocation at the call site).
type shardTask struct {
	fn            func(shard, lo, hi int)
	wg            *sync.WaitGroup
	shard, lo, hi int
}

// pool is a lazily started set of long-lived workers. Spawning a
// goroutine per shard per call costs more than the sharded work at
// small n (the simulator calls Ranges several times per step), so
// shards are dispatched to persistent workers over a buffered channel:
// the dispatching goroutine enqueues every shard without a
// rendezvous-per-shard handoff and then works on shard 0 itself.
var pool struct {
	once  sync.Once
	tasks chan shardTask
}

var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

func poolInit() {
	buf := 8 * DefaultWorkers()
	if buf < 32 {
		buf = 32
	}
	pool.tasks = make(chan shardTask, buf)
	for i := 0; i < DefaultWorkers(); i++ {
		go func() {
			for t := range pool.tasks {
				t.fn(t.shard, t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// shardCount is the shared (n, workers) -> shard-count function behind
// Ranges and NumShards.
func shardCount(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if maxW := n / minShardLen; workers > maxW {
		if maxW < 1 {
			maxW = 1
		}
		workers = maxW
	}
	return workers
}

// Ranges invokes f(shard, lo, hi) for each of NumShards(n, workers)
// contiguous shards partitioning [0, n), concurrently, and waits for
// completion. The shard boundaries are a pure function of
// (n, workers). If workers <= 0, DefaultWorkers() is used; small n
// reduces the shard count (see minShardLen) so no shard is trivially
// small or empty.
//
// f must not itself call Ranges or RangesReduce: shards run on a
// fixed pool of workers, so nesting could occupy every worker with
// parents waiting on children.
func Ranges(n, workers int, f func(shard, lo, hi int)) {
	shards := shardCount(n, workers)
	if shards == 0 {
		return
	}
	if shards == 1 {
		f(0, 0, n)
		return
	}
	pool.once.Do(poolInit)
	wg := wgPool.Get().(*sync.WaitGroup)
	wg.Add(shards - 1)
	for s := 1; s < shards; s++ {
		pool.tasks <- shardTask{fn: f, wg: wg, shard: s, lo: s * n / shards, hi: (s + 1) * n / shards}
	}
	// The caller runs shard 0 itself: one fewer handoff, and the
	// calling goroutine is never idle.
	f(0, 0, n/shards)
	wg.Wait()
	wgPool.Put(wg)
}

// NumShards returns the number of shards Ranges will use for (n,
// workers); callers sizing per-shard accumulators must use this.
func NumShards(n, workers int) int { return shardCount(n, workers) }

// RangesReduce runs f over the same shards as Ranges and combines the
// per-shard results with merge, folding left-to-right in shard order.
// The merge order is therefore deterministic for a given (n, workers);
// when merge is commutative and associative (sums, maxima) the result
// is identical for every worker count. A small per-call slice holds
// the shard results; callers that need a strictly zero-allocation
// reduction should keep their own per-shard scratch and use Ranges.
func RangesReduce[T any](n, workers int, f func(shard, lo, hi int) T, merge func(a, b T) T) T {
	shards := shardCount(n, workers)
	if shards == 0 {
		var zero T
		return zero
	}
	if shards == 1 {
		return f(0, 0, n)
	}
	results := make([]T, shards)
	Ranges(n, workers, func(s, lo, hi int) {
		results[s] = f(s, lo, hi)
	})
	acc := results[0]
	for _, v := range results[1:] {
		acc = merge(acc, v)
	}
	return acc
}
