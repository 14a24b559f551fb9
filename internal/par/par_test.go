package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRangesCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, w := range []int{0, 1, 2, 3, 8, 2000} {
			visited := make([]int32, n)
			Ranges(n, w, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visited[i], 1)
				}
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, v)
				}
			}
		}
	}
}

func TestRangesShardIDs(t *testing.T) {
	n, w := 4*minShardLen, 4
	shards := NumShards(n, w)
	if shards != 4 {
		t.Fatalf("NumShards = %d", shards)
	}
	seen := make([]int32, shards)
	Ranges(n, w, func(s, lo, hi int) {
		atomic.AddInt32(&seen[s], 1)
		if lo >= hi {
			t.Errorf("empty shard %d [%d,%d)", s, lo, hi)
		}
	})
	for s, c := range seen {
		if c != 1 {
			t.Fatalf("shard %d ran %d times", s, c)
		}
	}
}

func TestNumShardsSmallN(t *testing.T) {
	// Below the shard floor everything collapses to one inline shard:
	// a cross-goroutine handoff is never worth a 2-element loop.
	if got := NumShards(2, 16); got != 1 {
		t.Fatalf("NumShards(2,16) = %d", got)
	}
	if got := NumShards(0, 4); got != 0 {
		t.Fatalf("NumShards(0,4) = %d", got)
	}
	if got := NumShards(minShardLen, 8); got != 1 {
		t.Fatalf("NumShards(%d,8) = %d", minShardLen, got)
	}
	if got := NumShards(2*minShardLen, 8); got != 2 {
		t.Fatalf("NumShards(%d,8) = %d", 2*minShardLen, got)
	}
	// The floor caps, it never raises: a single worker stays inline.
	if got := NumShards(1_000_000, 1); got != 1 {
		t.Fatalf("NumShards(1M,1) = %d", got)
	}
}

func TestRangesReduce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 1000, 4096} {
		for _, w := range []int{0, 1, 2, 8} {
			sum := RangesReduce(n, w, func(_, lo, hi int) int64 {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				return s
			}, func(a, b int64) int64 { return a + b })
			want := int64(n) * int64(n-1) / 2
			if n == 0 {
				want = 0
			}
			if sum != want {
				t.Fatalf("n=%d w=%d: sum = %d, want %d", n, w, sum, want)
			}
		}
	}
}

func TestRangesReduceMergeOrder(t *testing.T) {
	// The fold must be left-to-right in shard order, so even a
	// non-commutative merge is deterministic.
	n, w := 4*minShardLen, 4
	if NumShards(n, w) != 4 {
		t.Fatalf("NumShards = %d", NumShards(n, w))
	}
	got := RangesReduce(n, w, func(s, _, _ int) string {
		return string(rune('a' + s))
	}, func(a, b string) string { return a + b })
	if got != "abcd" {
		t.Fatalf("merge order = %q, want \"abcd\"", got)
	}
}

func TestDeterministicShardBoundaries(t *testing.T) {
	// Shard boundaries must be a pure function of (n, workers).
	f := func(nRaw, wRaw uint16) bool {
		n := int(nRaw%5000) + 1
		w := int(wRaw%16) + 1
		var a, b [][2]int
		collect := func(out *[][2]int) func(s, lo, hi int) {
			shards := NumShards(n, w)
			*out = make([][2]int, shards)
			return func(s, lo, hi int) { (*out)[s] = [2]int{lo, hi} }
		}
		Ranges(n, w, collect(&a))
		Ranges(n, w, collect(&b))
		if len(a) != len(b) {
			return false
		}
		prevHi := 0
		for i := range a {
			if a[i] != b[i] {
				return false
			}
			if a[i][0] != prevHi {
				return false
			}
			prevHi = a[i][1]
		}
		return prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
