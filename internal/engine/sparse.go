package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// TrajectoryDigest advances r one step at a time for steps steps and
// folds every per-step load snapshot into an FNV-64a digest (4
// little-endian bytes per load — the same scheme as the pinned golden
// digests). Two runners with equal digests made bit-identical
// decisions at every step; this is the referee for the dense-vs-
// sparse equivalence suite and the E27 frontier experiment's sanity
// check.
func TrajectoryDigest(r Runner, steps int) string {
	h := fnv.New64a()
	var buf [4]byte
	for i := 0; i < steps; i++ {
		r.Steps(1)
		for _, l := range r.Loads() {
			binary.LittleEndian.PutUint32(buf[:], uint32(l))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
