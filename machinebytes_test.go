package plb_test

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"plb/internal/cli"
	"plb/internal/policy"
	"plb/internal/sim"
)

// byteCounter attributes the heap memory reachable from a value to
// named components. It follows pointers, slices (to their capacity),
// interfaces and struct fields, and counts each allocation once, by
// its base address. Maps, strings, channels and closures are not
// followed; what they hold shows up as the gap between the attributed
// sum and the measured live heap.
type byteCounter struct {
	seen map[uintptr]bool
	by   map[string]int64
}

func (c *byteCounter) walk(v reflect.Value, comp string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || c.seen[v.Pointer()] {
			return
		}
		c.seen[v.Pointer()] = true
		c.by[comp] += int64(v.Type().Elem().Size())
		c.walk(v.Elem(), comp)
	case reflect.Slice:
		if v.Cap() == 0 || c.seen[v.Pointer()] {
			return
		}
		c.seen[v.Pointer()] = true
		c.by[comp] += int64(v.Cap()) * int64(v.Type().Elem().Size())
		if hasPointers(v.Type().Elem()) {
			full := v.Slice(0, v.Cap())
			for i := 0; i < full.Len(); i++ {
				c.walk(full.Index(i), comp)
			}
		}
	case reflect.Array:
		if hasPointers(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				c.walk(v.Index(i), comp)
			}
		}
	case reflect.Interface:
		if !v.IsNil() {
			c.walk(v.Elem(), comp)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			c.walk(v.Field(i), comp)
		}
	}
}

// hasPointers reports whether values of t can reference other memory
// the counter follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Interface:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// machineComponent names the component a Machine field belongs to.
// The sparse engine and the balancer are split one level further.
func machineComponent(field, sub string) string {
	switch field {
	case "streams", "model":
		return field
	case "loads", "busy", "heavyBuf":
		return "loads"
	case "wloads", "wsnap":
		return "weights"
	case "queues":
		return "deques"
	case "sparse":
		switch sub {
		case "procs":
			return "sparse-procs"
		case "heavy", "heavyPos":
			return "heavy-index"
		case "wheel":
			return "timing-wheel"
		}
	case "bal":
		if sub == "col" {
			return "collision"
		}
		return "core-phase"
	}
	return "other"
}

// machineBytes attributes the memory reachable from m to components.
func machineBytes(m *sim.Machine) map[string]int64 {
	c := &byteCounter{seen: map[uintptr]bool{}, by: map[string]int64{}}
	c.seen[reflect.ValueOf(m).Pointer()] = true
	c.by["other"] += int64(reflect.TypeOf(*m).Size())
	mv := reflect.ValueOf(m).Elem()
	for i := 0; i < mv.NumField(); i++ {
		field := mv.Type().Field(i).Name
		fv := mv.Field(i)
		inner := fv
		for inner.Kind() == reflect.Interface || inner.Kind() == reflect.Pointer {
			if inner.IsNil() {
				break
			}
			inner = inner.Elem()
		}
		if (field == "sparse" || field == "bal") && inner.Kind() == reflect.Struct {
			// Count the struct itself under the field's default
			// component, then split its fields.
			ptr := fv
			if ptr.Kind() == reflect.Interface {
				ptr = ptr.Elem()
			}
			c.seen[ptr.Pointer()] = true
			c.by[machineComponent(field, "")] += int64(inner.Type().Size())
			for j := 0; j < inner.NumField(); j++ {
				c.walk(inner.Field(j), machineComponent(field, inner.Type().Field(j).Name))
			}
			continue
		}
		c.walk(fv, machineComponent(field, ""))
	}
	return c.by
}

// buildLockstep builds a machine as the lockstep benchmark workloads
// build theirs (bfm98, seed 1, one worker shard) and runs its warm-up
// steps.
func buildLockstep(tb testing.TB, model string, n int, sparse bool, warmup int) *sim.Machine {
	mdl, weigher, err := cli.BuildWorkload(model, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.Config{N: n, Model: mdl, Weigher: weigher, Seed: 1, Sparse: sparse, Workers: 1}
	if err := cli.InstallPolicy(&cfg, "bfm98", policy.Params{N: n, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m.Steps(warmup)
	return m
}

// TestMachineBytesBudget holds the sparse machine's per-processor
// state to its sizes. It builds the lockstep-sparse shape at n=2^14
// with the workload's 96 warm-up steps, where bfm98's heavy threshold
// sizes the timing wheel at 8 buckets of one bit per processor. The
// sparse procs are two int32 step stamps, and the core phase arrays
// one flag byte, three int32 columns (boss, partner, epoch) and a
// small arena.
func TestMachineBytesBudget(t *testing.T) {
	const n = 1 << 14
	by := machineBytes(buildLockstep(t, "single", n, true, 96))
	for comp, budget := range map[string]float64{
		"timing-wheel": 1,
		"sparse-procs": 8,
		"core-phase":   13.5,
	} {
		if got := float64(by[comp]) / n; got > budget {
			t.Errorf("%s holds %.2f B per processor, budget %.1f", comp, got, budget)
		}
	}
}

// BenchmarkMachineBytes builds and warms the two lockstep benchmark
// workloads' machines (lockstep-sparse: bfm98 on the sparse engine at
// n=2^20 under Single(0.4, 0.1); lockstep-bursty: bfm98 on the dense
// machine at n=2^16 under the bursty adversary; one worker shard and
// the workloads' warm-up steps each). ns/op is the set-up time; the
// custom metrics are the measured live heap per processor (heap after
// GC, minus the heap before the first build) and, per component, the
// bytes reachable from the machine divided by n. The gap between the
// two totals is what the attribution does not follow (maps, the
// runtime's own structures).
func BenchmarkMachineBytes(b *testing.B) {
	shapes := []struct {
		name   string
		model  string
		n      int
		sparse bool
		warmup int
	}{
		{"sparse/n=1048576", "single", 1 << 20, true, 96},
		{"bursty/n=65536", "workload:arrivals=bursty", 1 << 16, false, 32},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var m *sim.Machine
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m = nil
				m = buildLockstep(b, sh.model, sh.n, sh.sparse, sh.warmup)
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			n := float64(sh.n)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/n, "live-B/proc")
			by := machineBytes(m)
			comps := make([]string, 0, len(by))
			var sum int64
			for comp, bytes := range by {
				comps = append(comps, comp)
				sum += bytes
			}
			sort.Strings(comps)
			for _, comp := range comps {
				b.ReportMetric(float64(by[comp])/n, comp+"-B/proc")
			}
			b.ReportMetric(float64(sum)/n, "attributed-B/proc")
			runtime.KeepAlive(m)
		})
	}
}
