package chaostrans

import (
	"maps"
	"math/rand/v2"
	"testing"

	"plb/internal/faults"
	"plb/internal/transport"
	"plb/internal/transport/membus"
)

// arrival is one expected or observed delivery: a frame's tag and the
// window it became readable in.
type arrival struct {
	tag int32
	win int64
}

// FuzzChaosFrame holds the middleware to its invariants under
// arbitrary plans and frames, over the in-memory bus with 2–3 endpoint
// views, each under its own wrapper of one shared injector, that
// deliver in a fuzzed order every window. It never panics; every
// delivered frame arrives at its send window + 1 + its fated delay (a
// duplicated frame's copy at its send window + 1); and every frame sent
// at the protocol boundary is delivered, counted lost by the bus,
// dropped, or still held.
func FuzzChaosFrame(f *testing.F) {
	f.Add("lossy:0.3,dup:0.2,delay:0.4@3", int64(1), uint8(7), int32(0), int32(1), int32(5))
	f.Add("partition:2@8,lossy:0.1", int64(9), uint8(5), int32(3), int32(-1), int32(0))
	f.Add("straggle:0.5@4,dup:1.0", int64(2), uint8(1), int32(-1), int32(2), int32(99))
	f.Add("", int64(0), uint8(0), int32(1<<30), int32(-1<<30), int32(-1))
	f.Add("delay:1.0@2,dup:0.5", int64(4), uint8(6), int32(7), int32(2), int32(3))
	f.Fuzz(func(t *testing.T, spec string, seed int64, kind uint8, from, to, order int32) {
		plan, err := faults.ParsePlan(spec)
		if err != nil {
			t.Skip()
		}
		if plan.Seed == 0 {
			plan.Seed = uint64(seed)
		}
		const n, sends, horizon = 8, 3, 16
		inj, err := faults.NewInjector(n, plan)
		if err != nil {
			t.Fatal(err)
		}
		k := 2 + int(uint32(order)%2)
		bus := membus.New(n)
		views := make([]*membus.View, k)
		eps := make([]*Trans, k)
		for e := range views {
			var ids []int32
			for id := 0; id < n; id++ {
				if id*k/n == e {
					ids = append(ids, int32(id))
				}
			}
			views[e] = bus.View(ids)
			eps[e] = Wrap(views[e], inj, 0)
		}
		src := eps[uint32(from)%uint32(k)]
		rng := rand.New(rand.NewPCG(uint64(order), 0))
		got := map[arrival]int{}
		var delivered int64
		window := func(w int64) {
			for _, e := range rng.Perm(k) {
				eps[e].Deliver()
			}
			for id := 0; id < n; id++ {
				for _, m := range views[id*k/n].Inbox(id) {
					got[arrival{m.B, w}]++
					delivered++
				}
			}
		}

		// One frame per window; the sender's fault clock and sequence
		// number both equal the window, so the test redraws each fate.
		var due []arrival
		for w := int64(1); w <= sends; w++ {
			window(w)
			src.Send(transport.Message{From: from, To: to, Kind: transport.Kind(kind), B: int32(w)})
			fate := inj.Fate(w, w, from, to)
			if fate.Drop || to < 0 || to >= n {
				continue
			}
			due = append(due, arrival{int32(w), w + 1 + int64(fate.Delay)})
			if fate.Dup {
				due = append(due, arrival{int32(w), w + 1})
			}
		}
		// Flush past every frame due within the horizon, and on while a
		// frame released in the last window is still on the bus.
		last := int64(sends)
		for _, a := range due {
			if a.win <= sends+horizon {
				last = max(last, a.win)
			}
		}
		for extend := true; extend; {
			extend = false
			for _, a := range due {
				if a.win == last+1 {
					last, extend = a.win, true
				}
			}
		}
		for w := int64(sends + 1); w <= last; w++ {
			window(w)
		}

		want := map[arrival]int{}
		for _, a := range due {
			if a.win <= last {
				want[a]++
			}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("arrivals %v, want %v", got, want)
		}
		var c Counters
		var lost int64
		for e, ep := range eps {
			ec := ep.Counters()
			c.Sent += ec.Sent
			c.Dropped += ec.Dropped
			c.Duplicated += ec.Duplicated
			c.Held += ec.Held
			s := ep.Stats()
			if s.Sent != ec.Sent || s.Dropped != ec.Dropped || s.Duplicated != ec.Duplicated || s.Delayed != ec.Delayed {
				t.Fatalf("Stats %+v inconsistent with Counters %+v", s, ec)
			}
			vs := views[e].Stats()
			lost += vs.GoneLost + vs.CrashLost
		}
		if c.Sent != sends {
			t.Fatalf("sent counter %d, want %d", c.Sent, sends)
		}
		if got, want := c.Sent-c.Dropped+c.Duplicated-c.Held, delivered+lost; got != want {
			t.Fatalf("sent-dropped+dup-held = %d, want delivered+lost = %d+%d (%+v)", got, delivered, lost, c)
		}
	})
}
