// Comparison: the full baseline face-off from the public API.
//
// Runs every algorithm shipped with the library on the same Single
// workload and prints the positioning table of Section 1.1: max load
// vs message rate vs locality. One harness: every row is an engine
// Runner driven by the same plb.Drive call and measured through the
// same unified plb.RunMetrics.
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"log"

	"plb"
)

const (
	n     = 4096
	steps = 4000
	seed  = 3
)

func main() {
	type system struct {
		name  string
		build func() (plb.Runner, error)
	}
	bal := func(b plb.Balancer) func() (plb.Runner, error) {
		return func() (plb.Runner, error) {
			model, err := plb.NewSingleModel(0.4, 0.1)
			if err != nil {
				return nil, err
			}
			return plb.NewMachine(plb.MachineConfig{N: n, Model: model, Balancer: b, Seed: seed})
		}
	}
	systems := []system{
		{"bfm98 (paper)", func() (plb.Runner, error) {
			model, err := plb.NewSingleModel(0.4, 0.1)
			if err != nil {
				return nil, err
			}
			return plb.NewBalancedMachine(plb.MachineConfig{N: n, Model: model, Seed: seed})
		}},
		{"unbalanced", bal(plb.NewUnbalanced())},
		{"greedy d=2 (supermarket)", func() (plb.Runner, error) {
			model, err := plb.NewSingleModel(0.4, 0.1)
			if err != nil {
				return nil, err
			}
			g, err := plb.NewGreedyPlacer(2)
			if err != nil {
				return nil, err
			}
			return plb.NewMachine(plb.MachineConfig{N: n, Model: model, Placer: g, Seed: seed})
		}},
		{"rsu91", bal(plb.NewRSU(seed))},
		{"lm93", bal(plb.NewLM(2, seed))},
		{"lauer95", bal(plb.NewLauer(2, seed))},
		{"throwair", bal(plb.NewThrowAir(4, seed))},
	}

	t := plb.PaperT(n)
	fmt.Printf("n=%d, Single(0.4, 0.1), %d steps, T=(log log n)^2=%d\n\n", n, steps, t)
	fmt.Printf("%-26s %8s %9s %7s %11s %9s %10s\n",
		"algorithm", "backend", "max load", "max/T", "msgs/step", "locality", "mean wait")
	for _, s := range systems {
		r, err := s.build()
		if err != nil {
			log.Fatal(err)
		}
		warm := steps / 4
		rep, err := plb.Drive(r, plb.DriveConfig{
			Warmup:      warm,
			Steps:       steps - warm,
			SampleEvery: (steps - warm) / 15,
		})
		if err != nil {
			log.Fatal(err)
		}
		met := rep.Final
		locality, wait := "      —", "         —"
		if m, ok := r.(*plb.Machine); ok {
			rec := m.Recorder()
			locality = fmt.Sprintf("%6.1f%%", 100*rec.LocalityFraction())
			wait = fmt.Sprintf("%10.2f", rec.MeanWait())
		}
		fmt.Printf("%-26s %8s %9d %7.2f %11.1f %9s %s\n",
			s.name, rep.Meta.Backend, rep.PeakMaxLoad,
			float64(rep.PeakMaxLoad)/float64(t),
			float64(met.Messages)/float64(met.Steps),
			locality, wait)
	}
}
