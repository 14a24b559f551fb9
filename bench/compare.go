package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// loadRuns reads every results file matching pattern, in name order.
func loadRuns(pattern string) ([]resultsFile, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results file matches %q", pattern)
	}
	sort.Strings(paths)
	runs := make([]resultsFile, 0, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, rf)
	}
	return runs, nil
}

// values collects one metric of one workload across runs, skipping runs
// that did not report it.
func values(runs []resultsFile, w, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Workloads[w].Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// summary is a metric's median and quartiles over a set of runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

func summarize(xs []float64, unit string) summary {
	q1, q2, q3 := quartiles(append([]float64(nil), xs...))
	return summary{Median: q2, Q1: q1, Q3: q3, Unit: unit}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// verdict judges head against base for one metric, following the
// benchmark's rules: a gain needs head to win at least nine tenths of
// the pairs (ties count for neither) by more than base's own quartile
// distance, or to beat every base run; a spread wider than the bound
// leaves the metric unresolved; a median worse by more than the bound
// is a regression.
func verdict(base, head []float64, d metricDef) (v string, winRate float64) {
	higher := d.Better == "higher"
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	winRate = float64(wins) / float64(pairs)
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	b, h := summarize(base, d.Unit), summarize(head, d.Unit)
	worse := (h.Median - b.Median) / math.Abs(b.Median)
	if higher {
		worse = -worse
	}
	switch {
	case allBetter || (winRate >= 0.9 && better(h.Median, b.Median) && math.Abs(h.Median-b.Median) > b.Q3-b.Q1):
		return "improved", winRate
	case b.spread() > d.Bound || h.spread() > d.Bound:
		return "unresolved", winRate
	case worse > d.Bound:
		return "regressed", winRate
	}
	return "within bound", winRate
}

// compareMain is the compare subcommand: with -head it prints, for every
// workload and end-to-end metric, both sides' medians and quartiles, the
// pair win rate and a verdict; without -head it prints -base's medians
// and quartiles as JSON (the form of baseline.json).
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePat := fs.String("base", "", "glob of the base side's results files (-o output)")
	headPat := fs.String("head", "", "glob of the head side's results files; omit to summarize -base as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	base, err := loadRuns(*basePat)
	if err != nil {
		return err
	}
	if *headPat == "" {
		out := map[string]map[string]summary{}
		for _, w := range cfg.Workloads {
			out[w.Name] = map[string]summary{}
			for _, d := range cfg.EndToEnd {
				if xs := values(base, w.Name, d.Name); len(xs) >= 2 {
					out[w.Name][d.Name] = summarize(xs, d.Unit)
				}
			}
		}
		raw, err := json.MarshalIndent(map[string]any{"runs": len(base), "env": base[0].Env, "seed": base[0].Seed,
			"seconds": base[0].Seconds, "workloads": out}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		return nil
	}
	head, err := loadRuns(*headPat)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-16s %28s %28s %6s %6s  %s\n", "workload", "metric",
		"base median [q1, q3]", "head median [q1, q3]", "wins", "bound", "verdict")
	for _, w := range cfg.Workloads {
		for _, d := range cfg.EndToEnd {
			b, h := values(base, w.Name, d.Name), values(head, w.Name, d.Name)
			if len(b) < 2 || len(h) < 2 {
				fmt.Printf("%-16s %-16s need two runs a side (have %d, %d)\n", w.Name, d.Name, len(b), len(h))
				continue
			}
			v, win := verdict(b, h, d)
			bs, hs := summarize(b, d.Unit), summarize(h, d.Unit)
			fmt.Printf("%-16s %-16s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %5.0f%% %5.0f%%  %s\n",
				w.Name, d.Name, bs.Median, bs.Q1, bs.Q3, hs.Median, hs.Q1, hs.Q3, 100*win, 100*d.Bound, v)
		}
	}
	return nil
}
