package engine_test

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"plb/internal/cli"
	"plb/internal/policy"
	"plb/internal/sim"
)

// Planned-model goldens: the adversarial generation models (burst,
// tree, hotspot) plan each step centrally, and the dense machine walks
// only the processors a plan or a queue makes busy. These digests pin
// that walk under every registered sim policy at two worker counts,
// plus the distributed protocol with crashes and membership churn
// (whose down and generation-off oracles gate the walk). Each digest
// hashes every per-step Snapshot and the final Collect JSON.
const (
	plannedN     = 1024
	plannedSeed  = 7
	plannedSteps = 160
)

// plannedGoldens maps "model/policy" to its digest. Workers 1 and 8
// must both reproduce it.
var plannedGoldens = map[string]string{
	"burst/bfm98":             "0e79b18cffe02c89",
	"burst/bfm98-dist":        "dbc0174accaad30f",
	"burst/bfm98-phaseless":   "2464833c91fc2c99",
	"burst/bfm98-pre":         "6cbca5e6c49c186a",
	"burst/greedy1":           "f02d8b71a9e4003b",
	"burst/lauer":             "b056eb8623450cc4",
	"burst/lauer-est":         "7cd10f3787cb3f2f",
	"burst/lm":                "7008f80c37d4f3bc",
	"burst/localsearch":       "ab3fd92c29a71f9d",
	"burst/rr":                "3ae72516f376fe05",
	"burst/rsu":               "0d9834001738ec70",
	"burst/supermarket":       "8750471b16ace6c3",
	"burst/throwair":          "ab3beb3031fbea26",
	"burst/unbalanced":        "8a2e84752fe5ec74",
	"hotspot/bfm98":           "b32f2a8856ce620f",
	"hotspot/bfm98-dist":      "d84a4c6385927e88",
	"hotspot/bfm98-phaseless": "7ed61ef75b8e8f6e",
	"hotspot/bfm98-pre":       "0d11ad6546e62898",
	"hotspot/greedy1":         "b1b4b5568991a036",
	"hotspot/lauer":           "84d39a2431d1794a",
	"hotspot/lauer-est":       "e48047c7bd2cf080",
	"hotspot/lm":              "bf4f9f41e7e80e4c",
	"hotspot/localsearch":     "ca50f72083240ded",
	"hotspot/rr":              "a65933427b86ddd6",
	"hotspot/rsu":             "f6d14c3e9bc5f35a",
	"hotspot/supermarket":     "1e9340d6e3510919",
	"hotspot/throwair":        "40a31e95a6d2d89f",
	"hotspot/unbalanced":      "db40364f6005ea43",
	"tree/bfm98":              "dfb6e0dfb77cb62d",
	"tree/bfm98-dist":         "9b2da5151e47ffcd",
	"tree/bfm98-phaseless":    "31615c7d7d413d8d",
	"tree/bfm98-pre":          "0e2017afaf4db63d",
	"tree/greedy1":            "e552059f431cf003",
	"tree/lauer":              "8e67eb6d692de905",
	"tree/lauer-est":          "7ec4a35163c19a2e",
	"tree/lm":                 "e989e8309adfa19e",
	"tree/localsearch":        "85354e19ffcadeaf",
	"tree/rr":                 "3e2959d2ef55b48e",
	"tree/rsu":                "4e445cd9d27e507b",
	"tree/supermarket":        "47cebd2aa9135097",
	"tree/throwair":           "e58f4653b1239654",
	"tree/unbalanced":         "d783d8fbfa85f5ee",
}

// plannedFaultedGoldens pins bfm98-dist under a crash plus churn plan,
// by model.
var plannedFaultedGoldens = map[string]string{
	"burst":   "f9a6227ace3767d5",
	"hotspot": "ae6ccc7f7205a5b3",
	"tree":    "5fbf7d23591fb3eb",
}

const (
	plannedFaults = "crash:0.05@20-90"
	plannedChurn  = "churn:join=8,leave=8,period=64,spare=32"
)

// plannedDigest runs a planned-model machine and hashes its trajectory.
func plannedDigest(t *testing.T, model, pol string, workers int, p policy.Params) string {
	t.Helper()
	mod, err := cli.BuildModel(model, plannedN, plannedSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{N: plannedN, Model: mod, Seed: plannedSeed, Workers: workers}
	if err := cli.InstallPolicy(&cfg, pol, p); err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	buf := make([]byte, 4)
	for i := 0; i < plannedSteps; i++ {
		m.Step()
		for _, l := range m.Snapshot() {
			buf[0] = byte(l)
			buf[1] = byte(l >> 8)
			buf[2] = byte(l >> 16)
			buf[3] = byte(l >> 24)
			h.Write(buf)
		}
	}
	em := m.Collect()
	if em.Generated != em.Completed+em.TotalLoad {
		t.Fatalf("%s/%s workers=%d: generated %d != completed %d + queued %d",
			model, pol, workers, em.Generated, em.Completed, em.TotalLoad)
	}
	js, err := json.Marshal(em)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	return hexDigest(h.Sum64())
}

var plannedModels = []string{"burst", "tree", "hotspot"}

// plannedAliases are names that were registered entries of their own
// before they became aliases. Their subtests stay, and each must
// reproduce the digest pinned under its canonical entry.
var plannedAliases = []string{"greedy2"}

func TestGoldenPlannedModels(t *testing.T) {
	// The pins name exactly the registered sim policies, and no two of
	// them share a digest on one model: a rule registered twice under
	// two names shows up here.
	registered := map[string]bool{}
	for _, model := range plannedModels {
		for _, pol := range policy.BackendNames("sim") {
			registered[model+"/"+pol] = true
		}
	}
	keys := make([]string, 0, len(plannedGoldens))
	for key := range plannedGoldens {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	owner := map[string]string{}
	for _, key := range keys {
		if !registered[key] {
			t.Errorf("plannedGoldens pins %s, which is no registered sim policy on a planned model", key)
		}
		model, pol, _ := strings.Cut(key, "/")
		digest := model + "/" + plannedGoldens[key]
		if other, dup := owner[digest]; dup {
			t.Errorf("%s and %s share digest %s on %s: one rule registered twice", other, pol, plannedGoldens[key], model)
		}
		owner[digest] = pol
	}
	for _, alias := range plannedAliases {
		if canon, ok := policy.Canonical(alias); !ok || canon == alias {
			t.Errorf("%s is no alias of a registered policy", alias)
		}
	}
	for _, model := range plannedModels {
		for _, pol := range append(policy.BackendNames("sim"), plannedAliases...) {
			canon, _ := policy.Canonical(pol)
			t.Run(model+"/"+pol, func(t *testing.T) {
				for _, w := range []int{1, 8} {
					got := plannedDigest(t, model, pol, w, policy.Params{N: plannedN, Seed: plannedSeed})
					if want, ok := plannedGoldens[model+"/"+canon]; !ok || got != want {
						t.Errorf("workers=%d: digest %s, pinned %q", w, got, want)
					}
				}
			})
		}
	}
}

func TestGoldenPlannedModelsFaulted(t *testing.T) {
	for _, model := range plannedModels {
		t.Run(model, func(t *testing.T) {
			for _, w := range []int{1, 8} {
				p := policy.Params{N: plannedN, Seed: plannedSeed, Faults: plannedFaults, Churn: plannedChurn}
				got := plannedDigest(t, model, "bfm98-dist", w, p)
				if want, ok := plannedFaultedGoldens[model]; !ok || got != want {
					t.Errorf("workers=%d: digest %s, pinned %q", w, got, want)
				}
			}
		})
	}
}
