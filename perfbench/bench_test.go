package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"versionstamp/internal/kvstore"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// checkMetrics reports every declared metric that is missing from got or
// has another unit, and every reported metric that is not declared.
func checkMetrics(got map[string]metric, want map[string]string) []string {
	var bad []string
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			bad = append(bad, "missing "+name)
		case m.Unit != unit:
			bad = append(bad, fmt.Sprintf("%s: unit %q, declared %q", name, m.Unit, unit))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, "undeclared "+name)
		}
	}
	sort.Strings(bad)
	return bad
}

// TestWorkloadsSmall runs every workload at reduced size from a fixed
// seed, untraced and traced, and checks the correctness verdict, the
// metric names and units against BENCHMARK.json, and the trace file.
func TestWorkloadsSmall(t *testing.T) {
	spec := loadSpec(t)
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		name := w.Name
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			for _, traced := range []bool{false, true} {
				o := options{workload: name, seed: 7, seconds: 0.1, trace: traced, root: root, small: true}
				res, err := run(o, io.Discard)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				want := e2e
				if traced {
					want = layer
				}
				for _, bad := range checkMetrics(res.Metrics, want) {
					t.Errorf("trace=%v: %s", traced, bad)
				}
				if !traced {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
						}
					}
					continue
				}
				n, err := checkTraceFile(filepath.Join(root, "trace", fmt.Sprintf("%s-seed7.json", name)))
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Error("trace file holds no spans")
				}
			}
		})
	}
}

// TestVerifyCatchesDivergence plants a copy that rounds cannot repair (a
// different value under the owner's own stamp, so every stamp comparison
// still says equal) and checks that verify reports it.
func TestVerifyCatchesDivergence(t *testing.T) {
	r, _, err := setupRing(smallConfig(workloads["zipf-serve"]), t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	key := r.keys[0]
	owner := -1
	for i := 0; i < ringNodes && owner < 0; i++ {
		st, err := r.c.Status(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range st.OwnedStripes {
			if s == kvstore.ShardIndex(key, ringStripes) {
				owner = i
			}
		}
	}
	rep, err := r.c.Replica(owner)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rep.Version(key)
	if !ok {
		t.Fatal("owner lacks the preloaded key")
	}
	v.Value = makeValue(key, 1<<40, r.valueBytes)
	rep.PutVersion(key, v)
	_, failed, errs := r.verify(3)
	if failed == 0 {
		t.Fatal("verify passed a ring whose owners disagree")
	}
	found := false
	for _, err := range errs {
		found = found || strings.Contains(err.Error(), "owners disagree")
	}
	if !found {
		t.Errorf("no disagreement reported among %v", errs)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", seconds: 1, root: t.TempDir()}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
