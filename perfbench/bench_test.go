package main

import (
	"encoding/json"
	"os"
	"testing"

	"abdhfl"
	"abdhfl/internal/experiments"
	"abdhfl/internal/node"
)

// shrink returns the named workload with fewer rounds (and, on scale, fewer
// devices) so the test runs in seconds; the decorators and checks are the
// benchmark's own.
func shrink(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloads(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	small := func(f func(uint64) abdhfl.Scenario) func(uint64) abdhfl.Scenario {
		return func(seed uint64) abdhfl.Scenario {
			s := f(seed)
			s.Rounds, s.SamplesPerClient = 3, min(s.SamplesPerClient, 60)
			return s
		}
	}
	switch w := w.(type) {
	case *coreWorkload:
		w.scenario, w.floor = small(w.scenario), 0
	case *nodeWorkload:
		w.scenario, w.floor = small(w.scenario), 0
	case *scaleWorkload:
		opts := w.opts
		w.opts = func(seed uint64) experiments.ScaleOptions {
			o := opts(seed)
			o.Devices, o.Rounds = 5000, 2
			return o
		}
	}
	return w
}

// TestDecoratedMatchesUndecorated holds the decorators to observing only:
// on every workload a decorated run yields the same final model, accuracy
// curve, communication stats and (on the node workload) frames per kind as
// an undecorated run, and passes every output check the benchmark makes.
func TestDecoratedMatchesUndecorated(t *testing.T) {
	for _, name := range []string{"paper-table5", "wide-filter", "node-loopback", "scale-100k"} {
		t.Run(name, func(t *testing.T) {
			w := shrink(t, name)
			if _, err := w.setup(7); err != nil {
				t.Fatalf("setup: %v", err)
			}
			plain, err := w.run(false)
			if err != nil {
				t.Fatalf("undecorated run: %v", err)
			}
			traced, err := w.run(true)
			if err != nil {
				t.Fatalf("decorated run: %v", err)
			}
			if err := checkOp(w, plain, plain); err != nil {
				t.Fatalf("undecorated run fails its checks: %v", err)
			}
			if err := checkOp(w, plain, traced); err != nil {
				t.Fatalf("decorated run differs: %v", err)
			}
			if traced.layers == nil {
				t.Fatal("decorated run reported no per-layer metrics")
			}
			if nw, ok := w.(*nodeWorkload); ok {
				// The exchange the ABA top needs must survive decoration.
				for _, k := range []uint8{node.KindProposal, node.KindBallot} {
					if traced.frames[k] == 0 || traced.frames[k] != plain.frames[k] {
						t.Fatalf("kind %d frames: decorated %d, undecorated %d", k, traced.frames[k], plain.frames[k])
					}
				}
				if traced.digest != nw.want.digest {
					t.Fatal("decorated node run differs from core.RunHFL")
				}
			}
		})
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, label := tail(xs); label != "p99" {
		t.Fatalf("1000 samples: tail %s, want p99", label)
	}
	if _, label := tail(xs[:100]); label != "p90" {
		t.Fatalf("100 samples: tail %s, want p90", label)
	}
	if v, label := tail(xs[:12]); label != "p100" || v != 11 {
		t.Fatalf("12 samples: tail %s=%v, want p100=11", label, v)
	}
}

// TestDeclaredMetrics keeps BENCHMARK.json and the metrics this program
// reports in step.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []declared, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program reports %d", what, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}
