// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each exercising the exact code path the corresponding cmd/
// tool uses to regenerate it (at reduced round counts — benchmarks measure
// cost per experiment unit; the cmd tools produce the full numbers).
package abdhfl

import (
	"fmt"

	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/attack"
	"abdhfl/internal/core"
	"abdhfl/internal/dataset"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/rng"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
	"abdhfl/internal/trace"
)

// benchScenario is a reduced paper-shape scenario reused by the benches.
func benchScenario(overrides func(*Scenario)) Scenario {
	s := Scenario{
		Rounds:            5,
		SamplesPerClient:  100,
		TestSamples:       400,
		ValidationSamples: 300,
		EvalEvery:         5,
	}
	if overrides != nil {
		overrides(&s)
	}
	return s.WithDefaults()
}

// BenchmarkTable1Attacks measures the data-poisoning attacks of Table I
// applied to one client shard.
func BenchmarkTable1Attacks(b *testing.B) {
	r := rng.New(1)
	base := dataset.Generate(r, 937, dataset.DefaultGen())
	attacks := []attack.DataPoison{
		attack.LabelFlipAll{Target: 9},
		attack.LabelFlipRandom{},
		attack.FeatureNoise{Stddev: 1},
		attack.DefaultBackdoor(),
	}
	for _, a := range attacks {
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := base.Clone()
				b.StartTimer()
				a.Poison(r, d)
			}
		})
	}
}

// BenchmarkTable2Defenses measures every Byzantine-robust rule of Table II
// aggregating a 16-member population with 25% sign-flipping members at the
// paper's model dimension.
func BenchmarkTable2Defenses(b *testing.B) {
	r := rng.New(1)
	const n, dim = 16, 2410 // 64-32-10 MLP parameter count
	honest := make([]tensor.Vector, n*3/4)
	for i := range honest {
		v := tensor.NewVector(dim)
		for j := range v {
			v[j] = 1 + 0.2*r.NormFloat64()
		}
		honest[i] = v
	}
	mean, std := attack.PopulationStats(honest)
	updates := append([]tensor.Vector{}, honest...)
	for len(updates) < n {
		updates = append(updates, (attack.SignFlip{Scale: 3}).Apply(r, honest[0], mean, std))
	}
	for _, name := range aggregate.Names() {
		rule, err := aggregate.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rule.Aggregate(updates); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Schemes measures one full ABD-HFL run per Table III scheme
// (64 clients, 40% Type I poisoning).
func BenchmarkTable3Schemes(b *testing.B) {
	for scheme := 1; scheme <= 4; scheme++ {
		s := benchScenario(func(s *Scenario) {
			s.Scheme = scheme
			s.Attack = AttackType1
			s.MaliciousFraction = 0.40
		})
		m, err := Build(s)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(core.Scheme(scheme).String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.RunHFL(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5Cell measures one Table V cell: an ABD-HFL run and a
// vanilla run under 50% Type I poisoning (the collapse point), IID/MultiKrum
// and non-IID/Median families.
func BenchmarkTable5Cell(b *testing.B) {
	families := []struct {
		name string
		dist Distribution
		agg  string
	}{
		{"iid-multikrum", DistIID, "multi-krum"},
		{"noniid-median", DistNonIID, "median"},
	}
	for _, fam := range families {
		s := benchScenario(func(s *Scenario) {
			s.Distribution = fam.dist
			s.Aggregator = fam.agg
			s.Attack = AttackType1
			s.MaliciousFraction = 0.50
		})
		m, err := Build(s)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fam.name+"/abdhfl", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.RunHFL(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fam.name+"/vanilla", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.RunVanilla(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTelemetryOverhead runs the same attacked round engine with the
// telemetry registry detached (off) and attached together with a filter-audit
// callback (on). Comparing the two arms quantifies the instrumentation tax on
// the training hot path; the budget is <=2% (ISSUE 3 acceptance).
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, attach bool) {
		s := benchScenario(func(s *Scenario) {
			s.Attack = AttackType1
			s.MaliciousFraction = 0.25
		})
		m, err := Build(s)
		if err != nil {
			b.Fatal(err)
		}
		if attach {
			m.Telemetry = telemetry.New()
			m.OnFilter = func(telemetry.FilterDecision) {}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.RunHFL(uint64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkTraceOverhead runs the same attacked round engine with the span
// tracer detached (off) and attached (on). A nil tracer is a single pointer
// check on every emission site, so the disabled arm must cost 0%; the
// enabled arm records every round/phase/train/aggregate/global span plus the
// per-aggregation filter audit and must stay within the <=2% budget
// (ISSUE 8 acceptance).
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, attach bool) {
		s := benchScenario(func(s *Scenario) {
			s.Attack = AttackType1
			s.MaliciousFraction = 0.25
		})
		m, err := Build(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if attach {
				m.Trace = trace.NewTracer(8, 0)
			}
			if _, err := m.RunHFL(uint64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkFig2Pipeline measures one asynchronous pipeline run (the workflow
// of Fig 2) on the paper-shape tree.
func BenchmarkFig2Pipeline(b *testing.B) {
	s := benchScenario(nil)
	m, err := Build(s)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := m.RunPipeline(uint64(i+1), 1, pipeline.DefaultTiming()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Convergence measures a per-round-evaluated run — the unit of
// one Fig 3 curve (one repeat).
func BenchmarkFig3Convergence(b *testing.B) {
	s := benchScenario(func(s *Scenario) {
		s.Attack = AttackType1
		s.MaliciousFraction = 0.50
		s.EvalEvery = 1
	})
	m, err := Build(s)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := m.RunHFL(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq3FlagLevelSweep measures the flag-level sweep unit behind the
// efficiency-indicator study (Eq. 3 / Table VIII): one pipeline run per
// admissible flag level on a 4-level tree.
func BenchmarkEq3FlagLevelSweep(b *testing.B) {
	s := benchScenario(func(s *Scenario) {
		s.Levels, s.ClusterSize, s.TopNodes = 4, 3, 3
		s.Rounds = 4
	})
	m, err := Build(s)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for fl := 0; fl <= m.Tree.Bottom()-1; fl++ {
			if _, err := m.RunPipeline(uint64(i+1), fl, pipeline.DefaultTiming()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTheorem2Bound measures the tolerance-theory verification unit:
// bound computation, bound-attaining placement, and ideal-filtering check on
// a 5-level, 1024-device tree.
func BenchmarkTheorem2Bound(b *testing.B) {
	tree, err := topology.NewECSM(5, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	tol := topology.Tolerance{Gamma1: 0.25, Gamma2: 0.25}
	for i := 0; i < b.N; i++ {
		placement := tol.AdversarialPlacement(tree)
		if !tol.SurvivesFiltering(tree, placement) {
			b.Fatal("bound-attaining placement rejected")
		}
	}
}

// BenchmarkAblationDepth measures the cost of one run as the tree deepens at
// a fixed bottom population shape — the design-choice ablation behind
// Corollary 3 (deeper trees tolerate more but add aggregation stages).
func BenchmarkAblationDepth(b *testing.B) {
	shapes := []struct {
		name           string
		levels, m, top int
	}{
		{"depth2-16dev", 2, 4, 4},
		{"depth3-64dev", 3, 4, 4},
		{"depth4-256dev", 4, 4, 4},
	}
	for _, sh := range shapes {
		s := benchScenario(func(s *Scenario) {
			s.Levels, s.ClusterSize, s.TopNodes = sh.levels, sh.m, sh.top
			s.Rounds = 2
			s.SamplesPerClient = 40
		})
		m, err := Build(s)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.RunHFL(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationClusterSize measures one run across cluster sizes at a
// comparable device count — the m-ary branching design choice.
func BenchmarkAblationClusterSize(b *testing.B) {
	shapes := []struct {
		name           string
		levels, m, top int
	}{
		{"m2", 4, 2, 8}, // 8 top nodes, binary branching: 64 devices
		{"m4", 3, 4, 4},
		{"m8", 2, 8, 8},
	}
	for _, sh := range shapes {
		s := benchScenario(func(s *Scenario) {
			s.Levels, s.ClusterSize, s.TopNodes = sh.levels, sh.m, sh.top
			s.Rounds = 2
			s.SamplesPerClient = 40
		})
		m, err := Build(s)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%ddev", sh.name, m.Tree.NumDevices()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.RunHFL(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopologiesUnderAttack compares one hierarchical run against the
// star baseline on the same poisoned workload — the paradigm comparison of
// the paper's introduction.
func BenchmarkTopologiesUnderAttack(b *testing.B) {
	s := benchScenario(func(s *Scenario) {
		s.Attack = AttackType1
		s.MaliciousFraction = 0.25
		s.Rounds = 2
	})
	m, err := Build(s)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tree-abdhfl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.RunHFL(uint64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("star-vanilla", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.RunVanilla(uint64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
