package core

import (
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/telemetry"
)

func TestCohortSamplesKPerCluster(t *testing.T) {
	cfg := buildScenario(t, 3, 4, 2, 3, 40, 0)
	cfg.Global = LevelRule{BRA: aggregate.Mean{}} // keep the run cheap
	cfg.Cohort = 2
	bottomClusters := len(cfg.Tree.Clusters[cfg.Tree.Bottom()])

	// Collect the bottom-level contributor ids per (round, cluster).
	type key struct{ round, cluster int }
	contributors := map[key][]int{}
	cfg.OnFilter = func(d telemetry.FilterDecision) {
		if d.Level != cfg.Tree.Bottom() {
			return
		}
		ids := append(append(append([]int{}, d.Kept...), d.Clipped...), d.Discarded...)
		contributors[key{d.Round, d.Cluster}] = ids
	}
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Cohort * bottomClusters * cfg.Rounds
	if res.TrainerActivations != want {
		t.Fatalf("TrainerActivations = %d, want %d (cohort %d × %d clusters × %d rounds)",
			res.TrainerActivations, want, cfg.Cohort, bottomClusters, cfg.Rounds)
	}
	if len(contributors) != bottomClusters*cfg.Rounds {
		t.Fatalf("saw %d bottom aggregations, want %d", len(contributors), bottomClusters*cfg.Rounds)
	}
	for k, ids := range contributors {
		if len(ids) != cfg.Cohort {
			t.Fatalf("round %d cluster %d aggregated %d contributors, want %d", k.round, k.cluster, len(ids), cfg.Cohort)
		}
		c := cfg.Tree.Clusters[cfg.Tree.Bottom()][k.cluster]
		for _, id := range ids {
			if !c.Contains(id) {
				t.Fatalf("round %d cluster %d: contributor %d not a member", k.round, k.cluster, id)
			}
		}
	}
}

func TestCohortLazyBuffersBoundedByActiveSet(t *testing.T) {
	cfg := buildScenario(t, 3, 4, 2, 4, 40, 0)
	cfg.Global = LevelRule{BRA: aggregate.Mean{}}
	cfg.Cohort = 1
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	devices := cfg.Tree.NumDevices()
	perRound := len(cfg.Tree.Clusters[cfg.Tree.Bottom()]) // 1 trainer per cluster
	if res.TrainerBuffers > perRound {
		t.Fatalf("materialized %d buffers for a %d-device round (devices=%d): state not lazy",
			res.TrainerBuffers, perRound, devices)
	}
	if res.TrainerBuffers == 0 {
		t.Fatal("no buffers materialized")
	}
}

func TestCohortFullSizeMatchesUnsampled(t *testing.T) {
	// Cohort >= cluster size must be bit-identical to cohort off: the
	// sampling draw is skipped entirely and the lazy buffer pool reproduces
	// the eager engine's values exactly.
	run := func(cohort int) *Result {
		cfg := buildScenario(t, 3, 2, 2, 3, 40, 2)
		cfg.Global = LevelRule{BRA: aggregate.Mean{}}
		cfg.Cohort = cohort
		cfg.EvalEvery = 1
		res, err := RunHFL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, full := run(0), run(2) // m = 2, so cohort 2 is the whole cluster
	if len(off.Curve) != len(full.Curve) {
		t.Fatal("curve lengths differ")
	}
	for i := range off.Curve {
		if off.Curve[i] != full.Curve[i] {
			t.Fatalf("round %d diverged: %+v vs %+v", i, off.Curve[i], full.Curve[i])
		}
	}
	for i := range off.FinalParams {
		if off.FinalParams[i] != full.FinalParams[i] {
			t.Fatalf("FinalParams[%d] diverged", i)
		}
	}
}

func TestCohortWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []RoundStat {
		cfg := buildScenario(t, 3, 4, 2, 3, 40, 4)
		cfg.Global = LevelRule{BRA: aggregate.Mean{}}
		cfg.Cohort = 2
		cfg.Workers = workers
		cfg.EvalEvery = 1
		res, err := RunHFL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Curve
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cohort run depends on worker count at round %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCohortWithChurnComposes(t *testing.T) {
	cfg := buildScenario(t, 3, 4, 2, 4, 40, 0)
	cfg.Global = LevelRule{BRA: aggregate.Mean{}}
	cfg.Cohort = 2
	cfg.Churn.OfflineProb = 0.3
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Offline devices are removed from the sampled cohort, so activations
	// stay at or below the cohort budget.
	maxAct := cfg.Cohort * len(cfg.Tree.Clusters[cfg.Tree.Bottom()]) * cfg.Rounds
	if res.TrainerActivations > maxAct || res.TrainerActivations == 0 {
		t.Fatalf("TrainerActivations = %d, want in (0, %d]", res.TrainerActivations, maxAct)
	}
}

func TestCohortValidation(t *testing.T) {
	cfg := buildScenario(t, 2, 2, 2, 1, 10, 0)
	cfg.Cohort = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Cohort accepted")
	}
}

func TestVanillaCohort(t *testing.T) {
	base := buildScenario(t, 2, 4, 2, 3, 40, 0)
	run := func() *Result {
		cfg := VanillaConfig{
			Rounds:     3,
			Local:      base.Local,
			Aggregator: aggregate.Mean{},
			ClientData: base.ClientData,
			TestData:   base.TestData,
			Seed:       7,
			Cohort:     3,
		}
		var audited [][]int
		cfg.OnFilter = func(d telemetry.FilterDecision) {
			audited = append(audited, append([]int{}, d.Kept...))
		}
		res, err := RunVanilla(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ids := range audited {
			if len(ids) != 3 {
				t.Fatalf("audit saw %d contributors, want cohort 3", len(ids))
			}
		}
		return res
	}
	a, b := run(), run()
	if a.TrainerActivations != 3*3 {
		t.Fatalf("TrainerActivations = %d, want 9", a.TrainerActivations)
	}
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatal("vanilla cohort run not deterministic")
	}
	if a.Comm.ModelTransfers != 2*3*3 {
		t.Fatalf("ModelTransfers = %d, want %d", a.Comm.ModelTransfers, 2*3*3)
	}
}
