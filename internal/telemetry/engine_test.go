package telemetry

import (
	"reflect"
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/tensor"
)

// TestFilterEmitterVerdicts checks both emission paths: an audited rule's
// decisions mapped onto contributor ids, and a consensus verdict split by
// its sorted exclusion list — each feeding the per-level counters and the
// callback.
func TestFilterEmitterVerdicts(t *testing.T) {
	reg := New()
	ins := NewInstruments(reg, "hfl", 2, 0)
	var got []FilterDecision
	fe := NewFilterEmitter(ins, func(d FilterDecision) {
		d.Kept = append([]int(nil), d.Kept...)
		d.Discarded = append([]int(nil), d.Discarded...)
		d.Clipped = nil
		got = append(got, d)
	}, "hfl")
	s := aggregate.NewScratch(1)
	fe.Attach(s)
	// Multi-Krum with F=1 keeps the three tight updates and discards the
	// outlier.
	updates := []tensor.Vector{{0, 0}, {0.1, 0}, {0, 0.1}, {100, 100}}
	if err := (aggregate.Krum{F: 1}).AggregateInto(tensor.NewVector(2), s, updates); err != nil {
		t.Fatal(err)
	}
	fe.EmitAudit(1, 3, 7, []int{10, 11, 12, 13})
	if kept, filtered := fe.VerdictCounts(); kept != 3 || filtered != 1 {
		t.Fatalf("audit verdict counts = %d/%d, want 3/1", kept, filtered)
	}
	fe.EmitConsensus(0, 0, 7, []int{20, 21, 22}, "cba:voting", []int{1}, []int{3, 0, 2})
	want := []FilterDecision{
		{Engine: "hfl", Level: 1, Cluster: 3, Round: 7, Rule: "multi-krum", Kept: []int{10, 11, 12}, Discarded: []int{13}},
		{Engine: "hfl", Level: 0, Round: 7, Rule: "cba:voting", Kept: []int{20, 22}, Discarded: []int{21}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions = %+v", got)
	}
	snap := reg.Snapshot()
	for name, v := range map[string]int64{
		`abdhfl_filter_kept_total{engine="hfl",level="1"}`:      3,
		`abdhfl_filter_discarded_total{engine="hfl",level="1"}`: 1,
		`abdhfl_filter_kept_total{engine="hfl",level="0"}`:      2,
		`abdhfl_filter_discarded_total{engine="hfl",level="0"}`: 1,
		`abdhfl_consensus_excluded_total{engine="hfl"}`:         1,
	} {
		if snap.Counters[name] != v {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], v)
		}
	}
	if h := snap.Histograms[`abdhfl_consensus_votes{engine="hfl"}`]; h.Count != 3 || h.Sum != 5 {
		t.Errorf("votes histogram = %d samples summing to %v, want 3 / 5", h.Count, h.Sum)
	}
}

// TestFilterEmitterAllocFree pins the steady-state contract the node engine
// relies on (it emits on every aggregation): once the id slices are warm,
// emitting allocates nothing.
func TestFilterEmitterAllocFree(t *testing.T) {
	ins := NewInstruments(New(), "node", 3, FaultFamilies|CodecFamily)
	fe := NewFilterEmitter(ins, func(FilterDecision) {}, "node")
	s := aggregate.NewScratch(1)
	fe.Attach(s)
	updates := []tensor.Vector{{0, 0}, {0.1, 0}, {0, 0.1}, {100, 100}}
	if err := (aggregate.Krum{F: 1}).AggregateInto(tensor.NewVector(2), s, updates); err != nil {
		t.Fatal(err)
	}
	ids := []int{4, 5, 6, 7}
	excluded, votes := []int{3}, []int{4, 4, 3, 0}
	emit := func() {
		fe.EmitAudit(2, 1, 0, ids)
		fe.EmitConsensus(0, 0, 0, ids, "cba:aba", excluded, votes)
	}
	emit()
	if n := testing.AllocsPerRun(100, emit); n != 0 {
		t.Fatalf("emitting allocates %v/op", n)
	}
}
