package telemetry

import (
	"fmt"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
)

// Families selects the optional metric families an engine registers on top
// of the set every engine shares.
type Families uint8

const (
	// FaultFamilies adds the degraded-operation counters
	// abdhfl_{subquorum_aggregations,abandoned_collections,omitted_uploads}_total.
	FaultFamilies Families = 1 << iota
	// CodecFamily adds the abdhfl_codec_compression_ratio gauge.
	CodecFamily
)

// Instruments holds the metric handles every engine shares, registered
// under one engine label: rounds formed, accuracy, consensus exclusions and
// vote tallies, and per-level filter verdict counters. Handles are resolved
// once at startup and backed by atomics, so concurrent actors may record
// through one instance. A nil *Instruments (no registry) disables every
// recording; all methods are nil-receiver-safe.
type Instruments struct {
	rounds    *Counter
	accuracy  *Gauge
	excluded  *Counter
	votes     *Histogram
	subquorum *Counter
	abandoned *Counter
	omitted   *Counter
	ratio     *Gauge
	// kept/clipped/discarded are indexed by tree level (0 = top).
	kept, clipped, discarded []*Counter
}

// NewInstruments registers the shared families plus the optional ones in
// fams under the given engine label, with per-level filter counters for
// levels [0, levels). It returns nil on a nil registry.
func NewInstruments(reg *Registry, engine string, levels int, fams Families) *Instruments {
	if reg == nil {
		return nil
	}
	label := func(name string) string {
		return fmt.Sprintf(`%s{engine=%q}`, name, engine)
	}
	ins := &Instruments{
		rounds:   reg.Counter(label("abdhfl_rounds_total")),
		accuracy: reg.Gauge(label("abdhfl_accuracy")),
		excluded: reg.Counter(label("abdhfl_consensus_excluded_total")),
		votes:    reg.Histogram(label("abdhfl_consensus_votes"), LinearBuckets(0, 1, 17)),
	}
	if fams&FaultFamilies != 0 {
		ins.subquorum = reg.Counter(label("abdhfl_subquorum_aggregations_total"))
		ins.abandoned = reg.Counter(label("abdhfl_abandoned_collections_total"))
		ins.omitted = reg.Counter(label("abdhfl_omitted_uploads_total"))
	}
	if fams&CodecFamily != 0 {
		ins.ratio = reg.Gauge(label("abdhfl_codec_compression_ratio"))
	}
	for lvl := 0; lvl < levels; lvl++ {
		suffix := fmt.Sprintf(`{engine=%q,level="%d"}`, engine, lvl)
		ins.kept = append(ins.kept, reg.Counter("abdhfl_filter_kept_total"+suffix))
		ins.clipped = append(ins.clipped, reg.Counter("abdhfl_filter_clipped_total"+suffix))
		ins.discarded = append(ins.discarded, reg.Counter("abdhfl_filter_discarded_total"+suffix))
	}
	return ins
}

// RoundFormed records one completed (global) round.
func (ins *Instruments) RoundFormed() {
	if ins != nil {
		ins.rounds.Inc()
	}
}

// SetAccuracy publishes the latest evaluated test accuracy.
func (ins *Instruments) SetAccuracy(acc float64) {
	if ins != nil {
		ins.accuracy.Set(acc)
	}
}

// SubQuorum records one aggregation closed below quorum by a timeout.
func (ins *Instruments) SubQuorum() {
	if ins != nil {
		ins.subquorum.Inc()
	}
}

// Abandoned records one collection given up with zero inputs after the
// timeout-with-backoff retries expired.
func (ins *Instruments) Abandoned() {
	if ins != nil {
		ins.abandoned.Inc()
	}
}

// Omitted records one upload withheld by an omission-Byzantine device.
func (ins *Instruments) Omitted() {
	if ins != nil {
		ins.omitted.Inc()
	}
}

// CodecInfo publishes the codec's compression ratio (raw float64 bytes over
// wire bytes at model dimension dim); a nil codec leaves the gauge at zero.
func (ins *Instruments) CodecInfo(c codec.Codec, dim int) {
	if ins == nil || c == nil || dim == 0 {
		return
	}
	ins.ratio.Set(float64(8*dim) / float64(c.WireBytes(dim)))
}

// filterCounts adds one aggregation's verdict tallies to the level's
// counters (levels beyond the registered range are dropped, which cannot
// happen for tree-derived levels).
func (ins *Instruments) filterCounts(level, kept, clipped, discarded int) {
	if ins == nil || level >= len(ins.kept) {
		return
	}
	ins.kept[level].Add(int64(kept))
	ins.clipped[level].Add(int64(clipped))
	ins.discarded[level].Add(int64(discarded))
}

// consensus records a consensus step's exclusion count and vote tallies.
func (ins *Instruments) consensus(excluded, votes []int) {
	if ins == nil {
		return
	}
	ins.excluded.Add(int64(len(excluded)))
	for _, v := range votes {
		ins.votes.Observe(float64(v))
	}
}

// FilterEmitter turns aggregate.FilterAudit reports and consensus verdicts
// into per-level filter counters and FilterDecision callbacks. It owns the
// FilterAudit it attaches to an aggregation Scratch and the id slices
// handed to the callback, all reused across emissions, so emitting
// allocates nothing in the steady state. One emitter serves one actor: the
// audit and id slices are not safe for concurrent use, while the
// Instruments it feeds are. A nil *FilterEmitter is a valid "auditing off"
// emitter: its Scratch keeps a nil Audit and the rules skip recording.
type FilterEmitter struct {
	ins      *Instruments
	onFilter func(FilterDecision)
	engine   string
	audit    aggregate.FilterAudit
	kept     []int
	clipped  []int
	disc     []int
}

// NewFilterEmitter returns an emitter feeding ins and onFilter (either may
// be nil) with decisions labelled engine.
func NewFilterEmitter(ins *Instruments, onFilter func(FilterDecision), engine string) *FilterEmitter {
	return &FilterEmitter{ins: ins, onFilter: onFilter, engine: engine}
}

// Attach points the scratch's audit slot at the emitter's report buffer,
// turning on per-rule decision recording.
func (f *FilterEmitter) Attach(s *aggregate.Scratch) {
	if f != nil {
		s.Audit = &f.audit
	}
}

// publish pushes the current kept/clipped/discarded id sets to the counters
// and the callback.
func (f *FilterEmitter) publish(level, cluster, round int, rule string) {
	f.ins.filterCounts(level, len(f.kept), len(f.clipped), len(f.disc))
	if f.onFilter != nil {
		f.onFilter(FilterDecision{
			Engine:    f.engine,
			Level:     level,
			Cluster:   cluster,
			Round:     round,
			Rule:      rule,
			Kept:      f.kept,
			Clipped:   f.clipped,
			Discarded: f.disc,
		})
	}
}

// EmitAudit publishes the attached audit's verdict for the aggregation that
// just ran. ids[i] is update i's contributor id (device id at the bottom
// level, child-cluster leader id above); nil ids means positions are ids.
func (f *FilterEmitter) EmitAudit(level, cluster, round int, ids []int) {
	if f == nil {
		return
	}
	f.kept, f.clipped, f.disc = f.kept[:0], f.clipped[:0], f.disc[:0]
	for i, d := range f.audit.Decisions {
		id := i
		if ids != nil {
			id = ids[i]
		}
		switch d {
		case aggregate.DecisionKept:
			f.kept = append(f.kept, id)
		case aggregate.DecisionClipped:
			f.clipped = append(f.clipped, id)
		default:
			f.disc = append(f.disc, id)
		}
	}
	f.publish(level, cluster, round, f.audit.Rule)
}

// EmitConsensus publishes a consensus step's verdict: ids[i] is proposal
// i's contributor id, excluded the sorted positions of the excluded
// proposals (discarded contributors; the rest are kept) and votes the
// per-proposal upvote tallies — consensus.Stats.Excluded and .Votes. The
// sorted order lets a two-pointer sweep split the membership.
func (f *FilterEmitter) EmitConsensus(level, cluster, round int, ids []int, rule string, excluded, votes []int) {
	if f == nil {
		return
	}
	f.kept, f.clipped, f.disc = f.kept[:0], f.clipped[:0], f.disc[:0]
	ei := 0
	for i, id := range ids {
		if ei < len(excluded) && excluded[ei] == i {
			f.disc = append(f.disc, id)
			ei++
		} else {
			f.kept = append(f.kept, id)
		}
	}
	f.ins.consensus(excluded, votes)
	f.publish(level, cluster, round, rule)
}

// VerdictCounts reports the last emitted verdict's tallies: contributions
// that made it into the result (kept + clipped) and those filtered out.
func (f *FilterEmitter) VerdictCounts() (kept, filtered int) {
	if f == nil {
		return 0, 0
	}
	return len(f.kept) + len(f.clipped), len(f.disc)
}
