// Distributed-engine surface: what internal/node uses, beside the engine's
// own exported helpers (ApplyQuorum, ChildClusterIndex, DisseminationCost),
// to run RunHFL's aggregation path verbatim from separate processes. The
// round engine's determinism discipline — every random draw comes from a
// labeled stream derived (not split) from the run seed — means any process
// can reproduce any stream locally; what the node engine additionally needs
// is the private aggregation code (quorum subsampling, cluster/top
// aggregation with filter auditing) applied to the vectors it collected off
// the wire. This surface exposes exactly that, so a distributed run and
// RunHFL produce byte-identical models, σ-accounting, and filter audits for
// the supported configuration subset (no omniscient ModelAttack, no
// RotateLeaders — both need a global view no single process has).
package core

import (
	"abdhfl/internal/aggregate"
	"abdhfl/internal/consensus"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
)

// DrawRoundSkip reproduces the round's non-training set (churn plus cohort
// sampling) exactly as RunHFL draws it. Every process computes the same
// set from the shared config and round stream, which is what lets an
// aggregator know which contributors to expect without any signaling.
func DrawRoundSkip(cfg Config, roundRNG *rng.RNG) map[int]bool {
	return drawSkip(cfg, roundRNG, cfg.Tree, drawOffline(cfg, roundRNG, cfg.Tree.NumDevices()))
}

// WireVerdict is one aggregation step's outcome in exportable form: the
// filter verdict RunHFL's emitter would have published, plus the step's
// communication cost. Slices are owned by the caller (copied out of the
// emitter's reused buffers).
type WireVerdict struct {
	Rule      string
	Kept      []int
	Clipped   []int
	Discarded []int
	Comm      CommStats
	// Excluded counts CBA-excluded proposals (top steps only).
	Excluded int
}

// WireAggregator owns the working memory RunHFL keeps per run — evaluation
// pool, aggregation scratch, filter emitter — and applies the engine's
// private aggregation functions to wire-collected vectors. Not safe for
// concurrent use (one protocol actor drives it, like the round loop).
type WireAggregator struct {
	cfg     *Config
	pool    *nn.EvalPool
	scratch *aggregate.Scratch
	fe      *telemetry.FilterEmitter
	verdict WireVerdict
}

// NewWireAggregator prepares the aggregation state for cfg. Telemetry
// counters register under the "node" engine label; cfg.OnFilter, when set,
// receives every verdict exactly as RunHFL's emitter would deliver it.
func NewWireAggregator(cfg *Config) *WireAggregator {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	w := &WireAggregator{
		cfg:     cfg,
		pool:    nn.NewEvalPool(cfg.ModelSizes()...),
		scratch: aggregate.NewScratch(workers),
	}
	// The emitter must exist even without telemetry or a callback: the
	// verdict capture below is itself an OnFilter consumer.
	w.fe = newFilterEmitter(newInstruments(cfg.Telemetry, "node", len(cfg.Tree.Clusters)), w.capture, false, "node")
	w.fe.Attach(w.scratch)
	return w
}

// capture copies the emitter's reused slices into the pending verdict and
// forwards the decision to the config's OnFilter consumer.
func (w *WireAggregator) capture(d telemetry.FilterDecision) {
	w.verdict.Rule = d.Rule
	w.verdict.Kept = append(w.verdict.Kept[:0], d.Kept...)
	w.verdict.Clipped = append(w.verdict.Clipped[:0], d.Clipped...)
	w.verdict.Discarded = append(w.verdict.Discarded[:0], d.Discarded...)
	if w.cfg.OnFilter != nil {
		w.cfg.OnFilter(d)
	}
}

// takeVerdict returns the captured verdict with fresh slices.
func (w *WireAggregator) takeVerdict(comm CommStats, excluded int) WireVerdict {
	v := WireVerdict{
		Rule:      w.verdict.Rule,
		Kept:      append([]int(nil), w.verdict.Kept...),
		Clipped:   append([]int(nil), w.verdict.Clipped...),
		Discarded: append([]int(nil), w.verdict.Discarded...),
		Comm:      comm,
		Excluded:  excluded,
	}
	return v
}

// AggregateCluster runs one cluster's partial aggregation exactly as
// RunHFL does: vecs/ids must be in cluster member order (already quorum-
// subsampled via ApplyQuorum), dst is the caller-owned destination buffer
// for BRA rules, and roundRNG is the round's derived stream. The returned
// vector is dst for BRA and a fresh vector for CBA.
func (w *WireAggregator) AggregateCluster(roundRNG *rng.RNG, c *topology.Cluster, vecs []tensor.Vector, ids []int, dst tensor.Vector, round int) (tensor.Vector, WireVerdict, error) {
	agg, comm, err := aggregateCluster(*w.cfg, roundRNG, c, vecs, ids, w.pool, dst, w.scratch, w.fe, round)
	if err != nil {
		return nil, WireVerdict{}, err
	}
	return agg, w.takeVerdict(comm, 0), nil
}

// AggregateTopBallots forms the global model exactly as RunHFL does.
// partials is indexed by level-1 cluster (nil for clusters that contributed
// nothing); dst is the BRA destination buffer. ballots, when non-nil,
// injects wire-collected member ballots into the top consensus (the ABA
// ballot exchange): ballots.Rows is indexed by consensus member — the
// contributing level-1 leaders in cluster order — with nil rows for leaders
// whose ballot never arrived. With every row present the result is
// bit-identical to a nil ballots run, because each remote ballot is the same
// bits the root would compute locally (ShardBallot); missing rows consume
// the protocol's fault budget.
func (w *WireAggregator) AggregateTopBallots(roundRNG *rng.RNG, partials []tensor.Vector, dst tensor.Vector, round int, ballots *consensus.BallotSet) (tensor.Vector, WireVerdict, error) {
	agg, comm, excluded, err := aggregateTop(*w.cfg, w.cfg.Tree, roundRNG, partials, w.pool, dst, w.scratch, w.fe, round, ballots)
	if err != nil {
		return nil, WireVerdict{}, err
	}
	return agg, w.takeVerdict(comm, excluded), nil
}

// GlobalNeedsBallots reports whether the configured global rule consumes
// externally collected ballots — i.e. whether the node engine should run
// the proposal/ballot wire exchange before AggregateTopBallots.
func GlobalNeedsBallots(cfg Config) bool {
	if !cfg.Global.IsCBA() {
		return false
	}
	_, ok := cfg.Global.CBA.(consensus.ABA)
	return ok
}

// ShardBallot computes one top-level member's validation-voting ballot over
// the proposals with the engine's shard validator and the global CBA's
// margin — the bits a remote leader ships back during the ABA ballot
// exchange. A leader process calling this for its own member index produces
// exactly the bits the root (or RunHFL) would compute centrally, which is
// what keeps the distributed run byte-identical to the core engine.
func (w *WireAggregator) ShardBallot(member int, proposals []tensor.Vector) []bool {
	ctx := &consensus.Context{
		Members:   len(proposals),
		Validator: shardValidator(*w.cfg, w.pool),
	}
	margin := 0.0
	if aba, ok := w.cfg.Global.CBA.(consensus.ABA); ok {
		margin = aba.Margin
	}
	return consensus.Ballot(ctx, member, margin, proposals)
}
