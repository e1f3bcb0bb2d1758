package pipeline

import (
	"abdhfl/internal/simnet"
	"abdhfl/internal/trace"
)

// Span emission for the pipeline engine. All emission runs on the
// single-threaded discrete-event dispatch loop, so spans record in program
// order and the tracer's auto-sequence numbers are deterministic — the
// exported stream is byte-identical across worker and shard counts.
//
// Parent links follow the consumer convention of internal/trace: a train
// span feeds its uplink msg span, an uplink feeds its cluster's aggregate
// span, an aggregate feeds the partial msg span it emits, partials feed the
// next aggregation up (the round's global span at the top), and the global
// span's parent is the round span. Every ID is a trace.SpanID hash of those
// structural coordinates, so both endpoints of a hop name the same span
// without coordination — including consumers that are recorded later, or
// never (a timed-out collection leaves its inputs' spans dangling, which is
// exactly what happened).

// wireOf returns the codec wire size of one model transfer without touching
// the per-hop accounting (volume() owns that).
func (e *engine) wireOf(dim int) int64 {
	if e.cfg.Codec == nil {
		return int64(dim)
	}
	return int64(e.cfg.Codec.WireBytes(dim))
}

// traceTrain emits a device's train span for the round it just finished.
func (e *engine) traceTrain(dev, round int, start, end simnet.Time) {
	if e.tr == nil {
		return
	}
	e.tr.Record(trace.Span{
		ID:      trace.SpanID("train", round, dev),
		Parent:  trace.SpanID("umsg", round, dev),
		Name:    "train",
		Start:   float64(start),
		End:     float64(end),
		Round:   round,
		Level:   e.tree.Bottom(),
		Cluster: e.deviceCluster[dev],
		Device:  dev,
		From:    -1,
		To:      -1,
	})
}

// traceUplink emits the device->leader hop span for a counted upload.
func (e *engine) traceUplink(dev, round, level, cluster int, sentAt, at simnet.Time, dim int) {
	if e.tr == nil {
		return
	}
	e.tr.Record(trace.Span{
		ID:      trace.SpanID("umsg", round, dev),
		Parent:  trace.SpanID("aggregate", round, level, cluster),
		Name:    "msg",
		Start:   float64(sentAt),
		End:     float64(at),
		Round:   round,
		Level:   level,
		Cluster: cluster,
		Device:  dev,
		From:    dev,
		To:      int(e.clusterNode[level][cluster]),
		Bytes:   e.wireOf(dim),
		Detail:  "uplink",
	})
}

// tracePartial emits the child-cluster->parent hop span for a counted
// partial model. child is the sender's cluster index at level childLevel;
// (level, cluster) identify the consuming aggregation — level -1 means the
// top (the round's global span).
func (e *engine) tracePartial(childLevel, child, round, level, cluster int, sentAt, at simnet.Time, dim int) {
	if e.tr == nil {
		return
	}
	parent := trace.SpanID("global", round)
	to := int(e.clusterNode[0][0])
	if level >= 0 {
		parent = trace.SpanID("aggregate", round, level, cluster)
		to = int(e.clusterNode[level][cluster])
	}
	e.tr.Record(trace.Span{
		ID:      trace.SpanID("pmsg", round, childLevel, child),
		Parent:  parent,
		Name:    "msg",
		Start:   float64(sentAt),
		End:     float64(at),
		Round:   round,
		Level:   childLevel,
		Cluster: child,
		Device:  -1,
		From:    int(e.clusterNode[childLevel][child]),
		To:      to,
		Bytes:   e.wireOf(dim),
		Detail:  "partial",
	})
}

// traceAggregate emits a cluster aggregation span: collection closed at
// closeAt, the aggregate formed (after τ') at end. The kept/filtered counts
// are the verdict the filter emitter just published.
func (e *engine) traceAggregate(level, cluster, round int, closeAt, end simnet.Time, rule string) {
	if e.tr == nil {
		return
	}
	kept, filtered := e.fe.VerdictCounts()
	e.tr.Record(trace.Span{
		ID:       trace.SpanID("aggregate", round, level, cluster),
		Parent:   trace.SpanID("pmsg", round, level, cluster),
		Name:     "aggregate",
		Start:    float64(closeAt),
		End:      float64(end),
		Round:    round,
		Level:    level,
		Cluster:  cluster,
		Device:   -1,
		From:     -1,
		To:       -1,
		Rule:     rule,
		Kept:     kept,
		Filtered: filtered,
	})
}

// traceGlobal emits the round's global-formation span plus the enclosing
// round span (first device start -> global formed).
func (e *engine) traceGlobal(round, kept, filtered int, end simnet.Time, rule string, dim int) {
	if e.tr == nil {
		return
	}
	start := e.firstPartial[round]
	e.tr.Record(trace.Span{
		ID:       trace.SpanID("global", round),
		Parent:   trace.SpanID("round", round),
		Name:     "global",
		Start:    float64(start),
		End:      float64(end),
		Round:    round,
		Level:    0,
		Cluster:  0,
		Device:   -1,
		From:     -1,
		To:       -1,
		Rule:     rule,
		Bytes:    e.wireOf(dim),
		Kept:     kept,
		Filtered: filtered,
	})
	rs, ok := e.roundStart[round]
	if !ok {
		rs = start
	}
	e.tr.Record(trace.Span{
		ID:      trace.SpanID("round", round),
		Name:    "round",
		Start:   float64(rs),
		End:     float64(end),
		Round:   round,
		Level:   -1,
		Cluster: -1,
		Device:  -1,
		From:    -1,
		To:      -1,
	})
}
