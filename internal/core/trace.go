package core

import (
	"abdhfl/internal/codec"
	"abdhfl/internal/trace"
)

// coreTracer emits causal spans for the logically-synchronous engines
// (hfl, vanilla). These engines have no virtual clock, so spans sit
// on a deterministic logical clock of unit-width windows: each round r
// occupies [base, base+3+B) where B is the tree's bottom level —
//
//	[base,       base+1)   training (all train spans share the window)
//	[base+1+k,   base+2+k) aggregation of level B-k, k = 0..B-1
//	[base+1+B,   base+2+B) global formation
//	[base+2+B,   base+3+B) evaluation
//
// — so exporter output orders causally and Perfetto renders the hierarchy,
// while staying byte-identical for every worker count (all emission happens
// on the round loop's goroutine, in device/cluster order).
//
// Parent links follow the consumer convention of internal/trace: train
// spans feed their bottom cluster's aggregate span, each level's aggregate
// feeds its parent cluster's (level 1 feeds the global span), and the
// global span feeds the round span. The core engines move models by
// function call, so there are no msg spans here — the pipeline engine
// covers the hop level.
//
// A nil *coreTracer (tracing off) makes every method a no-op.
type coreTracer struct {
	tr     *trace.Tracer
	bottom int   // tree bottom level; 0 for the flat engines
	bytes  int64 // wire size of one model transfer
	clock  float64
	base   float64
}

// wireBytesOf is the per-transfer wire charge spans report: codec wire
// bytes when a codec is set, the raw element count otherwise (matching the
// engines' volume accounting).
func wireBytesOf(c codec.Codec, dim int) int64 {
	if c == nil {
		return int64(dim)
	}
	return int64(c.WireBytes(dim))
}

func newCoreTracer(tr *trace.Tracer, bottom int, bytes int64) *coreTracer {
	if tr == nil {
		return nil
	}
	return &coreTracer{tr: tr, bottom: bottom, bytes: bytes}
}

func (ct *coreTracer) beginRound(round int) {
	if ct != nil {
		ct.base = ct.clock
	}
}

// train emits device dev's train span; cluster is its bottom cluster index.
func (ct *coreTracer) train(round, dev, cluster int) {
	if ct == nil {
		return
	}
	parent := trace.SpanID("global", round)
	if ct.bottom >= 1 {
		parent = trace.SpanID("aggregate", round, ct.bottom, cluster)
	}
	ct.tr.Record(trace.Span{
		ID:      trace.SpanID("train", round, dev),
		Parent:  parent,
		Name:    "train",
		Start:   ct.base,
		End:     ct.base + 1,
		Round:   round,
		Level:   ct.bottom,
		Cluster: cluster,
		Device:  dev,
		From:    -1,
		To:      -1,
	})
}

// aggregate emits the partial aggregation span of cluster ci at level lvl;
// parentCi is its parent cluster's index at lvl-1 (ignored for lvl <= 1,
// whose consumer is the global span).
func (ct *coreTracer) aggregate(round, lvl, ci, parentCi int, rule string, kept, filtered int) {
	if ct == nil {
		return
	}
	parent := trace.SpanID("global", round)
	if lvl > 1 {
		parent = trace.SpanID("aggregate", round, lvl-1, parentCi)
	}
	start := ct.base + 1 + float64(ct.bottom-lvl)
	ct.tr.Record(trace.Span{
		ID:       trace.SpanID("aggregate", round, lvl, ci),
		Parent:   parent,
		Name:     "aggregate",
		Start:    start,
		End:      start + 1,
		Round:    round,
		Level:    lvl,
		Cluster:  ci,
		Device:   -1,
		From:     -1,
		To:       -1,
		Rule:     rule,
		Bytes:    ct.bytes,
		Kept:     kept,
		Filtered: filtered,
	})
}

// global emits the round's global-formation span.
func (ct *coreTracer) global(round int, rule string, kept, filtered int) {
	if ct == nil {
		return
	}
	start := ct.base + 1 + float64(ct.bottom)
	ct.tr.Record(trace.Span{
		ID:       trace.SpanID("global", round),
		Parent:   trace.SpanID("round", round),
		Name:     "global",
		Start:    start,
		End:      start + 1,
		Round:    round,
		Level:    0,
		Cluster:  0,
		Device:   -1,
		From:     -1,
		To:       -1,
		Rule:     rule,
		Bytes:    ct.bytes,
		Kept:     kept,
		Filtered: filtered,
	})
}

// eval emits the round's evaluation phase span (only on evaluated rounds).
func (ct *coreTracer) eval(round int) {
	if ct == nil {
		return
	}
	start := ct.base + 2 + float64(ct.bottom)
	ct.tr.Record(trace.Span{
		ID:      trace.SpanID("phase-eval", round),
		Parent:  trace.SpanID("round", round),
		Name:    "phase-eval",
		Start:   start,
		End:     start + 1,
		Round:   round,
		Level:   -1,
		Cluster: -1,
		Device:  -1,
		From:    -1,
		To:      -1,
	})
}

// endRound emits the round's phase envelopes and the round span, then
// advances the logical clock to the next round's base.
func (ct *coreTracer) endRound(round int) {
	if ct == nil {
		return
	}
	end := ct.base + 3 + float64(ct.bottom)
	ct.tr.Record(trace.Span{
		ID:      trace.SpanID("phase-train", round),
		Parent:  trace.SpanID("round", round),
		Name:    "phase-train",
		Start:   ct.base,
		End:     ct.base + 1,
		Round:   round,
		Level:   -1,
		Cluster: -1,
		Device:  -1,
		From:    -1,
		To:      -1,
	})
	ct.tr.Record(trace.Span{
		ID:      trace.SpanID("phase-aggregate", round),
		Parent:  trace.SpanID("round", round),
		Name:    "phase-aggregate",
		Start:   ct.base + 1,
		End:     ct.base + 2 + float64(ct.bottom),
		Round:   round,
		Level:   -1,
		Cluster: -1,
		Device:  -1,
		From:    -1,
		To:      -1,
	})
	ct.tr.Record(trace.Span{
		ID:      trace.SpanID("round", round),
		Name:    "round",
		Start:   ct.base,
		End:     end,
		Round:   round,
		Level:   -1,
		Cluster: -1,
		Device:  -1,
		From:    -1,
		To:      -1,
	})
	ct.clock = end
}
