package core

import (
	"fmt"
	"time"

	"abdhfl/internal/telemetry"
)

// Phase indices of the per-round timing histograms.
const (
	phaseTrain = iota
	phaseAggregate
	phaseEval
	numPhases
)

var phaseNames = [numPhases]string{"train", "aggregate", "eval"}

// instruments bundles one engine run's telemetry handles, resolved once at
// startup so the per-event cost is a single atomic operation: the families
// every engine shares plus the round engines' own phase timings, loss and
// communication counters. A nil *instruments (no registry configured)
// disables every recording; all methods are nil-receiver-safe.
type instruments struct {
	shared    *telemetry.Instruments
	roundDur  *telemetry.Histogram
	phases    [numPhases]*telemetry.Histogram
	loss      *telemetry.Gauge
	transfers *telemetry.Counter
	scalars   *telemetry.Counter
	wireBytes *telemetry.Counter
}

// newInstruments registers the engine's metric families under the given
// engine label, with per-level filter counters for levels [0, levels).
func newInstruments(reg *telemetry.Registry, engine string, levels int) *instruments {
	if reg == nil {
		return nil
	}
	label := func(name string) string {
		return fmt.Sprintf(`%s{engine=%q}`, name, engine)
	}
	ins := &instruments{
		shared:    telemetry.NewInstruments(reg, engine, levels, telemetry.CodecFamily),
		roundDur:  reg.Histogram(label("abdhfl_round_seconds"), nil),
		loss:      reg.Gauge(label("abdhfl_loss")),
		transfers: reg.Counter(label("abdhfl_comm_model_transfers_total")),
		scalars:   reg.Counter(label("abdhfl_comm_scalar_messages_total")),
		wireBytes: reg.Counter(label("abdhfl_codec_wire_bytes_total")),
	}
	for p := 0; p < numPhases; p++ {
		ins.phases[p] = reg.Histogram(
			fmt.Sprintf(`abdhfl_phase_seconds{engine=%q,phase=%q}`, engine, phaseNames[p]), nil)
	}
	return ins
}

// common returns the shared handles (nil when telemetry is off).
func (ins *instruments) common() *telemetry.Instruments {
	if ins == nil {
		return nil
	}
	return ins.shared
}

// enabled reports whether recording (and its time.Now calls) should run.
func (ins *instruments) enabled() bool { return ins != nil }

func (ins *instruments) observePhase(p int, d time.Duration) {
	if ins != nil {
		ins.phases[p].Observe(d.Seconds())
	}
}

// roundDone records one completed round and its communication delta.
func (ins *instruments) roundDone(d time.Duration, delta CommStats) {
	if ins == nil {
		return
	}
	ins.shared.RoundFormed()
	ins.roundDur.Observe(d.Seconds())
	ins.transfers.Add(int64(delta.ModelTransfers))
	ins.scalars.Add(int64(delta.ScalarMessages))
	ins.wireBytes.Add(delta.WireBytes)
}

func (ins *instruments) evalDone(acc, loss float64) {
	if ins != nil {
		ins.shared.SetAccuracy(acc)
		ins.loss.Set(loss)
	}
}

// newFilterEmitter returns the run's filter emitter, or nil when neither
// telemetry, an OnFilter consumer nor span tracing wants verdicts. Spans
// carry kept/filtered counts, which come from the filter audit, so tracing
// alone still runs an audit-only emitter; auditing observes, never
// changes, what a rule computes.
func newFilterEmitter(ins *instruments, onFilter func(telemetry.FilterDecision), tracing bool, engine string) *telemetry.FilterEmitter {
	if ins == nil && onFilter == nil && !tracing {
		return nil
	}
	return telemetry.NewFilterEmitter(ins.common(), onFilter, engine)
}
