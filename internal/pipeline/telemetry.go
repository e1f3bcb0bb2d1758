package pipeline

import (
	"fmt"

	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
)

// Indices of the per-round σ histograms (virtual-ms durations of Eq. 3).
const (
	sigmaWait = iota
	sigmaPartial
	sigmaGlobal
	sigmaTotal
	numSigmas
)

var sigmaNames = [numSigmas]string{"wait", "partial", "global", "total"}

// instruments bundles the pipeline-only telemetry handles, resolved once at
// startup; the families every engine shares live in the engine's
// telemetry.Instruments. Unlike the round engines, durations here are
// virtual milliseconds (simulator time), so the histograms use a dedicated
// metric family instead of abdhfl_phase_seconds. A nil *instruments
// disables every recording; all methods are nil-receiver-safe.
type instruments struct {
	merges    *telemetry.Counter
	staleness *telemetry.Histogram
	sigma     [numSigmas]*telemetry.Histogram
	nu        *telemetry.Histogram
	meanNu    *telemetry.Gauge
	// Simulated-network fault and loss counters.
	dropped   *telemetry.Counter
	droppedUn *telemetry.Counter
	dup       *telemetry.Counter
	// Encoded bytes shipped per hop kind.
	wireHops [numHops]*telemetry.Counter
}

func newInstruments(reg *telemetry.Registry) *instruments {
	if reg == nil {
		return nil
	}
	vms := telemetry.ExpBuckets(1, 2, 16) // 1 .. 32768 virtual ms
	ins := &instruments{
		merges:    reg.Counter("abdhfl_pipeline_merged_globals_total"),
		staleness: reg.Histogram("abdhfl_pipeline_staleness_vms", vms),
		nu:        reg.Histogram("abdhfl_pipeline_nu", telemetry.LinearBuckets(0, 0.05, 21)),
		meanNu:    reg.Gauge("abdhfl_pipeline_mean_nu"),
		dropped:   reg.Counter(`abdhfl_simnet_dropped_total{reason="fault"}`),
		droppedUn: reg.Counter(`abdhfl_simnet_dropped_total{reason="unregistered"}`),
		dup:       reg.Counter("abdhfl_simnet_duplicated_total"),
	}
	for h := 0; h < numHops; h++ {
		ins.wireHops[h] = reg.Counter(fmt.Sprintf(`abdhfl_codec_wire_bytes_total{engine="pipeline",hop=%q}`, hopNames[h]))
	}
	for p := 0; p < numSigmas; p++ {
		ins.sigma[p] = reg.Histogram(fmt.Sprintf(`abdhfl_pipeline_sigma_vms{phase=%q}`, sigmaNames[p]), vms)
	}
	return ins
}

// mergedGlobal records one stale-global merge and its staleness (Eq. 1's
// correction-factor application).
func (ins *instruments) mergedGlobal(staleness float64) {
	if ins != nil {
		ins.merges.Inc()
		ins.staleness.Observe(staleness)
	}
}

// roundTiming feeds one derived RoundTiming into the σ and ν histograms.
func (ins *instruments) roundTiming(t RoundTiming) {
	if ins == nil {
		return
	}
	ins.sigma[sigmaWait].Observe(t.SigmaW)
	ins.sigma[sigmaPartial].Observe(t.SigmaP)
	ins.sigma[sigmaGlobal].Observe(t.SigmaG)
	ins.sigma[sigmaTotal].Observe(t.Sigma)
	ins.nu.Observe(t.Nu)
}

// wireHop records one model transfer's encoded bytes on the given hop kind.
func (ins *instruments) wireHop(hop int, n int64) {
	if ins != nil {
		ins.wireHops[hop].Add(n)
	}
}

// network publishes the simulator's end-of-run fault and loss counters.
func (ins *instruments) network(st simnet.Stats) {
	if ins == nil {
		return
	}
	ins.dropped.Add(int64(st.Dropped))
	ins.droppedUn.Add(int64(st.DroppedUnregistered))
	ins.dup.Add(int64(st.Duplicated))
}

func (ins *instruments) setMeanNu(nu float64) {
	if ins != nil {
		ins.meanNu.Set(nu)
	}
}
