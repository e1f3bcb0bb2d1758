package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"abdhfl"
	"abdhfl/internal/codec"
	"abdhfl/internal/core"
	"abdhfl/internal/experiments"
	"abdhfl/internal/fault"
	"abdhfl/internal/node"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/transport"
)

// workload is one named set of inputs. setup builds the inputs from the
// seed (timed, several times); run executes one closed-loop operation: a
// whole learning run, or one scale simulation.
type workload interface {
	setup(seed uint64) (setupS []float64, err error)
	run(traced bool) (*opResult, error)
	// check validates an operation against the reference (first) one.
	check(ref, got *opResult) error
}

// opResult is what one operation produced and how long it took.
type opResult struct {
	digest  string // SHA-256 of the final model (or of the deterministic scale result)
	finite  bool
	curve   []core.RoundStat
	comm    core.CommStats
	frames  map[uint8]int64 // node: Send calls per frame kind
	stalls  int
	rounds  int
	roundMS []float64
	wallS   float64 // the run call, timed from outside
	setupS  float64 // scale: the call's wall time minus its event loop
	// deviceRounds counts trained (or, on scale, simulated) device-rounds.
	deviceRounds float64
	accuracy     float64 // final_accuracy
	wirePerRound float64
	// frameOps and frameErrs count frames sent and send/decode errors.
	frameOps, frameErrs int64
	layers              map[string]float64 // traced operations only
}

// Each input set's set-up is repeated at least minSetupReps times and for
// at least minSetupTime (at most maxSetupReps times); the median over all
// repetitions is setup_s.
const (
	minSetupReps = 3
	maxSetupReps = 50
	minSetupTime = 250 * time.Millisecond
)

func digestParams(p []float64) (string, bool) {
	h := sha256.New()
	var b [8]byte
	finite := len(p) > 0
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)), finite
}

// buildReps builds the scenario repeatedly, each time from a freshly
// collected heap, and returns the last materials with the wall time of
// every build.
func buildReps(s abdhfl.Scenario) (*abdhfl.Materials, []float64, error) {
	var m *abdhfl.Materials
	var times []float64
	for spent := 0.0; len(times) < maxSetupReps && (len(times) < minSetupReps || spent < minSetupTime.Seconds()); {
		m = nil
		runtime.GC()
		t := now()
		var err error
		if m, err = abdhfl.Build(s); err != nil {
			return nil, nil, err
		}
		times = append(times, now().since(t).Seconds())
		spent += times[len(times)-1]
	}
	return m, times, nil
}

// memDelta reads the Go runtime's allocation and GC counters around a run.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *memDelta) into(l map[string]float64, rounds int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	l["go.alloc_mb_per_round"] = float64(after.TotalAlloc-d.before.TotalAlloc) / (1 << 20) / float64(rounds)
	l["go.gc_cycles_per_round"] = float64(after.NumGC-d.before.NumGC) / float64(rounds)
	l["go.gc_pause_ms"] = float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
}

func sameCurveComm(ref, got *opResult) error {
	if !reflect.DeepEqual(ref.curve, got.curve) {
		return fmt.Errorf("accuracy curve differs from the reference run")
	}
	if ref.comm != got.comm {
		return fmt.Errorf("communication stats %+v differ from the reference %+v", got.comm, ref.comm)
	}
	return nil
}

// coreWorkload runs the in-process round engine (core.RunHFL) through
// abdhfl.Materials. Its scenario must use a BRA partial rule and a CBA top.
type coreWorkload struct {
	scenario func(seed uint64) abdhfl.Scenario
	floor    float64 // final accuracy every run must reach

	m       *abdhfl.Materials
	seed    uint64
	partial core.LevelRule
	global  core.LevelRule
	cdc     codec.Codec
}

func (w *coreWorkload) setup(seed uint64) ([]float64, error) {
	s := w.scenario(seed).WithDefaults()
	m, times, err := buildReps(s)
	if err != nil {
		return nil, err
	}
	if m.PartialRule.BRA == nil || m.GlobalRule.CBA == nil {
		return nil, fmt.Errorf("core workload needs a BRA partial rule and a CBA top")
	}
	w.m, w.seed, w.partial, w.global, w.cdc = m, s.Seed, m.PartialRule, m.GlobalRule, m.Codec
	return times, nil
}

func (w *coreWorkload) run(traced bool) (*opResult, error) {
	m := w.m
	clock := newRoundClock()
	top := observedProtocol{Protocol: w.global.CBA, clock: clock}
	m.PartialRule, m.GlobalRule = w.partial, core.LevelRule{CBA: top}
	m.Codec, m.Telemetry, m.OnFilter = w.cdc, nil, nil

	var (
		phase               = &phaseClock{}
		agg, cons, enc, dec = &calls{}, &calls{}, &calls{}, &calls{}
		cstats              = &consensusStats{}
		rawBytes, encBytes  atomic.Int64
		kept, filtered      int
		mem                 *memDelta
	)
	if traced {
		m.PartialRule = core.LevelRule{BRA: timedAggregator{Aggregator: w.partial.BRA, calls: agg, phase: phase}}
		top.phase, top.calls, top.stats = phase, cons, cstats
		m.GlobalRule = core.LevelRule{CBA: top}
		if m.Codec != nil {
			m.Codec = timedCodec{Codec: m.Codec, enc: enc, dec: dec, rawBytes: &rawBytes, encBytes: &encBytes, phase: phase}
		}
		m.Telemetry = telemetry.New()
		m.OnFilter = func(d telemetry.FilterDecision) {
			if d.Level > 0 {
				kept += len(d.Kept)
				filtered += len(d.Clipped) + len(d.Discarded)
			}
		}
		mem = startMem()
	}

	clock.start = now()
	res, err := m.RunHFL(w.seed)
	wall := now().since(clock.start).Seconds()
	if err != nil {
		return nil, err
	}
	rounds := m.Scenario.Rounds
	op := &opResult{
		curve:        res.Curve,
		comm:         res.Comm,
		rounds:       rounds,
		roundMS:      clock.roundsMS(),
		wallS:        wall,
		deviceRounds: float64(res.TrainerActivations),
		accuracy:     res.FinalAccuracy,
	}
	op.digest, op.finite = digestParams(res.FinalParams)
	op.wirePerRound = float64(res.Comm.WireBytes) / float64(rounds)
	if m.Codec == nil {
		// Without a codec the engine ships raw float64 vectors.
		op.wirePerRound = float64(res.Comm.ModelTransfers*8*len(res.FinalParams)) / float64(rounds)
	}
	if !traced {
		return op, nil
	}

	l := map[string]float64{}
	mem.into(l, rounds)
	r := float64(rounds)
	phaseS := func(p string) float64 {
		return m.Telemetry.Histogram(fmt.Sprintf(`abdhfl_phase_seconds{engine="hfl",phase=%q}`, p), nil).Sum()
	}
	l["nn.train_ms_per_round"] = (phaseS("train") - float64(phase.trainCodec.Load())/1e9) * 1e3 / r
	l["nn.trainer_activations"] = float64(res.TrainerActivations)
	l["core.aggregate_phase_ms_per_round"] = phaseS("aggregate") * 1e3 / r
	l["core.eval_ms_per_round"] = phaseS("eval") * 1e3 / r
	aggregateLayer(l, agg, r)
	l["aggregate.kept_ratio"] = ratio(float64(kept), float64(kept+filtered))
	l["consensus.ms_per_round"] = cons.total.Seconds() * 1e3 / r
	l["consensus.excluded_per_round"] = float64(cstats.excluded) / r
	l["consensus.coin_rounds"] = float64(cstats.coinRounds) / r
	l["consensus.messages_per_round"] = float64(cstats.messages) / r
	l["consensus.errors"] = float64(cons.errs)
	codecLayer(l, enc, dec, rawBytes.Load(), encBytes.Load(), r)
	op.layers = l
	return op, nil
}

func (w *coreWorkload) check(ref, got *opResult) error {
	if err := sameCurveComm(ref, got); err != nil {
		return err
	}
	if got.accuracy < w.floor {
		return fmt.Errorf("final accuracy %.4f below the floor %.2f", got.accuracy, w.floor)
	}
	return nil
}

func aggregateLayer(l map[string]float64, agg *calls, rounds float64) {
	l["aggregate.calls_per_round"] = float64(len(agg.us)) / rounds
	l["aggregate.ms_per_round"] = agg.total.Seconds() * 1e3 / rounds
	l["aggregate.call_us_p50"] = median(agg.us)
	l["aggregate.call_us_tail"], _ = tail(agg.us)
	l["aggregate.errors"] = float64(agg.errs)
}

func codecLayer(l map[string]float64, enc, dec *calls, raw, encoded int64, rounds float64) {
	l["codec.encode_us_p50"] = median(enc.us)
	l["codec.decode_us_p50"] = median(dec.us)
	l["codec.ms_per_round"] = (enc.total + dec.total).Seconds() * 1e3 / rounds
	l["codec.bytes_per_round"] = float64(encoded) / rounds
	l["codec.compression_ratio"] = ratio(float64(raw), float64(encoded))
	l["codec.errors"] = float64(enc.errs + dec.errs)
}

// nodeWorkload runs the distributed engine: one internal/node engine per
// tree position plus the root, each on its own goroutine and its own
// endpoint of an in-process transport.Loopback wire, built the way
// node.RunCluster builds them but with the endpoints decorated.
type nodeWorkload struct {
	scenario func(seed uint64) abdhfl.Scenario
	planFor  func(seed uint64) *fault.Plan
	floor    float64

	m       *abdhfl.Materials
	seed    uint64
	partial core.LevelRule
	cdc     codec.Codec
	plan    *fault.Plan
	// want is core.RunHFL on the same materials: the root's result must
	// equal it bit for bit.
	want *opResult
}

func (w *nodeWorkload) setup(seed uint64) ([]float64, error) {
	s := w.scenario(seed).WithDefaults()
	m, times, err := buildReps(s)
	if err != nil {
		return nil, err
	}
	w.m, w.seed, w.partial, w.cdc, w.plan = m, s.Seed, m.PartialRule, m.Codec, w.planFor(seed)
	res, err := m.RunHFL(w.seed)
	if err != nil {
		return nil, fmt.Errorf("reference core.RunHFL: %w", err)
	}
	w.want = &opResult{curve: res.Curve, comm: res.Comm}
	w.want.digest, _ = digestParams(res.FinalParams)
	return times, nil
}

func (w *nodeWorkload) run(traced bool) (*opResult, error) {
	m := w.m
	m.PartialRule, m.Codec = w.partial, w.cdc
	var (
		agg, enc, dec      = &calls{}, &calls{}, &calls{}
		sends              *calls // nil: untraced endpoints only count frames
		rawBytes, encBytes atomic.Int64
		mem                *memDelta
	)
	if traced {
		sends = &calls{}
		// The top-level consensus stays undecorated: the engine recognises
		// the ABA protocol by its concrete type to run the proposal/ballot
		// exchange, and a wrapper would silently skip it. Agreement is
		// timed from the root's frames instead.
		m.PartialRule = core.LevelRule{BRA: timedAggregator{Aggregator: w.partial.BRA, calls: agg}}
		if m.Codec != nil {
			m.Codec = timedCodec{Codec: m.Codec, enc: enc, dec: dec, rawBytes: &rawBytes, encBytes: &encBytes}
		}
		mem = startMem()
	}

	tree := m.Tree
	n := tree.NumDevices() + 1
	lb := transport.NewLoopback()
	raw := make([]transport.Endpoint, 0, n)
	closeAll := func() error {
		var first error
		for _, ep := range raw {
			if err := ep.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	frames := &frameCounts{}
	root := newRootFrames()
	engines := make([]*node.Engine, n)
	for id := 0; id < n; id++ {
		ep, err := lb.Attach(transport.Config{Self: transport.NodeID(id), Plan: w.plan, FaultKinds: node.FaultableKinds()})
		if err != nil {
			closeAll()
			return nil, err
		}
		raw = append(raw, ep)
		obs := observedEndpoint{Endpoint: ep, frames: frames, sends: sends}
		if id == n-1 {
			obs.root = root
		}
		eng, err := node.New(node.Config{Materials: m, Seed: w.seed, ID: transport.NodeID(id), Endpoint: obs, Plan: w.plan})
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
		engines[id] = eng
	}

	results := make([]*node.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	root.clock.start = now()
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = engines[id].Run()
		}(id)
	}
	wg.Wait()
	wall := now().since(root.clock.start).Seconds()
	// Endpoints close only after every engine finished: a node done with
	// its rounds may still owe relay traffic to a slower subtree.
	closeErr := closeAll()
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
	}
	if closeErr != nil {
		return nil, closeErr
	}

	var wire transport.StatsSnapshot
	for _, ep := range raw {
		wire.Add(ep.Stats())
	}
	res := results[n-1]
	rounds := m.Scenario.Rounds
	op := &opResult{
		curve:        res.Curve,
		comm:         res.Comm,
		frames:       frames.snapshot(),
		rounds:       rounds,
		roundMS:      root.clock.roundsMS(),
		wallS:        wall,
		deviceRounds: float64(res.TrainerActivations),
		accuracy:     res.FinalAccuracy,
		wirePerRound: float64(wire.BytesSent) / float64(rounds),
		frameOps:     wire.FramesSent,
		frameErrs:    wire.SendErrors + wire.DecodeErrors,
	}
	op.digest, op.finite = digestParams(res.FinalParams)
	for id, r := range results {
		op.stalls += r.Stalls
		if d, _ := digestParams(r.FinalParams); d != op.digest {
			return nil, fmt.Errorf("node %d final model differs from the root's", id)
		}
	}
	if !traced {
		return op, nil
	}

	l := map[string]float64{}
	mem.into(l, rounds)
	r := float64(rounds)
	l["nn.trainer_activations"] = float64(res.TrainerActivations)
	aggregateLayer(l, agg, r)
	kept, filtered := 0, 0
	for _, a := range res.Audit {
		if a.Level > 0 {
			kept += len(a.Kept)
			filtered += len(a.Clipped) + len(a.Discarded)
		}
	}
	l["aggregate.kept_ratio"] = ratio(float64(kept), float64(kept+filtered))
	l["consensus.excluded_per_round"] = float64(res.ExcludedByConsensus) / r
	codecLayer(l, enc, dec, rawBytes.Load(), encBytes.Load(), r)
	l["transport.send_us_p50"] = median(sends.us)
	l["transport.send_ms_per_round"] = sends.total.Seconds() * 1e3 / r
	l["transport.frames_per_round"] = float64(wire.FramesSent) / r
	l["transport.bytes_per_round"] = float64(wire.BytesSent) / r
	l["transport.dupes_suppressed"] = float64(wire.DupesSuppressed)
	l["transport.delivered_ratio"] = ratio(float64(wire.FramesDelivered), float64(wire.FramesSent))
	l["transport.send_errors"] = float64(wire.SendErrors + int64(sends.errs))
	l["transport.decode_errors"] = float64(wire.DecodeErrors)
	l["node.stalls"] = float64(op.stalls)
	l["node.agree_ms_per_round"] = ratio(sum(root.agreeMS), float64(len(root.agreeMS)))
	op.layers = l
	return op, nil
}

func (w *nodeWorkload) check(ref, got *opResult) error {
	if got.digest != w.want.digest {
		return fmt.Errorf("root final model differs from core.RunHFL on the same materials")
	}
	if err := sameCurveComm(w.want, got); err != nil {
		return err
	}
	if !reflect.DeepEqual(ref.frames, got.frames) {
		return fmt.Errorf("frames per kind %v differ from the reference run %v", got.frames, ref.frames)
	}
	if got.frames[node.KindProposal] == 0 || got.frames[node.KindBallot] == 0 {
		return fmt.Errorf("no proposal/ballot exchange on the wire: %v", got.frames)
	}
	if got.stalls != 0 {
		return fmt.Errorf("%d stalls under a plan without drops", got.stalls)
	}
	if got.accuracy < w.floor {
		return fmt.Errorf("final accuracy %.4f below the floor %.2f", got.accuracy, w.floor)
	}
	return nil
}

// scaleWorkload runs experiments.RunScale: the sharded simnet event engine
// over a synthetic population with lazy device state.
type scaleWorkload struct {
	opts    func(seed uint64) experiments.ScaleOptions
	ceiling float64 // RelErr every run must stay under

	o experiments.ScaleOptions
}

func (w *scaleWorkload) setup(seed uint64) ([]float64, error) {
	w.o = w.opts(seed)
	return nil, nil
}

func (w *scaleWorkload) run(traced bool) (*opResult, error) {
	o := w.o
	var mem *memDelta
	if traced {
		o.Telemetry = telemetry.New()
		mem = startMem()
	}
	t := now()
	res, err := experiments.RunScale(o)
	end := now()
	wall := end.since(t)
	if err != nil {
		return nil, err
	}
	rounds := res.Options.Rounds
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v|%d|%d|%d|%+v|%+v|%+v|%+v", res.Row(), res.Levels, res.Events, res.Activations,
		res.BuffersAllocated, res.Net, res.SigmaW, res.SigmaP, res.SigmaG)
	op := &opResult{
		digest:  hex.EncodeToString(h.Sum(nil)),
		finite:  !math.IsNaN(res.RelErr) && !math.IsInf(res.RelErr, 0),
		rounds:  rounds,
		roundMS: []float64{wall.Seconds() * 1e3 / float64(rounds)},
		wallS:   wall.Seconds(),
		// Elapsed is the engine's own wall clock, so set-up is the raw
		// wall time minus it, steal included.
		setupS:       (end.t.Sub(t.t) - res.Elapsed).Seconds(),
		deviceRounds: float64(res.Devices) * float64(rounds),
		// The synthetic model has no test set; its quality is how close the
		// final global model lands to the ground-truth gradient.
		accuracy: 1 - res.RelErr,
		// Volume counts float64 coordinates sent across the simulated wire.
		wirePerRound: float64(8*res.Net.Volume) / float64(rounds),
	}
	if !traced {
		return op, nil
	}
	l := map[string]float64{}
	mem.into(l, rounds)
	l["nn.trainer_activations"] = float64(res.Activations)
	l["simnet.loop_s"] = res.Elapsed.Seconds()
	l["simnet.events"] = float64(res.Events)
	l["simnet.events_per_s"] = float64(res.Events) / res.Elapsed.Seconds()
	l["simnet.peak_queue"] = float64(res.Net.PeakQueue)
	l["experiments.buffers_allocated"] = float64(res.BuffersAllocated)
	l["experiments.global_rel_err"] = res.RelErr
	op.layers = l
	return op, nil
}

func (w *scaleWorkload) check(ref, got *opResult) error {
	if rel := 1 - got.accuracy; rel > w.ceiling {
		return fmt.Errorf("global relative error %.4f above the ceiling %.2f", rel, w.ceiling)
	}
	return nil
}
