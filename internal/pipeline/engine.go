package pipeline

import (
	"fmt"
	"math"
	"sort"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
	"abdhfl/internal/trace"
)

// Message payloads exchanged between actors.
type (
	msgLocal struct { // device -> bottom cluster leader
		round  int
		params tensor.Vector
		dev    int
	}
	msgPartial struct { // cluster leader -> parent leader / top
		round  int
		params tensor.Vector
		child  int // sender's cluster index at its level
	}
	msgFlag struct { // flag-level cluster -> descendants
		round   int // the round this flag model STARTS (paper's r+1)
		params  tensor.Vector
		relSize float64
	}
	msgGlobal struct { // top -> everyone
		round    int
		params   tensor.Vector
		formedAt simnet.Time
	}
)

// TraceRound implements trace.RoundCarrier so simulator traces stamp message
// events with their protocol round.
func (m msgLocal) TraceRound() int   { return m.round }
func (m msgPartial) TraceRound() int { return m.round }
func (m msgFlag) TraceRound() int    { return m.round }
func (m msgGlobal) TraceRound() int  { return m.round }

// engine wires the actors together and accumulates statistics.
type engine struct {
	cfg   Config
	tree  *topology.Tree
	sim   *simnet.Sim
	root  *rng.RNG
	sizes []int

	deviceLeader []simnet.NodeID // device id -> bottom cluster actor id
	clusterNode  [][]simnet.NodeID

	// Per-bottom-cluster timing observations, keyed by round.
	firstArrival  []map[int]simnet.Time
	flagArrival   []map[int]simnet.Time
	globalArrival []map[int]simnet.Time
	// Top observations.
	firstPartial map[int]simnet.Time
	globalReady  map[int]simnet.Time

	result    *Result
	evalModel *nn.Model
	evalPool  *nn.EvalPool
	workers   int
	// aggScratch is shared by every cluster- and top-level aggregation: the
	// simulation is single-threaded (discrete events run one at a time), so
	// one warm scratch serves all actors without contention. Destination
	// vectors stay fresh per aggregation because message envelopes retain
	// them.
	aggScratch *aggregate.Scratch
	// shared/ins are the run's telemetry handles (the families every engine
	// shares, then the pipeline's own) and fe its filter-audit emitter; all
	// are nil (and every call a no-op) when Config.Telemetry, OnFilter and
	// Trace are unset. The single-threaded event loop lets one emitter serve
	// all actors.
	shared   *telemetry.Instruments
	ins      *instruments
	fe       *telemetry.FilterEmitter
	quorumOf func(size int) int
	alpha    AlphaPolicy
	done     bool
	// plan is the run's fault plan (nil-safe: every query on a nil plan
	// reports "no fault"). faulty gates the extra liveness machinery —
	// flag-armed deadlines — that only faulted runs need.
	plan    *fault.Plan
	faulty  bool
	backoff float64
	retries int
	// cs is the engine's codec scratch (single-threaded event loop, so one
	// serves every actor); lastRef is the last formed — and decoded — global
	// model, the Delta reference every non-device hop uses. codecErr latches
	// the first transcode failure; the run is failed with it after the drain
	// (actor callbacks have no error return path).
	cs       *codec.Scratch
	lastRef  tensor.Vector
	codecErr error
	// tr is the optional causal span tracer (nil disables emission
	// entirely — every trace* helper returns immediately). deviceCluster
	// maps device id -> bottom cluster index and roundStart records each
	// round's earliest device training start, both only for span attrs.
	tr            *trace.Tracer
	deviceCluster []int
	roundStart    map[int]simnet.Time
}

// Hop indices of the per-hop wire-byte counters.
const (
	hopUplink = iota // device -> bottom cluster leader
	hopPartial       // cluster leader -> parent / top
	hopFlag          // flag-model dissemination downwards
	hopGlobal        // global-model dissemination downwards
	numHops
)

var hopNames = [numHops]string{"uplink", "partial", "flag", "global"}

// transcodeHop passes a freshly formed model vector through the configured
// codec (encode→decode in place) with ref as the Delta reference both
// endpoints hold. Forwarded copies of the same vector re-ship the same bytes
// and must NOT call this again — charge them with volume only.
func (e *engine) transcodeHop(v, ref tensor.Vector) {
	if e.cfg.Codec == nil {
		return
	}
	e.cs.Ref = ref
	if _, err := codec.Transcode(e.cfg.Codec, v, e.cs); err != nil && e.codecErr == nil {
		e.codecErr = fmt.Errorf("pipeline: codec %s: %w", e.cfg.Codec.Name(), err)
	}
}

// volume returns the link charge for one model transfer — wire bytes under a
// codec, the raw element count without one — and accounts it per hop.
func (e *engine) volume(hop, dim int) int64 {
	if e.cfg.Codec == nil {
		return int64(dim)
	}
	n := int64(e.cfg.Codec.WireBytes(dim))
	e.result.WireBytes += n
	e.ins.wireHop(hop, n)
	return n
}

// subQuorum records one degraded aggregation (timeout closed a round below
// quorum).
func (e *engine) subQuorum() {
	e.result.SubQuorum++
	e.shared.SubQuorum()
}

// abandoned records one collection given up with zero inputs.
func (e *engine) abandoned() {
	e.result.Abandoned++
	e.shared.Abandoned()
}

func (e *engine) nodeOfCluster(l, i int) simnet.NodeID { return e.clusterNode[l][i] }

// trainDuration returns the virtual training time of device id for round r.
func (e *engine) trainDuration(id, round int) simnet.Time {
	t := e.cfg.Timing.TrainBase
	if j := e.cfg.Timing.TrainJitter; j > 0 {
		t *= 1 + j*e.root.Derive(fmt.Sprintf("tdur-%d-%d", id, round)).Float64()
	}
	return simnet.Time(t)
}

// aggDuration returns the virtual aggregation time of a cluster at level l
// for round r (the paper's τ'); the top level adds GlobalExtra.
func (e *engine) aggDuration(l, i, round int) simnet.Time {
	t := e.cfg.Timing.AggBase
	if j := e.cfg.Timing.AggJitter; j > 0 {
		t *= 1 + j*e.root.Derive(fmt.Sprintf("adur-%d-%d-%d", l, i, round)).Float64()
	}
	if l == 0 {
		t += e.cfg.Timing.GlobalExtra
	}
	return simnet.Time(t)
}

// deviceActor trains locally, uploads, and merges stale globals (Alg. 2).
type deviceActor struct {
	e           *engine
	id          int
	relSize     float64
	training    bool
	curRound    int
	trainStart  simnet.Time
	stashedFlag *msgFlag
	pending     []msgGlobal
	seenGlobal  map[int]bool
	model       *nn.Model
	ws          *nn.Workspace
}

func (d *deviceActor) OnMessage(ctx *simnet.Context, msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case msgFlag:
		if m.round >= d.e.cfg.Rounds || d.e.plan.DeviceDown(d.id, m.round) {
			return
		}
		if d.training {
			if d.stashedFlag == nil || m.round > d.stashedFlag.round {
				mm := m
				d.stashedFlag = &mm
			}
			return
		}
		if m.round > d.curRound {
			d.start(ctx, m.round, m.params, m.relSize)
		}
	case msgGlobal:
		// Stale global: merged into the in-progress local model at training
		// completion (Alg. 2 line 16-18). A down device processes nothing, and
		// a duplicated delivery must not be merged twice — Eq. (1)'s merge is
		// once per formed global.
		if d.e.plan.DeviceDown(d.id, m.round) || d.seenGlobal[m.round] {
			return
		}
		d.seenGlobal[m.round] = true
		d.pending = append(d.pending, m)
	}
}

func (d *deviceActor) start(ctx *simnet.Context, round int, params tensor.Vector, relSize float64) {
	if d.e.plan.DeviceDown(d.id, round) {
		// Crash (fail-stop) or churn interval: the round is skipped. Churned
		// devices resume at the next flag model after their interval ends.
		return
	}
	d.training = true
	d.curRound = round
	d.relSize = relSize
	if d.e.tr != nil {
		d.trainStart = ctx.Now()
		if _, ok := d.e.roundStart[round]; !ok {
			d.e.roundStart[round] = ctx.Now()
		}
	}
	startParams := params.Clone()
	dur := d.e.trainDuration(d.id, round)
	ctx.After(dur, func(ctx *simnet.Context) { d.finish(ctx, round, startParams) })
}

func (d *deviceActor) finish(ctx *simnet.Context, round int, startParams tensor.Vector) {
	e := d.e
	d.model.SetParams(startParams)
	// The SGD stream is derived exactly as in the synchronous core engine
	// (root -> "round-R" -> "device-D"), so a zero-latency, zero-fault
	// pipeline run is bit-identical to core.RunHFL on the same seed.
	r := e.root.Derive(fmt.Sprintf("round-%d", round)).Derive(fmt.Sprintf("device-%d", d.id))
	nn.SGDWS(d.model, d.ws, e.cfg.ClientData[d.id], e.cfg.Local, r)
	// The update is sent as a message and retained by collectors, so it must
	// be a fresh vector (no buffer reuse here, unlike the round engine).
	out := d.model.Params()
	// Correction-factor merges for globals that arrived during training.
	for _, g := range d.pending {
		if e.cfg.FlagLevel == 0 && g.round < round {
			// With ℓF = 0 the flag model IS the global model, so a global
			// formed before this round's flag is already this round's start
			// parameters; merging it again would just drag the trained model
			// back toward its own starting point.
			continue
		}
		staleness := float64(ctx.Now() - g.formedAt)
		alpha := e.alpha.Alpha(staleness, d.relSize)
		tensor.Lerp(out, out, g.params, alpha)
		e.result.MergedGlobals++
		e.ins.mergedGlobal(staleness)
	}
	d.pending = d.pending[:0]
	d.training = false
	e.traceTrain(d.id, round, d.trainStart, ctx.Now())
	if e.plan.OmitUpload(d.id, round) {
		// Omission-Byzantine: train, receive, but silently withhold the
		// upload. The leader's quorum/timeout machinery must absorb it.
		e.result.Omitted++
		e.shared.Omitted()
	} else {
		// Uplink codec hop: the round's start parameters are the Delta
		// reference (the leader disseminated them, so both ends hold them).
		e.transcodeHop(out, startParams)
		ctx.SendVolume(e.deviceLeader[d.id], msgLocal{round: round, params: out, dev: d.id}, e.volume(hopUplink, len(out)))
	}
	if d.stashedFlag != nil {
		f := *d.stashedFlag
		d.stashedFlag = nil
		if f.round > round {
			d.start(ctx, f.round, f.params, f.relSize)
		}
	}
}

// clusterActor is the leader A_{l,i} of an intermediate (or bottom) cluster:
// collect a quorum, aggregate, forward upwards; at the flag level it also
// releases the flag model downwards (Alg. 3-5).
type clusterActor struct {
	e         *engine
	cluster   *topology.Cluster
	parent    simnet.NodeID
	children  []simnet.NodeID // child cluster actors, or member devices at the bottom
	collected map[int][]tensor.Vector
	// collectedIDs tracks, in lockstep with collected, each input's
	// contributor id (device id at the bottom, child-cluster leader id
	// above) so filter audits can name who was kept or discarded. Only
	// maintained when the engine has a filter emitter.
	collectedIDs map[int][]int
	// seen deduplicates contributions per round: the fault layer can
	// duplicate messages, and a duplicated upload must never count twice
	// toward the quorum.
	seen   map[int]map[int]bool
	closed map[int]bool
	// armed tracks rounds whose collect deadline is already scheduled.
	armed    map[int]bool
	isBottom bool
}

// failed reports whether this cluster's leader is fault-planned down for
// round: it then neither collects nor forwards anything.
func (a *clusterActor) failed(round int) bool {
	return a.e.plan.LeaderFailed(a.cluster.Level, a.cluster.Index, round)
}

func (a *clusterActor) OnMessage(ctx *simnet.Context, msg simnet.Message) {
	e := a.e
	switch m := msg.Payload.(type) {
	case msgLocal:
		if a.failed(m.round) {
			return
		}
		a.receive(ctx, m.round, m.params, m.dev, msg.SentAt, -1)
	case msgPartial:
		if a.failed(m.round) {
			return
		}
		a.receive(ctx, m.round, m.params, e.tree.Clusters[a.cluster.Level+1][m.child].Leader, msg.SentAt, m.child)
	case msgFlag:
		if a.failed(m.round) {
			return
		}
		// Cascade the flag model downwards (Alg. 5).
		if a.isBottom {
			bi := a.cluster.Index
			if _, ok := e.flagArrival[bi][m.round]; !ok {
				e.flagArrival[bi][m.round] = ctx.Now()
			}
		}
		for _, ch := range a.children {
			ctx.SendVolume(ch, m, e.volume(hopFlag, len(m.params)))
		}
		// A forwarded flag is proof that round m.round is starting below:
		// under faults, arm the collect deadline now so the round cannot
		// stall even if every upload is lost.
		a.armCollect(ctx, m.round, 0)
	case msgGlobal:
		if a.failed(m.round) {
			return
		}
		if a.isBottom {
			bi := a.cluster.Index
			if _, ok := e.globalArrival[bi][m.round]; !ok {
				e.globalArrival[bi][m.round] = ctx.Now()
			}
		}
		for _, ch := range a.children {
			ctx.SendVolume(ch, m, e.volume(hopGlobal, len(m.params)))
		}
	}
}

// armCollect schedules attempt's collect deadline for round (faulted runs
// only; fault-free runs keep the seed's first-arrival arming). Every empty
// expiry re-arms with the deadline multiplied by the backoff until the
// retry budget is spent, after which the round is abandoned.
func (a *clusterActor) armCollect(ctx *simnet.Context, round, attempt int) {
	e := a.e
	if !e.faulty || e.cfg.CollectTimeout <= 0 || round >= e.cfg.Rounds {
		return
	}
	if attempt == 0 {
		if a.armed[round] || a.closed[round] {
			return
		}
		a.armed[round] = true
	}
	d := e.cfg.CollectTimeout * math.Pow(e.backoff, float64(attempt))
	ctx.After(simnet.Time(d), func(ctx *simnet.Context) { a.collectDeadline(ctx, round, attempt) })
}

// collectDeadline is the timeout branch of Algorithm 4 with backoff: a
// deadline firing with a non-empty sub-quorum set aggregates it (degraded
// operation); an empty one re-arms, then abandons.
func (a *clusterActor) collectDeadline(ctx *simnet.Context, round, attempt int) {
	e := a.e
	if a.closed[round] {
		return
	}
	if n := len(a.collected[round]); n > 0 {
		if n < e.quorumOf(a.cluster.Size()) {
			e.subQuorum()
		}
		a.aggregateRound(ctx, round)
		return
	}
	if attempt+1 < e.retries {
		a.armCollect(ctx, round, attempt+1)
		return
	}
	a.closed[round] = true
	e.abandoned()
}

// receive counts one contribution: a device upload (child < 0, from is the
// device id) or a child cluster's partial (child is its index at the level
// below). sentAt is the hop's send time, kept only for span emission.
func (a *clusterActor) receive(ctx *simnet.Context, round int, params tensor.Vector, from int, sentAt simnet.Time, child int) {
	e := a.e
	if a.closed[round] || round >= e.cfg.Rounds {
		return
	}
	if a.seen[round][from] {
		return // duplicate delivery of an already-counted contribution
	}
	if a.seen[round] == nil {
		a.seen[round] = map[int]bool{}
	}
	a.seen[round][from] = true
	if child < 0 {
		e.traceUplink(from, round, a.cluster.Level, a.cluster.Index, sentAt, ctx.Now(), len(params))
	} else {
		e.tracePartial(a.cluster.Level+1, child, round, a.cluster.Level, a.cluster.Index, sentAt, ctx.Now(), len(params))
	}
	if a.isBottom {
		bi := a.cluster.Index
		if _, ok := e.firstArrival[bi][round]; !ok {
			e.firstArrival[bi][round] = ctx.Now()
		}
	}
	first := len(a.collected[round]) == 0
	a.collected[round] = append(a.collected[round], params)
	if e.fe != nil {
		a.collectedIDs[round] = append(a.collectedIDs[round], from)
	}
	if first && e.cfg.CollectTimeout > 0 && !e.faulty {
		// Algorithm 4's "until M >= φ*C or Timeout": arm the semi-synchronous
		// deadline at the first arrival for this round. (Faulted runs arm at
		// flag forwarding instead, see armCollect.)
		ctx.After(simnet.Time(e.cfg.CollectTimeout), func(ctx *simnet.Context) {
			if !a.closed[round] && len(a.collected[round]) > 0 {
				if len(a.collected[round]) < e.quorumOf(a.cluster.Size()) {
					e.subQuorum()
				}
				a.aggregateRound(ctx, round)
			}
		})
	}
	if first {
		a.armCollect(ctx, round, 0)
	}
	if len(a.collected[round]) < e.quorumOf(a.cluster.Size()) {
		return
	}
	a.aggregateRound(ctx, round)
}

// aggregateRound closes the round's collection and aggregates whatever
// arrived (quorum reached or timeout fired).
func (a *clusterActor) aggregateRound(ctx *simnet.Context, round int) {
	e := a.e
	a.closed[round] = true
	vecs := a.collected[round]
	ids := a.collectedIDs[round]
	delete(a.collected, round)
	delete(a.collectedIDs, round)
	delete(a.seen, round)
	closeAt := ctx.Now()
	dur := e.aggDuration(a.cluster.Level, a.cluster.Index, round)
	ctx.After(dur, func(ctx *simnet.Context) {
		if a.failed(round) {
			return
		}
		agg := tensor.NewVector(len(vecs[0]))
		if err := e.cfg.PartialBRA.AggregateInto(agg, e.aggScratch, vecs); err != nil {
			// A malformed quorum at runtime: drop the round for this cluster.
			return
		}
		e.fe.EmitAudit(a.cluster.Level, a.cluster.Index, round, ids)
		e.traceAggregate(a.cluster.Level, a.cluster.Index, round, closeAt, ctx.Now(), e.cfg.PartialBRA.Name())
		// One codec hop per formed partial: the upward send and the flag
		// release below ship the same encoded bytes.
		e.transcodeHop(agg, e.lastRef)
		ctx.SendVolume(a.parent, msgPartial{round: round, params: agg, child: a.cluster.Index}, e.volume(hopPartial, len(agg)))
		if a.cluster.Level == e.cfg.FlagLevel {
			flag := msgFlag{round: round + 1, params: agg, relSize: a.relSize()}
			for _, ch := range a.children {
				ctx.SendVolume(ch, flag, e.volume(hopFlag, len(agg)))
			}
			a.armCollect(ctx, round+1, 0)
		}
	})
}

// relSize is the fraction of all devices under this cluster.
func (a *clusterActor) relSize() float64 {
	leaves := len(a.e.tree.LeafDescendants(a.cluster.Level, a.cluster.Index))
	return float64(leaves) / float64(a.e.tree.NumDevices())
}

// topActor forms the global model (Alg. 6) and disseminates it.
type topActor struct {
	e         *engine
	collected map[int][]tensor.Vector
	// collectedIDs tracks each partial's contributor (its level-1 cluster
	// leader id), in lockstep with collected; see clusterActor.collectedIDs.
	collectedIDs map[int][]int
	// seen deduplicates per-round contributions by level-1 cluster index
	// (the fault layer can duplicate partials in flight).
	seen      map[int]map[int]bool
	closed    map[int]bool
	armed     map[int]bool
	children  []simnet.NodeID
	completed int
}

func (t *topActor) OnMessage(ctx *simnet.Context, msg simnet.Message) {
	m, ok := msg.Payload.(msgPartial)
	if !ok {
		return
	}
	e := t.e
	if t.closed[m.round] || m.round >= e.cfg.Rounds {
		return
	}
	if t.seen[m.round][m.child] {
		return
	}
	if t.seen[m.round] == nil {
		t.seen[m.round] = map[int]bool{}
	}
	t.seen[m.round][m.child] = true
	if _, seen := e.firstPartial[m.round]; !seen {
		e.firstPartial[m.round] = ctx.Now()
	}
	e.tracePartial(1, m.child, m.round, -1, 0, msg.SentAt, ctx.Now(), len(m.params))
	t.collected[m.round] = append(t.collected[m.round], m.params)
	if e.fe != nil {
		t.collectedIDs[m.round] = append(t.collectedIDs[m.round], e.tree.Clusters[1][m.child].Leader)
	}
	t.armCollect(ctx, m.round, 0)
	if len(t.collected[m.round]) < e.quorumOf(e.tree.Top().Size()) {
		return
	}
	t.closeRound(ctx, m.round)
}

// closeRound seals the round's collection and schedules global aggregation
// over whatever was collected.
func (t *topActor) closeRound(ctx *simnet.Context, round int) {
	e := t.e
	t.closed[round] = true
	vecs := t.collected[round]
	ids := t.collectedIDs[round]
	delete(t.collected, round)
	delete(t.collectedIDs, round)
	delete(t.seen, round)
	dur := e.aggDuration(0, 0, round)
	ctx.After(dur, func(ctx *simnet.Context) { t.formGlobal(ctx, round, vecs, ids) })
}

// armCollect mirrors clusterActor.armCollect for the top level: under
// faults, the global round's deadline is armed as soon as the previous
// global forms (or at the first partial's arrival), backs off while empty,
// and finally abandons the round so the run drains instead of hanging.
func (t *topActor) armCollect(ctx *simnet.Context, round, attempt int) {
	e := t.e
	if !e.faulty || e.cfg.CollectTimeout <= 0 || round >= e.cfg.Rounds {
		return
	}
	if attempt == 0 {
		if t.armed[round] || t.closed[round] {
			return
		}
		t.armed[round] = true
	}
	d := e.cfg.CollectTimeout * math.Pow(e.backoff, float64(attempt))
	ctx.After(simnet.Time(d), func(ctx *simnet.Context) {
		if t.closed[round] {
			return
		}
		if n := len(t.collected[round]); n > 0 {
			if n < e.quorumOf(e.tree.Top().Size()) {
				e.subQuorum()
			}
			t.closeRound(ctx, round)
			return
		}
		if attempt+1 < e.retries {
			t.armCollect(ctx, round, attempt+1)
			return
		}
		t.closed[round] = true
		e.abandoned()
	})
}

func (t *topActor) formGlobal(ctx *simnet.Context, round int, vecs []tensor.Vector, ids []int) {
	e := t.e
	var global tensor.Vector
	var err error
	kept, filtered := len(vecs), 0
	rule := ""
	proto := e.cfg.TopCBA
	if proto == nil && e.cfg.TopVoting != nil {
		proto = *e.cfg.TopVoting
	}
	if proto != nil {
		cctx := &consensus.Context{
			Members:   len(vecs),
			Validator: e.shardValidator(),
			Rand:      e.root.Derive(fmt.Sprintf("vote-%d", round)),
			Workers:   e.workers,
			Round:     round,
		}
		var st consensus.Stats
		global, st, err = proto.Agree(cctx, vecs)
		if err == nil {
			rule = proto.Name()
			kept, filtered = len(vecs)-len(st.Excluded), len(st.Excluded)
			e.fe.EmitConsensus(0, 0, round, ids, proto.Name(), st.Excluded, st.Votes)
		}
	} else {
		global = tensor.NewVector(len(vecs[0]))
		err = e.cfg.TopBRA.AggregateInto(global, e.aggScratch, vecs)
		if err == nil {
			rule = e.cfg.TopBRA.Name()
			e.fe.EmitAudit(0, 0, round, ids)
			kept, filtered = e.fe.VerdictCounts()
		}
	}
	if err != nil {
		return
	}
	e.shared.RoundFormed()
	e.globalReady[round] = ctx.Now()
	e.traceGlobal(round, kept, filtered, ctx.Now(), rule, len(global))
	// Dissemination codec hop: encoded against the previous global, then the
	// decoded result becomes the reference for everything formed after it.
	e.transcodeHop(global, e.lastRef)
	e.lastRef = global
	e.result.FinalParams = global
	e.evaluate(round, ctx.Now(), global)
	gm := msgGlobal{round: round, params: global, formedAt: ctx.Now()}
	for _, ch := range t.children {
		ctx.SendVolume(ch, gm, e.volume(hopGlobal, len(global)))
	}
	if e.cfg.FlagLevel == 0 {
		flag := msgFlag{round: round + 1, params: global, relSize: 1}
		for _, ch := range t.children {
			ctx.SendVolume(ch, flag, e.volume(hopFlag, len(global)))
		}
	}
	t.completed++
	// A formed global proves round+1 is about to start below: arm its
	// top-level deadline now so a fully-starved next round still resolves.
	t.armCollect(ctx, round+1, 0)
	if t.completed >= e.cfg.Rounds {
		e.done = true
		e.result.Duration = ctx.Now()
	}
}

func (e *engine) shardValidator() consensus.Validator {
	shards := e.cfg.ValidationShards
	pool := e.evalPool
	return func(member int, model tensor.Vector) float64 {
		s := pool.Get()
		defer pool.Put(s)
		s.Model.SetParams(model)
		return nn.AccuracyWS(s.Model, s.WS, shards[member%len(shards)])
	}
}

func (e *engine) evaluate(round int, now simnet.Time, global tensor.Vector) {
	every := e.cfg.EvalEvery
	if every <= 0 {
		every = 1
	}
	if (round+1)%every != 0 && round != e.cfg.Rounds-1 {
		return
	}
	e.evalModel.SetParams(global)
	acc := nn.AccuracyWorkers(e.evalModel, e.cfg.TestData, e.workers)
	e.shared.SetAccuracy(acc)
	e.result.Curve = append(e.result.Curve, RoundAccuracy{Round: round + 1, Time: now, Accuracy: acc})
}

// Run executes the asynchronous pipeline workflow and returns accuracy and
// timing results.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Alpha == nil {
		cfg.Alpha = AdaptiveAlpha{}
	}
	if cfg.Latency == nil {
		cfg.Latency = simnet.Fixed(1)
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	root := rng.New(cfg.Seed)
	tree := cfg.Tree
	sim := simnet.New(cfg.Latency, root.Derive("net"))
	sim.Bandwidth = cfg.Bandwidth
	if cfg.Faults.Enabled() {
		sim.Fault = cfg.Faults
	}
	sizes := cfg.modelSizes()
	e := &engine{
		cfg:        cfg,
		tree:       tree,
		sim:        sim,
		root:       root,
		sizes:      sizes,
		result:     &Result{},
		alpha:      cfg.Alpha,
		evalModel:  nn.NewShaped(sizes...),
		evalPool:   nn.NewEvalPool(sizes...),
		workers:    cfg.Workers,
		aggScratch: aggregate.NewScratch(cfg.Workers),
	}
	e.plan = cfg.Faults
	e.faulty = cfg.Faults.Enabled()
	e.backoff = cfg.TimeoutBackoff
	if e.backoff == 0 {
		e.backoff = 2
	}
	e.retries = cfg.TimeoutRetries
	if e.retries == 0 {
		e.retries = 3
	}
	e.shared = telemetry.NewInstruments(cfg.Telemetry, "pipeline", tree.Depth(), telemetry.FaultFamilies|telemetry.CodecFamily)
	e.ins = newInstruments(cfg.Telemetry)
	e.tr = cfg.Trace
	e.roundStart = map[int]simnet.Time{}
	if e.shared != nil || cfg.OnFilter != nil || e.tr != nil {
		// Spans carry kept/filtered counts from the audit too; audit
		// recording observes the rules without changing what they compute.
		e.fe = telemetry.NewFilterEmitter(e.shared, cfg.OnFilter, "pipeline")
		e.fe.Attach(e.aggScratch)
	}
	if cfg.Flight != nil {
		sim.Trace = cfg.Flight.Hook()
	}
	e.cs = codec.NewScratch()
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = 1
	}
	e.quorumOf = func(size int) int {
		n := int(math.Ceil(quorum * float64(size)))
		if n < 1 {
			n = 1
		}
		if n > size {
			n = size
		}
		return n
	}

	// --- Node id allocation.
	devices := tree.NumDevices()
	e.clusterNode = make([][]simnet.NodeID, tree.Depth())
	next := simnet.NodeID(devices)
	for l := range tree.Clusters {
		e.clusterNode[l] = make([]simnet.NodeID, len(tree.Clusters[l]))
		for i := range tree.Clusters[l] {
			e.clusterNode[l][i] = next
			next++
		}
	}
	e.deviceLeader = make([]simnet.NodeID, devices)
	e.deviceCluster = make([]int, devices)
	bottom := tree.Bottom()
	for i, c := range tree.Clusters[bottom] {
		for _, m := range c.Members {
			e.deviceLeader[m] = e.clusterNode[bottom][i]
			e.deviceCluster[m] = i
		}
	}
	nBottom := len(tree.Clusters[bottom])
	e.firstArrival = make([]map[int]simnet.Time, nBottom)
	e.flagArrival = make([]map[int]simnet.Time, nBottom)
	e.globalArrival = make([]map[int]simnet.Time, nBottom)
	for i := 0; i < nBottom; i++ {
		e.firstArrival[i] = map[int]simnet.Time{}
		e.flagArrival[i] = map[int]simnet.Time{}
		e.globalArrival[i] = map[int]simnet.Time{}
	}
	e.firstPartial = map[int]simnet.Time{}
	e.globalReady = map[int]simnet.Time{}

	// --- Register actors.
	init := nn.New(root.Derive("init"), e.sizes...).Params()
	// Everyone bootstraps from the initial model, so it is the first Delta
	// reference; each formed global replaces it.
	e.lastRef = init
	e.shared.CodecInfo(cfg.Codec, len(init))
	devActors := make([]*deviceActor, devices)
	for id := 0; id < devices; id++ {
		m := nn.NewShaped(e.sizes...)
		devActors[id] = &deviceActor{e: e, id: id, curRound: -1, model: m, ws: nn.NewWorkspace(m), seenGlobal: map[int]bool{}}
		if !cfg.Crashed[id] {
			// Crashed devices stay unregistered: the simulator drops their
			// traffic, exactly like a crash-stop node.
			sim.Register(simnet.NodeID(id), devActors[id])
		}
	}
	var topA *topActor
	for l := 0; l < tree.Depth(); l++ {
		for i, c := range tree.Clusters[l] {
			if l == 0 {
				topA = &topActor{
					e:            e,
					collected:    map[int][]tensor.Vector{},
					collectedIDs: map[int][]int{},
					seen:         map[int]map[int]bool{},
					closed:       map[int]bool{},
					armed:        map[int]bool{},
				}
				for _, ch := range tree.ChildClusters(0, 0) {
					topA.children = append(topA.children, e.nodeOfCluster(1, ch.Index))
				}
				sim.Register(e.clusterNode[0][0], topA)
				continue
			}
			a := &clusterActor{
				e:            e,
				cluster:      c,
				collected:    map[int][]tensor.Vector{},
				collectedIDs: map[int][]int{},
				seen:         map[int]map[int]bool{},
				closed:       map[int]bool{},
				armed:        map[int]bool{},
				isBottom:     l == bottom,
			}
			if l == 1 {
				a.parent = e.clusterNode[0][0]
			} else {
				p := tree.Parent(l, i)
				a.parent = e.nodeOfCluster(p.Level, p.Index)
			}
			if l == bottom {
				for _, m := range c.Members {
					a.children = append(a.children, simnet.NodeID(m))
				}
			} else {
				for _, ch := range tree.ChildClusters(l, i) {
					a.children = append(a.children, e.nodeOfCluster(l+1, ch.Index))
				}
			}
			sim.Register(e.clusterNode[l][i], a)
		}
	}

	// --- Bootstrap: every live device receives the initial model as the
	// round-0 flag at t=0. Crashed devices never start (failure injection);
	// a quorum φ < 1 lets their clusters proceed without them.
	for id := 0; id < devices; id++ {
		if cfg.Crashed[id] {
			continue
		}
		id := id
		sim.ScheduleAt(0, simnet.NodeID(id), func(ctx *simnet.Context) {
			devActors[id].start(ctx, 0, init, 1)
		})
	}
	if e.faulty && cfg.CollectTimeout > 0 {
		// Bootstrap the top's round-0 deadline: with every round-0 partial
		// lost, no arrival would ever arm it.
		sim.ScheduleAt(0, e.clusterNode[0][0], func(ctx *simnet.Context) {
			topA.armCollect(ctx, 0, 0)
		})
	}
	if _, err := sim.Run(0); err != nil {
		return nil, err
	}
	if e.codecErr != nil {
		return nil, e.codecErr
	}
	e.result.CompletedRounds = topA.completed
	if !e.done {
		if !e.faulty {
			return nil, fmt.Errorf("pipeline: simulation drained after %d/%d rounds", topA.completed, cfg.Rounds)
		}
		// Degraded operation under injected faults: the plan starved the
		// protocol of its remaining rounds. The run still terminated (no
		// deadlock) and everything completed so far is reported.
		e.result.Duration = sim.Now()
	}
	e.result.Network = sim.Stats()
	e.ins.network(e.result.Network)
	e.computeTimings()
	if n := len(e.result.Curve); n > 0 {
		e.result.FinalAccuracy = e.result.Curve[n-1].Accuracy
	}
	return e.result, nil
}

// computeTimings derives the per-round σ_w, σ_p, σ_g, σ and ν series from
// the recorded observation points, averaged across bottom clusters.
func (e *engine) computeTimings() {
	nBottom := len(e.firstArrival)
	var nuSum float64
	var nuCount int
	for round := 0; round < e.cfg.Rounds-1; round++ {
		var sw, sp, sg, sigma float64
		count := 0
		ready, okReady := e.globalReady[round]
		first, okFirst := e.firstPartial[round]
		if !okReady || !okFirst {
			continue
		}
		sgTop := float64(ready - first)
		for b := 0; b < nBottom; b++ {
			fa, ok1 := e.firstArrival[b][round]
			fl, ok2 := e.flagArrival[b][round+1]
			ga, ok3 := e.globalArrival[b][round]
			if !ok1 || !ok2 || !ok3 {
				continue
			}
			total := float64(ga - fa)
			wait := float64(fl - fa)
			if total <= 0 {
				continue
			}
			if wait > total {
				wait = total
			}
			// The paper's decomposition σ = σ_w + σ_p + σ_g assumes disjoint
			// phases; across clusters the phases can overlap slightly (the
			// top may start collecting before the last flag lands), so the
			// measured top-side σ_g is clipped to the non-waiting residual.
			sgEff := math.Min(sgTop, total-wait)
			p := total - wait - sgEff
			sw += wait
			sp += p
			sg += sgEff
			sigma += total
			count++
		}
		if count == 0 {
			continue
		}
		t := RoundTiming{
			Round:  round,
			SigmaW: sw / float64(count),
			SigmaP: sp / float64(count),
			SigmaG: sg / float64(count),
			Sigma:  sigma / float64(count),
		}
		if t.Sigma > 0 {
			t.Nu = (t.SigmaP + t.SigmaG) / t.Sigma
		}
		e.result.Timings = append(e.result.Timings, t)
		e.ins.roundTiming(t)
		nuSum += t.Nu
		nuCount++
	}
	sort.Slice(e.result.Timings, func(i, j int) bool { return e.result.Timings[i].Round < e.result.Timings[j].Round })
	if nuCount > 0 {
		e.result.MeanNu = nuSum / float64(nuCount)
		e.ins.setMeanNu(e.result.MeanNu)
	}
}
