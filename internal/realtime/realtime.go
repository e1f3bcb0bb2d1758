// Package realtime is the goroutine implementation of ABD-HFL: where
// internal/pipeline simulates the asynchronous protocol on a virtual clock,
// this package actually runs it — one goroutine per device and per cluster
// leader, channels as links, no global synchronisation. It exists to
// demonstrate (and race-test) that the protocol is implementable as written:
// leaders aggregate as soon as a quorum of models arrives, flag models
// release the next round while global aggregation is still in flight, and
// stale globals are merged with the correction factor.
//
// Because goroutine scheduling is real, runs are not bit-reproducible (the
// quorum subset a leader sees first depends on timing); experiments needing
// determinism use the pipeline or core engines.
package realtime

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/dataset"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
	"abdhfl/internal/trace"
)

// Config describes a realtime run. The rule set mirrors pipeline.Config.
type Config struct {
	Tree      *topology.Tree
	Rounds    int
	FlagLevel int
	// Quorum φ: fraction of inputs a leader waits for; zero selects 1.
	Quorum float64
	// CollectTimeout is the leaders' wall-clock deadline per collection: a
	// leader that has waited this long since a round's first arrival (or, at
	// the top, since the round became expected) aggregates what it holds,
	// even below quorum. Zero disables timeouts. Required (>0) whenever
	// Faults can starve a quorum — without it a crashed member would leave
	// its leader waiting forever.
	CollectTimeout time.Duration
	// TimeoutBackoff multiplies the deadline on every empty expiry; zero
	// selects 2.
	TimeoutBackoff float64
	// TimeoutRetries bounds empty re-arms before a round is abandoned; zero
	// selects 3.
	TimeoutRetries int

	// Faults injects the plan's failures: crashed devices stop responding
	// (the goroutine returns without draining its inbox), churned devices sit
	// out their interval, omission-Byzantine devices train but withhold
	// uploads, failed leaders ignore traffic from their failure round on, and
	// Drop applies per-upload via the plan's deterministic per-(seed,label)
	// coin — channels themselves never lose messages. Nil injects nothing.
	Faults *fault.Plan

	Local  nn.TrainConfig
	Hidden []int

	PartialBRA aggregate.Aggregator
	TopVoting  *consensus.Voting
	TopBRA     aggregate.Aggregator
	// TopCBA selects any registered consensus protocol at the top (e.g. the
	// randomized "aba"); it wins over TopVoting when both are set.
	TopCBA consensus.Protocol

	ClientData       []*dataset.Dataset
	TestData         *dataset.Dataset
	ValidationShards []*dataset.Dataset

	// Alpha is the fixed correction factor for stale-global merges; zero
	// selects 0.5.
	Alpha float64
	// TrainDelay, if positive, is slept by each device after its SGD pass —
	// it emulates heavier local compute so the protocol's asynchrony
	// (stale-global merges during training) is actually exercised on fast
	// hardware.
	TrainDelay time.Duration
	Seed       uint64
	// Workers bounds the goroutines each aggregation call may fan out to.
	// Leaders aggregate concurrently with one another, so this is a
	// per-aggregation limit, not a global one; zero selects GOMAXPROCS.
	// Each aggregation's result is bit-identical for every value (what varies
	// between realtime runs is quorum membership, not kernel arithmetic).
	Workers int
	// Telemetry, when non-nil, receives the run's metrics under
	// engine="realtime": global rounds formed, accuracy, stale-global merge
	// counts, consensus vote tallies, and per-level filter
	// kept/clipped/discarded counts. All handles are atomic, so the
	// concurrent leader goroutines feed them without extra locking. Nil
	// disables instrumentation.
	Telemetry *telemetry.Registry
	// Codec, when non-nil, passes every freshly formed model (device upload,
	// partial, global) through one encode→decode hop before it is sent, and
	// tallies wire bytes in Result.WireBytes. Each goroutine owns its scratch,
	// so hops add no synchronisation. The Delta codec's reference is the
	// sender's view of the last global (the round's start model for devices;
	// zero until a leader has forwarded a global).
	Codec codec.Codec
	// Trace, when non-nil, receives causal spans (train, uplink, aggregate,
	// partial, global, round) on a wall-clock-milliseconds engine clock. The
	// tracer is safe for the engine's concurrent goroutines, but — like every
	// other realtime measurement — the recorded stream is not reproducible
	// between runs. Nil disables emission entirely.
	Trace *trace.Tracer
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Tree == nil {
		return errors.New("realtime: Tree is nil")
	}
	if err := c.Tree.Validate(); err != nil {
		return err
	}
	if c.Rounds <= 0 {
		return errors.New("realtime: Rounds must be positive")
	}
	if c.FlagLevel < 0 || c.FlagLevel > c.Tree.Bottom()-1 {
		return fmt.Errorf("realtime: FlagLevel %d out of range", c.FlagLevel)
	}
	if len(c.ClientData) != c.Tree.NumDevices() {
		return fmt.Errorf("realtime: %d shards for %d devices", len(c.ClientData), c.Tree.NumDevices())
	}
	if c.TestData == nil || c.TestData.Len() == 0 {
		return errors.New("realtime: TestData is empty")
	}
	if c.PartialBRA == nil {
		return errors.New("realtime: PartialBRA is nil")
	}
	if c.TopVoting == nil && c.TopBRA == nil && c.TopCBA == nil {
		return errors.New("realtime: set TopBRA, TopVoting, or TopCBA")
	}
	if (c.TopVoting != nil || c.TopCBA != nil) && len(c.ValidationShards) == 0 {
		return errors.New("realtime: top consensus requires ValidationShards")
	}
	if c.Faults.Enabled() && c.CollectTimeout <= 0 {
		// Liveness: channels cannot time out on their own, so every injected
		// fault that can starve a quorum needs the timeout escape hatch.
		return errors.New("realtime: Faults require a positive CollectTimeout")
	}
	if c.TimeoutBackoff != 0 && c.TimeoutBackoff < 1 {
		return fmt.Errorf("realtime: TimeoutBackoff %v below 1", c.TimeoutBackoff)
	}
	if c.TimeoutRetries < 0 {
		return fmt.Errorf("realtime: TimeoutRetries %d negative", c.TimeoutRetries)
	}
	return nil
}

func (c *Config) modelSizes() []int {
	hidden := c.Hidden
	if len(hidden) == 0 {
		hidden = []int{32}
	}
	sizes := []int{dataset.Dim}
	sizes = append(sizes, hidden...)
	return append(sizes, dataset.NumClasses)
}

// Result is the outcome of a realtime run.
type Result struct {
	FinalAccuracy float64
	// RoundAccuracy[r] is the test accuracy of global model r.
	RoundAccuracy []float64
	// WallTime is the real elapsed time of the run.
	WallTime time.Duration
	// Goroutines is the number of worker goroutines that were spawned.
	Goroutines int
	// Merges counts correction-factor applications.
	Merges int
	// CompletedRounds counts global models actually formed; under faults the
	// top may abandon starved rounds instead.
	CompletedRounds int
	// AbandonedRounds counts rounds the top gave up on after its
	// timeout-with-backoff retries expired with zero partials.
	AbandonedRounds int
	// SubQuorum counts aggregations (any level) closed below quorum by a
	// collect timeout.
	SubQuorum int
	// Omitted counts uploads withheld by omission-Byzantine devices.
	Omitted int
	// DroppedSends counts messages suppressed by the plan's transport-drop
	// coin.
	DroppedSends int
	// WireBytes is the total encoded bytes of every codec hop taken (zero
	// without a Codec). Realtime charges the hop where the model is formed,
	// not per forwarded copy — scheduling decides fan-out order, and this
	// engine's numbers are smoke-level, not accounting-grade.
	WireBytes int64
}

// Message kinds flowing through actor inboxes.
type kind int

const (
	kLocal kind = iota
	kPartial
	kFlag
	kGlobal
)

type envelope struct {
	kind   kind
	round  int
	params tensor.Vector
}

// newFilterEmitter gives one aggregating goroutine its own filter emitter
// over the run's shared instruments, attached to that goroutine's scratch
// (leaders run concurrently, so audits are never shared). Spans carry the
// emitted kept/filtered counts, so tracing alone also runs one; it returns
// nil when neither telemetry nor tracing is on.
func newFilterEmitter(ins *telemetry.Instruments, tracing bool, s *aggregate.Scratch) *telemetry.FilterEmitter {
	if ins == nil && !tracing {
		return nil
	}
	fe := telemetry.NewFilterEmitter(ins, nil, "realtime")
	fe.Attach(s)
	return fe
}

// Run executes the protocol with real goroutines and blocks until the last
// global round is formed and all actors have drained.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 0.5
	}
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = 1
	}
	tree := cfg.Tree
	bottom := tree.Bottom()
	sizes := cfg.modelSizes()
	root := rng.New(cfg.Seed)
	initParams := nn.New(root.Derive("init"), sizes...).Params()

	// Inbox channels. Buffers are sized so no send can block forever: each
	// actor receives at most (members * rounds) messages of each kind.
	devices := tree.NumDevices()
	devInbox := make([]chan envelope, devices)
	for i := range devInbox {
		devInbox[i] = make(chan envelope, 4*cfg.Rounds+8)
	}
	clusterInbox := make([][]chan envelope, tree.Depth())
	for l := range clusterInbox {
		clusterInbox[l] = make([]chan envelope, len(tree.Clusters[l]))
		for i, c := range tree.Clusters[l] {
			clusterInbox[l][i] = make(chan envelope, (c.Size()+4)*(cfg.Rounds+2))
		}
	}
	done := make(chan struct{})
	var merges sync.Mutex
	mergeCount := 0
	ins := telemetry.NewInstruments(cfg.Telemetry, "realtime", tree.Depth(), telemetry.FaultFamilies)
	mergeCounter := cfg.Telemetry.Counter("abdhfl_realtime_merged_globals_total")
	rt := newRTTracer(cfg.Trace, tree, cfg.Codec, len(initParams))

	// Fault machinery: the plan's queries are all nil-safe, so actors consult
	// it unconditionally. fstats is shared by every goroutine.
	plan := cfg.Faults
	faulty := plan.Enabled()
	backoff := cfg.TimeoutBackoff
	if backoff == 0 {
		backoff = 2
	}
	retries := cfg.TimeoutRetries
	if retries == 0 {
		retries = 3
	}
	// deadlineAfter is attempt's collect deadline with exponential backoff.
	deadlineAfter := func(attempt int) time.Duration {
		return time.Duration(float64(cfg.CollectTimeout) * math.Pow(backoff, float64(attempt)))
	}
	var fstats struct {
		sync.Mutex
		subQuorum, abandoned, omitted, dropped int
	}
	countSubQuorum := func() {
		fstats.Lock()
		fstats.subQuorum++
		fstats.Unlock()
		ins.SubQuorum()
	}
	countAbandoned := func() {
		fstats.Lock()
		fstats.abandoned++
		fstats.Unlock()
		ins.Abandoned()
	}
	countOmitted := func() {
		fstats.Lock()
		fstats.omitted++
		fstats.Unlock()
		ins.Omitted()
	}
	countDropped := func() {
		fstats.Lock()
		fstats.dropped++
		fstats.Unlock()
	}

	// Codec hops: each goroutine owns its scratch; the wire-byte tally and
	// the first transcode error funnel through one mutex (hops are rare —
	// one per formed model — so contention is negligible).
	var cstats struct {
		sync.Mutex
		wireBytes int64
		err       error
	}
	transcode := func(v, ref tensor.Vector, s *codec.Scratch) {
		if cfg.Codec == nil {
			return
		}
		s.Ref = ref
		n, err := codec.Transcode(cfg.Codec, v, s)
		cstats.Lock()
		if err != nil {
			if cstats.err == nil {
				cstats.err = fmt.Errorf("realtime: codec %s: %w", cfg.Codec.Name(), err)
			}
		} else {
			cstats.wireBytes += int64(n)
		}
		cstats.Unlock()
	}

	result := &Result{RoundAccuracy: make([]float64, cfg.Rounds)}
	var wg sync.WaitGroup
	goroutines := 0

	quorumOf := func(size int) int {
		n := int(quorum*float64(size) + 0.999999)
		if n < 1 {
			n = 1
		}
		if n > size {
			n = size
		}
		return n
	}

	// --- Device goroutines.
	leaderOf := make([]chan envelope, devices)
	for i, c := range tree.Clusters[bottom] {
		for _, m := range c.Members {
			leaderOf[m] = clusterInbox[bottom][i]
		}
	}
	for id := 0; id < devices; id++ {
		id := id
		wg.Add(1)
		goroutines++
		go func() {
			defer wg.Done()
			model := nn.NewShaped(sizes...)
			ws := nn.NewWorkspace(model)
			cs := codec.NewScratch()
			cur := initParams.Clone()
			round := 0
			var stashedFlag *envelope
			countMerge := func() {
				merges.Lock()
				mergeCount++
				merges.Unlock()
				mergeCounter.Inc()
			}
			for round < cfg.Rounds {
				if plan.DeviceCrashed(id, round) {
					// Fail-stop: the goroutine stops responding — no drain, no
					// goodbye. Its leader's quorum/timeout machinery must cope.
					return
				}
				if !plan.DeviceOffline(id, round) {
					// Train the current round.
					var trainStart float64
					if rt != nil {
						trainStart = rt.now()
					}
					model.SetParams(cur)
					nn.SGDWS(model, ws, cfg.ClientData[id], cfg.Local, root.Derive(fmt.Sprintf("sgd-%d-%d", id, round)))
					if cfg.TrainDelay > 0 {
						time.Sleep(cfg.TrainDelay)
					}
					out := model.Params()
					rt.train(id, round, trainStart)
					// Drain the inbox: merge globals that arrived while training
					// (Alg. 2's correction factor), stash flags for the next round.
					drained := false
					for !drained {
						select {
						case env := <-devInbox[id]:
							switch env.kind {
							case kGlobal:
								tensor.Lerp(out, out, env.params, alpha)
								countMerge()
							case kFlag:
								if stashedFlag == nil || env.round > stashedFlag.round {
									env := env
									stashedFlag = &env
								}
							}
						default:
							drained = true
						}
					}
					switch {
					case plan.OmitUpload(id, round):
						// Omission-Byzantine: trained, but the upload is withheld.
						countOmitted()
					case plan.DropSend(fmt.Sprintf("up-%d-%d", id, round)):
						// Transport loss on the upload link.
						countDropped()
					default:
						// Uplink codec hop; the round's start model is the
						// Delta reference both ends hold.
						transcode(out, cur, cs)
						rt.uplink(id, round)
						select {
						case leaderOf[id] <- envelope{kind: kLocal, round: round, params: out}:
						case <-done:
							return
						}
					}
				}
				// Wait for the next flag model (or termination).
				next := round + 1
				if next >= cfg.Rounds {
					return
				}
				if stashedFlag != nil && stashedFlag.round >= next {
					cur = stashedFlag.params.Clone()
					round = stashedFlag.round
					stashedFlag = nil
					continue
				}
				stashedFlag = nil
				waiting := true
				for waiting {
					var env envelope
					select {
					case env = <-devInbox[id]:
					case <-done:
						return
					}
					switch {
					case env.kind == kGlobal:
						// Idle-time global: blend into the next start model.
						tensor.Lerp(cur, cur, env.params, alpha)
						countMerge()
					case env.kind == kFlag && env.round >= next:
						cur = env.params.Clone()
						round = env.round
						waiting = false
					}
				}
			}
		}()
	}

	// --- Cluster leader goroutines (levels bottom..1).
	for l := bottom; l >= 1; l-- {
		for ci, c := range tree.Clusters[l] {
			l, ci, c := l, ci, c
			var parent chan envelope
			parentLevel, parentCi := -1, 0
			if l == 1 {
				parent = clusterInbox[0][0]
			} else {
				p := tree.Parent(l, ci)
				parent = clusterInbox[p.Level][p.Index]
				parentLevel, parentCi = p.Level, p.Index
			}
			var children []chan envelope
			if l == bottom {
				for _, m := range c.Members {
					children = append(children, devInbox[m])
				}
			} else {
				for _, ch := range tree.ChildClusters(l, ci) {
					children = append(children, clusterInbox[l+1][ch.Index])
				}
			}
			wg.Add(1)
			goroutines++
			go func() {
				defer wg.Done()
				collected := map[int][]tensor.Vector{}
				closed := map[int]bool{}
				need := quorumOf(c.Size())
				// Leader-owned aggregation scratch: leaders run concurrently,
				// so the warm buffers must not be shared between goroutines.
				aggScratch := aggregate.NewScratch(cfg.Workers)
				fe := newFilterEmitter(ins, rt != nil, aggScratch)
				cs := codec.NewScratch()
				// firstArrival is when each open round's first input landed —
				// the start of its aggregate span.
				firstArrival := map[int]float64{}
				// lastGlobal is this leader's view of the newest global model
				// (updated as globals are forwarded down) — the Delta codec's
				// reference for the partials it forms.
				var lastGlobal tensor.Vector
				// Collect deadlines (faulted runs only): a round whose quorum
				// never fills aggregates sub-quorum at its deadline; an empty
				// round backs off, then is abandoned.
				deadline := map[int]time.Time{}
				attempts := map[int]int{}
				arm := func(r int) {
					if !faulty || cfg.CollectTimeout <= 0 || r >= cfg.Rounds || closed[r] {
						return
					}
					if _, ok := deadline[r]; !ok {
						deadline[r] = time.Now().Add(deadlineAfter(0))
					}
				}
				// aggregateRound closes round r over whatever was collected and
				// forwards; it reports false when the run is shutting down.
				aggregateRound := func(r int) bool {
					closed[r] = true
					delete(deadline, r)
					vecs := collected[r]
					delete(collected, r)
					// Fresh destination per call: the aggregate is retained
					// by downstream envelopes.
					agg := tensor.NewVector(len(vecs[0]))
					if err := cfg.PartialBRA.AggregateInto(agg, aggScratch, vecs); err != nil {
						return true
					}
					fe.EmitAudit(l, ci, r, nil)
					if rt != nil {
						kept, filtered := fe.VerdictCounts()
						rt.aggregate(l, ci, r, parentLevel, parentCi, kept, filtered, firstArrival[r], cfg.PartialBRA.Name())
						delete(firstArrival, r)
					}
					// One codec hop per formed partial; the upward send and a
					// flag release ship the same decoded bytes.
					transcode(agg, lastGlobal, cs)
					if plan.DropSend(fmt.Sprintf("partial-%d-%d-%d", l, ci, r)) {
						countDropped()
					} else {
						select {
						case parent <- envelope{kind: kPartial, round: r, params: agg}:
						case <-done:
							return false
						}
					}
					if l == cfg.FlagLevel && r+1 < cfg.Rounds {
						flag := envelope{kind: kFlag, round: r + 1, params: agg}
						for _, ch := range children {
							select {
							case ch <- flag:
							case <-done:
								return false
							}
						}
						arm(r + 1)
					}
					return true
				}
				for {
					var env envelope
					if faulty && len(deadline) > 0 {
						var next time.Time
						for _, dl := range deadline {
							if next.IsZero() || dl.Before(next) {
								next = dl
							}
						}
						select {
						case env = <-clusterInbox[l][ci]:
						case <-done:
							return
						case <-time.After(time.Until(next)):
							now := time.Now()
							for r, dl := range deadline {
								if dl.After(now) {
									continue
								}
								if closed[r] {
									delete(deadline, r)
									continue
								}
								if len(collected[r]) > 0 {
									if len(collected[r]) < need {
										countSubQuorum()
									}
									if !aggregateRound(r) {
										return
									}
								} else if attempts[r]+1 < retries {
									attempts[r]++
									deadline[r] = now.Add(deadlineAfter(attempts[r]))
								} else {
									closed[r] = true
									delete(deadline, r)
									countAbandoned()
								}
							}
							continue
						}
					} else {
						select {
						case env = <-clusterInbox[l][ci]:
						case <-done:
							return
						}
					}
					switch env.kind {
					case kLocal, kPartial:
						if closed[env.round] || plan.LeaderFailed(l, ci, env.round) {
							continue
						}
						if rt != nil && len(collected[env.round]) == 0 {
							firstArrival[env.round] = rt.now()
						}
						collected[env.round] = append(collected[env.round], env.params)
						arm(env.round)
						if len(collected[env.round]) < need {
							continue
						}
						if !aggregateRound(env.round) {
							return
						}
					case kFlag, kGlobal:
						if plan.LeaderFailed(l, ci, env.round) {
							// Failed leader: the subtree below starves too.
							continue
						}
						if env.kind == kGlobal {
							lastGlobal = env.params
						}
						for _, ch := range children {
							select {
							case ch <- env:
							case <-done:
								return
							}
						}
						if env.kind == kFlag {
							// A forwarded flag proves the round is starting below:
							// arm its deadline so total upload loss cannot stall it.
							arm(env.round)
						}
					}
				}
			}()
		}
	}

	// --- Top goroutine.
	evalModel := nn.NewShaped(sizes...)
	evalWS := nn.NewWorkspace(evalModel)
	pool := nn.NewEvalPool(sizes...)
	validator := func(member int, model tensor.Vector) float64 {
		s := pool.Get()
		defer pool.Put(s)
		s.Model.SetParams(model)
		return nn.AccuracyWS(s.Model, s.WS, cfg.ValidationShards[member%len(cfg.ValidationShards)])
	}
	var topChildren []chan envelope
	for _, ch := range tree.ChildClusters(0, 0) {
		topChildren = append(topChildren, clusterInbox[1][ch.Index])
	}
	topCompleted, topAbandoned := 0, 0
	wg.Add(1)
	goroutines++
	go func() {
		defer wg.Done()
		defer close(done)
		collected := map[int][]tensor.Vector{}
		closedRounds := map[int]bool{}
		need := quorumOf(tree.Top().Size())
		aggScratch := aggregate.NewScratch(cfg.Workers)
		fe := newFilterEmitter(ins, rt != nil, aggScratch)
		// Partials are collected by arrival, not by sender, so the top
		// verdict's contributor ids are positions; formGlobal never sees
		// more than need of them.
		positions := make([]int, need)
		for i := range positions {
			positions[i] = i
		}
		cs := codec.NewScratch()
		firstArrival := map[int]float64{}
		var lastGlobal tensor.Vector
		deadline := map[int]time.Time{}
		attempts := map[int]int{}
		arm := func(r int) {
			if !faulty || cfg.CollectTimeout <= 0 || r >= cfg.Rounds || closedRounds[r] {
				return
			}
			if _, ok := deadline[r]; !ok {
				deadline[r] = time.Now().Add(deadlineAfter(0))
			}
		}
		arm(0)
		// resolved counts rounds closed either way — formed or abandoned — so
		// the run terminates even when faults starve the protocol of rounds.
		resolved := 0
		abandon := func(r int) {
			closedRounds[r] = true
			delete(deadline, r)
			delete(collected, r)
			resolved++
			topAbandoned++
			countAbandoned()
			arm(r + 1)
		}
		formGlobal := func(r int) {
			closedRounds[r] = true
			delete(deadline, r)
			vecs := collected[r]
			delete(collected, r)
			resolved++
			arm(r + 1)
			var global tensor.Vector
			var err error
			kept, filtered := len(vecs), 0
			rule := ""
			proto := cfg.TopCBA
			if proto == nil && cfg.TopVoting != nil {
				proto = *cfg.TopVoting
			}
			if proto != nil {
				cctx := &consensus.Context{
					Members:   len(vecs),
					Validator: validator,
					Rand:      root.Derive(fmt.Sprintf("vote-%d", r)),
					Round:     r,
				}
				var st consensus.Stats
				global, st, err = proto.Agree(cctx, vecs)
				if err == nil {
					fe.EmitConsensus(0, 0, r, positions[:len(vecs)], proto.Name(), st.Excluded, st.Votes)
					rule = proto.Name()
					kept, filtered = len(vecs)-len(st.Excluded), len(st.Excluded)
				}
			} else {
				global = tensor.NewVector(len(vecs[0]))
				err = cfg.TopBRA.AggregateInto(global, aggScratch, vecs)
				if err == nil {
					fe.EmitAudit(0, 0, r, nil)
					rule = cfg.TopBRA.Name()
					kept, filtered = fe.VerdictCounts()
				}
			}
			if err != nil {
				return
			}
			if rt != nil {
				rt.global(r, kept, filtered, firstArrival[r], rule)
				delete(firstArrival, r)
			}
			// Dissemination codec hop against the previous global; everyone
			// below — and the evaluation — sees the decoded model.
			transcode(global, lastGlobal, cs)
			lastGlobal = global
			evalModel.SetParams(global)
			result.RoundAccuracy[r] = nn.AccuracyWS(evalModel, evalWS, cfg.TestData)
			ins.RoundFormed()
			ins.SetAccuracy(result.RoundAccuracy[r])
			topCompleted++
			gm := envelope{kind: kGlobal, round: r, params: global}
			for _, ch := range topChildren {
				ch <- gm
			}
			if cfg.FlagLevel == 0 && r+1 < cfg.Rounds {
				flag := envelope{kind: kFlag, round: r + 1, params: global}
				for _, ch := range topChildren {
					ch <- flag
				}
			}
		}
		for resolved < cfg.Rounds {
			var env envelope
			if faulty && len(deadline) > 0 {
				var next time.Time
				for _, dl := range deadline {
					if next.IsZero() || dl.Before(next) {
						next = dl
					}
				}
				expired := false
				select {
				case env = <-clusterInbox[0][0]:
				case <-time.After(time.Until(next)):
					expired = true
				}
				if expired {
					now := time.Now()
					for r, dl := range deadline {
						if dl.After(now) || closedRounds[r] {
							continue
						}
						if n := len(collected[r]); n > 0 {
							if n < need {
								countSubQuorum()
							}
							formGlobal(r)
						} else if attempts[r]+1 < retries {
							attempts[r]++
							deadline[r] = now.Add(deadlineAfter(attempts[r]))
						} else {
							abandon(r)
						}
					}
					continue
				}
			} else {
				env = <-clusterInbox[0][0]
			}
			if env.kind != kPartial || closedRounds[env.round] {
				continue
			}
			if rt != nil && len(collected[env.round]) == 0 {
				firstArrival[env.round] = rt.now()
			}
			collected[env.round] = append(collected[env.round], env.params)
			arm(env.round)
			if len(collected[env.round]) < need {
				continue
			}
			formGlobal(env.round)
		}
	}()

	start := time.Now()
	wg.Wait()
	result.WallTime = time.Since(start)
	result.Goroutines = goroutines
	merges.Lock()
	result.Merges = mergeCount
	merges.Unlock()
	result.CompletedRounds = topCompleted
	result.AbandonedRounds = topAbandoned
	fstats.Lock()
	result.SubQuorum = fstats.subQuorum
	result.Omitted = fstats.omitted
	result.DroppedSends = fstats.dropped
	fstats.Unlock()
	cstats.Lock()
	result.WireBytes = cstats.wireBytes
	codecErr := cstats.err
	cstats.Unlock()
	if codecErr != nil {
		return nil, codecErr
	}
	for r := cfg.Rounds - 1; r >= 0; r-- {
		if result.RoundAccuracy[r] > 0 {
			result.FinalAccuracy = result.RoundAccuracy[r]
			break
		}
	}
	return result, nil
}
