package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/attack"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
)

// RunHFL executes an ABD-HFL learning run as a deterministic round engine:
// per round, every bottom device trains locally (Algorithm 2), partial
// models are aggregated cluster by cluster up the tree (Algorithms 3-4), the
// top level forms the global model with BRA or CBA (Algorithm 6), and the
// new global model is disseminated back to all devices (Algorithm 5). Local
// training fans out over a worker pool; results are independent of
// scheduling because every device derives its own random stream.
func RunHFL(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	sizes := cfg.ModelSizes()
	global := nn.New(root.Derive("init"), sizes...)
	globalParams := global.Params()

	tree := cfg.Tree
	devices := tree.NumDevices()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}

	res := &Result{}
	evalModel := nn.NewShaped(sizes...)
	pool := nn.NewEvalPool(sizes...)
	updates := make([]tensor.Vector, devices)
	trainer := newLocalTrainer(sizes, workers, devices)

	// Aggregation working memory, reused across rounds: one Scratch for every
	// BRA call (aggregation is sequential within a round), one destination
	// buffer per (level, cluster) — inputs at each level live in the level
	// below's buffers, so destinations never alias inputs — and a
	// double-buffered global destination. Leader rotation preserves the tree
	// shape, so the cluster counts are stable.
	aggScratch := aggregate.NewScratch(workers)
	// Codec working memory beside the aggregation scratch: the round loop is
	// sequential, so one Scratch serves every hop of every round.
	codecScratch := codec.NewScratch()
	ins := newInstruments(cfg.Telemetry, "hfl", len(tree.Clusters))
	ins.common().CodecInfo(cfg.Codec, len(globalParams))
	dim := len(globalParams)
	ct := newCoreTracer(cfg.Trace, tree.Bottom(), wireBytesOf(cfg.Codec, dim))
	fe := newFilterEmitter(ins, cfg.OnFilter, ct != nil, "hfl")
	fe.Attach(aggScratch)
	partialBufs := make([][]tensor.Vector, len(tree.Clusters))
	levelOut := make([][]tensor.Vector, len(tree.Clusters))
	for lvl := range tree.Clusters {
		partialBufs[lvl] = make([]tensor.Vector, len(tree.Clusters[lvl]))
		levelOut[lvl] = make([]tensor.Vector, len(tree.Clusters[lvl]))
	}
	var globalBufs [2]tensor.Vector
	vecsBuf := make([]tensor.Vector, 0, devices)
	idsBuf := make([]int, 0, devices)

	baseTree := tree
	for round := 0; round < cfg.Rounds; round++ {
		roundRNG := root.Derive(fmt.Sprintf("round-%d", round))
		ct.beginRound(round)
		var tRound, tPhase time.Time
		commBefore := res.Comm
		if ins.enabled() {
			tRound = time.Now()
			tPhase = tRound
		}

		// --- Leader re-election: rotate every cluster's leadership and
		// rebuild the upper levels from the new leaders.
		if cfg.RotateLeaders {
			rotated, err := baseTree.Rotate(round)
			if err != nil {
				return nil, fmt.Errorf("core: round %d leader rotation: %w", round, err)
			}
			tree = rotated
		}

		// --- Availability churn (Assumption 3) and cohort sampling: offline
		// and unsampled devices skip the round entirely.
		skip := drawSkip(cfg, roundRNG, tree, drawOffline(cfg, roundRNG, devices))

		// --- Local model training (Algorithm 2) over a worker pool.
		trainer.round(cfg, globalParams, updates, skip, roundRNG)
		res.TrainerActivations += len(trainer.active)

		// --- Model-update attacks by Byzantine devices (omniscient model).
		if cfg.ModelAttack != nil {
			applyModelAttack(cfg, updates, globalParams, roundRNG.Derive("attack"))
		}

		if ct != nil {
			// Train spans, cluster by cluster in member order — the same
			// order for every worker count.
			for ci, c := range tree.Clusters[tree.Bottom()] {
				for _, m := range c.Members {
					if updates[m] != nil {
						ct.train(round, m, ci)
					}
				}
			}
		}

		// --- Device→leader uplink: each submitted update crosses one codec
		// hop. The Delta reference is the round's start model, which every
		// device and leader already holds from dissemination.
		if cfg.Codec != nil {
			codecScratch.Ref = globalParams
			for id, u := range updates {
				if u == nil {
					continue
				}
				if _, err := codec.Transcode(cfg.Codec, u, codecScratch); err != nil {
					return nil, fmt.Errorf("core: round %d device %d codec: %w", round, id, err)
				}
			}
		}

		if ins.enabled() {
			ins.observePhase(phaseTrain, time.Since(tPhase))
			tPhase = time.Now()
		}

		// --- Partial model aggregation (Algorithms 3-4), bottom level up to
		// level 1. partials[i] is the output of cluster i at the current
		// level; at the bottom the inputs are device updates.
		partials := updates
		byLevelInput := func(c *topology.Cluster, lvl int) ([]tensor.Vector, []int) {
			// The shared backing buffers are safe to reuse per cluster: both
			// aggregation paths consume vecs/ids synchronously (BRA copies
			// into its destination, CBA returns a fresh vector).
			vecs := vecsBuf[:0]
			ids := idsBuf[:0]
			for mi, m := range c.Members {
				var v tensor.Vector
				if lvl == tree.Bottom() {
					v = partials[m]
				} else {
					// Members of an upper cluster are leaders of child
					// clusters; the child cluster order matches member order.
					v = partials[ChildClusterIndex(tree, c, mi)]
				}
				if v != nil {
					vecs = append(vecs, v)
					ids = append(ids, m)
				}
			}
			return vecs, ids
		}
		for lvl := tree.Bottom(); lvl >= 1; lvl-- {
			next := levelOut[lvl]
			for i := range next {
				next[i] = nil
			}
			for ci, c := range tree.Clusters[lvl] {
				vecs, ids := byLevelInput(c, lvl)
				if len(vecs) == 0 {
					// Every contributor is offline this round (churn): the
					// cluster contributes nothing and the level above
					// aggregates fewer inputs.
					continue
				}
				vecs, ids = ApplyQuorum(cfg, roundRNG, lvl, ci, vecs, ids)
				if partialBufs[lvl][ci] == nil {
					partialBufs[lvl][ci] = tensor.NewVector(dim)
				}
				agg, comm, err := aggregateCluster(cfg, roundRNG, c, vecs, ids, pool, partialBufs[lvl][ci], aggScratch, fe, round)
				if err != nil {
					return nil, fmt.Errorf("core: round %d level %d cluster %d: %w", round, lvl, ci, err)
				}
				if ct != nil {
					parentCi := -1
					if lvl > 1 {
						parentCi = tree.Parent(lvl, ci).Index
					}
					kept, filtered := fe.VerdictCounts()
					ct.aggregate(round, lvl, ci, parentCi, ruleForLevel(cfg, lvl).Name(), kept, filtered)
				}
				res.Comm.Add(comm)
				// Leader→parent uplink: the freshly formed partial crosses the
				// next codec hop before the level above consumes it.
				if cfg.Codec != nil {
					if _, err := codec.Transcode(cfg.Codec, agg, codecScratch); err != nil {
						return nil, fmt.Errorf("core: round %d level %d cluster %d codec: %w", round, lvl, ci, err)
					}
				}
				next[ci] = agg
			}
			partials = next
		}

		// --- Global model aggregation (Algorithm 6) at the top. After the
		// level loop, partials holds one model per level-1 cluster, whose
		// leaders are exactly the top cluster's members.
		if globalBufs[round%2] == nil {
			globalBufs[round%2] = tensor.NewVector(dim)
		}
		newGlobal, comm, excluded, err := aggregateTop(cfg, tree, roundRNG, partials, pool, globalBufs[round%2], aggScratch, fe, round, nil)
		if err != nil {
			return nil, fmt.Errorf("core: round %d top level: %w", round, err)
		}
		res.Comm.Add(comm)
		res.ExcludedByConsensus += excluded
		if ct != nil {
			kept, filtered := fe.VerdictCounts()
			ct.global(round, cfg.Global.Name(), kept, filtered)
		}
		// Dissemination downlink: the new global crosses one codec hop (all
		// broadcast copies carry the same encoding), deltas referenced
		// against the previous global every receiver still holds. The
		// double-buffered globals keep the reference intact while the new
		// model decodes in place.
		if cfg.Codec != nil {
			codecScratch.Ref = globalParams
			if _, err := codec.Transcode(cfg.Codec, newGlobal, codecScratch); err != nil {
				return nil, fmt.Errorf("core: round %d dissemination codec: %w", round, err)
			}
		}
		globalParams = newGlobal

		// --- Dissemination (Algorithm 5): the global model travels down the
		// tree, one broadcast per cluster.
		res.Comm.Add(DisseminationCost(tree))
		if ins.enabled() {
			ins.observePhase(phaseAggregate, time.Since(tPhase))
			tPhase = time.Now()
		}

		// --- Evaluation.
		if (round+1)%evalEvery == 0 || round == cfg.Rounds-1 {
			evalModel.SetParams(globalParams)
			// Evaluate's chunked reduction is worker-count-invariant, so the
			// curve is bit-identical whatever cfg.Workers is.
			acc, loss := nn.Evaluate(evalModel, cfg.TestData, workers)
			stat := RoundStat{Round: round + 1, Accuracy: acc, Loss: loss}
			res.Curve = append(res.Curve, stat)
			ins.evalDone(acc, loss)
			ct.eval(round)
			if cfg.OnRound != nil {
				cfg.OnRound(stat)
			}
			if ins.enabled() {
				ins.observePhase(phaseEval, time.Since(tPhase))
			}
		}
		// Wire-byte accounting: every model transfer this round shipped one
		// codec-encoded vector of the same dimension.
		if cfg.Codec != nil {
			moved := res.Comm.ModelTransfers - commBefore.ModelTransfers
			res.Comm.WireBytes += int64(moved) * int64(cfg.Codec.WireBytes(dim))
		}
		if ins.enabled() {
			delta := res.Comm
			delta.ModelTransfers -= commBefore.ModelTransfers
			delta.ScalarMessages -= commBefore.ScalarMessages
			delta.WireBytes -= commBefore.WireBytes
			ins.roundDone(time.Since(tRound), delta)
		}
		ct.endRound(round)
	}
	if len(res.Curve) > 0 {
		res.FinalAccuracy = res.Curve[len(res.Curve)-1].Accuracy
	}
	res.FinalParams = globalParams
	res.TrainerBuffers = trainer.allocated
	return res, nil
}

// ChildClusterIndex maps member mi of upper-level cluster c to the index of
// the child cluster it leads at level c.Level+1 (the ordering byLevelInput
// relies on).
func ChildClusterIndex(tree *topology.Tree, c *topology.Cluster, mi int) int {
	children := tree.ChildClusters(c.Level, c.Index)
	if mi >= len(children) {
		panic("core: member without child cluster")
	}
	return children[mi].Index
}

// localTrainer owns the per-worker training models/workspaces and a pool of
// update buffers handed out only to the round's active trainers. Every
// device still derives its own random stream, so results are independent of
// both worker count and job scheduling. Idle devices hold NO model vector:
// a buffer exists only between a device's activation and the next round's
// reclaim, so a cohort-sampled run materializes ~active-set buffers instead
// of one per device — the lazy-state half of the million-device scale-out.
type localTrainer struct {
	models []*nn.Model
	wss    []*nn.Workspace
	// pool holds reclaimed update buffers; active lists the ids whose
	// buffers are currently lent out (reclaimed at the next round call,
	// AFTER aggregation has consumed them — all rules copy into their own
	// outputs, never retaining update vectors across rounds).
	pool      []tensor.Vector
	active    []int
	allocated int // total buffers ever materialized (Result.TrainerBuffers)
}

func newLocalTrainer(sizes []int, workers, devices int) *localTrainer {
	t := &localTrainer{
		models: make([]*nn.Model, workers),
		wss:    make([]*nn.Workspace, workers),
	}
	for w := 0; w < workers; w++ {
		t.models[w] = nn.NewShaped(sizes...)
		t.wss[w] = nn.NewWorkspace(t.models[w])
	}
	return t
}

// take hands out a pooled buffer, or nil — the worker's ParamsInto then
// allocates one, which counts as a materialization. Called only from the
// scheduling goroutine.
func (t *localTrainer) take() tensor.Vector {
	if n := len(t.pool); n > 0 {
		v := t.pool[n-1]
		t.pool[n-1] = nil
		t.pool = t.pool[:n-1]
		return v
	}
	t.allocated++
	return nil
}

// reclaim returns the previous round's lent-out buffers to the pool. The
// slots may hold different vectors than were lent (the attack layer swaps in
// same-dimension poisoned vectors); whatever is there is recycled.
func (t *localTrainer) reclaim(updates []tensor.Vector) {
	for _, id := range t.active {
		if updates[id] != nil {
			t.pool = append(t.pool, updates[id])
			updates[id] = nil
		}
	}
	t.active = t.active[:0]
}

// round runs every active device's local SGD over the worker pool and stores
// flattened parameter updates (skipped devices — offline or outside the
// round's cohort — get nil).
func (t *localTrainer) round(cfg Config, start tensor.Vector, updates []tensor.Vector, skip map[int]bool, roundRNG *rng.RNG) {
	t.reclaim(updates)
	devices := len(updates)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := range t.models {
		wg.Add(1)
		go func(m *nn.Model, ws *nn.Workspace) {
			defer wg.Done()
			for id := range jobs {
				m.SetParams(start)
				r := roundRNG.Derive(fmt.Sprintf("device-%d", id))
				nn.SGDWS(m, ws, cfg.ClientData[id], cfg.Local, r)
				updates[id] = m.ParamsInto(updates[id])
			}
		}(t.models[w], t.wss[w])
	}
	for id := 0; id < devices; id++ {
		if skip[id] {
			updates[id] = nil
			continue
		}
		// Assign the buffer before dispatch: the channel send orders the
		// write against the worker's read, and pool/active stay owned by
		// this goroutine.
		updates[id] = t.take()
		t.active = append(t.active, id)
		jobs <- id
	}
	close(jobs)
	wg.Wait()
}

// trainLocal is the one-shot form of localTrainer.round, kept for engines
// without per-round state (vanilla).
func trainLocal(cfg Config, sizes []int, start tensor.Vector, updates []tensor.Vector, skip map[int]bool, roundRNG *rng.RNG, workers int) {
	newLocalTrainer(sizes, workers, len(updates)).round(cfg, start, updates, skip, roundRNG)
}

// drawOffline samples the round's offline set deterministically.
func drawOffline(cfg Config, roundRNG *rng.RNG, devices int) map[int]bool {
	if cfg.Churn.OfflineProb <= 0 {
		return nil
	}
	r := roundRNG.Derive("churn")
	offline := map[int]bool{}
	for id := 0; id < devices; id++ {
		if r.Float64() < cfg.Churn.OfflineProb {
			offline[id] = true
		}
	}
	return offline
}

// drawSkip composes the round's non-training set: offline devices plus, when
// cohort sampling is on, every bottom-cluster member outside its cluster's
// deterministically sampled k-cohort. Each cluster draws from its own
// derived stream, so the sample is independent of cluster iteration order
// and of every other random draw in the round.
func drawSkip(cfg Config, roundRNG *rng.RNG, tree *topology.Tree, offline map[int]bool) map[int]bool {
	if cfg.Cohort <= 0 {
		return offline
	}
	skip := make(map[int]bool, len(offline))
	for id := range offline {
		skip[id] = true
	}
	bottom := tree.Clusters[tree.Bottom()]
	maxSize := 0
	for _, c := range bottom {
		if c.Size() > maxSize {
			maxSize = c.Size()
		}
	}
	pick := make([]int, 0, cfg.Cohort)
	scratch := make([]int, maxSize)
	for ci, c := range bottom {
		k := cfg.Cohort
		if k >= c.Size() {
			continue // whole cluster trains
		}
		r := roundRNG.DeriveN("cohort", uint64(ci))
		pick = pick[:k]
		r.ChoiceInto(pick, c.Size(), scratch)
		in := scratch[:c.Size()]
		for i := range in {
			in[i] = 0
		}
		for _, p := range pick {
			in[p] = 1
		}
		for mi, m := range c.Members {
			if in[mi] == 0 {
				skip[m] = true
			}
		}
	}
	return skip
}

// applyModelAttack replaces Byzantine devices' updates with attacked
// vectors. Following the Byzantine-FL literature, attacks operate on the
// round's update DELTAS (trained params minus the round's start model), with
// the honest deltas' population statistics as the omniscient attacker's
// knowledge; the poisoned delta is re-anchored at the start model. Attacking
// raw parameter vectors instead would destroy the network in round one
// before any validator can discriminate, which no published attack model
// intends.
func applyModelAttack(cfg Config, updates []tensor.Vector, start tensor.Vector, r *rng.RNG) {
	var honestDeltas []tensor.Vector
	for id, u := range updates {
		if u != nil && !cfg.Byzantine[id] {
			honestDeltas = append(honestDeltas, tensor.Sub(tensor.NewVector(len(u)), u, start))
		}
	}
	if len(honestDeltas) == 0 {
		// Everyone online is Byzantine; attack their own statistics.
		for _, u := range updates {
			if u != nil {
				honestDeltas = append(honestDeltas, tensor.Sub(tensor.NewVector(len(u)), u, start))
			}
		}
	}
	if len(honestDeltas) == 0 {
		return // everyone offline this round
	}
	mean, std := attack.PopulationStats(honestDeltas)
	for id := range updates {
		if !cfg.Byzantine[id] || updates[id] == nil {
			continue
		}
		delta := tensor.Sub(tensor.NewVector(len(start)), updates[id], start)
		poisoned := cfg.ModelAttack.Apply(r, delta, mean, std)
		updates[id] = tensor.Add(poisoned, poisoned, start)
	}
}

// ApplyQuorum deterministically subsamples cluster (lvl, ci)'s available
// models down to ceil(φ*size), simulating a leader that stops waiting once
// the quorum is reached (Algorithm 4's φ_ℓ × C_ℓ,i condition).
func ApplyQuorum(cfg Config, roundRNG *rng.RNG, lvl, ci int, vecs []tensor.Vector, ids []int) ([]tensor.Vector, []int) {
	if cfg.Quorum == 0 || cfg.Quorum >= 1 || len(vecs) <= 1 {
		return vecs, ids
	}
	need := int(math.Ceil(cfg.Quorum * float64(len(vecs))))
	if need < 1 {
		need = 1
	}
	if need >= len(vecs) {
		return vecs, ids
	}
	r := roundRNG.Derive(fmt.Sprintf("quorum-%d-%d", lvl, ci))
	pick := r.Choice(len(vecs), need)
	outV := make([]tensor.Vector, need)
	outI := make([]int, need)
	for k, i := range pick {
		outV[k] = vecs[i]
		outI[k] = ids[i]
	}
	return outV, outI
}

// ruleForLevel returns the aggregation rule for intermediate level lvl.
func ruleForLevel(cfg Config, lvl int) LevelRule {
	if rule, ok := cfg.PartialByLevel[lvl]; ok {
		return rule
	}
	return cfg.Partial
}

// aggregateCluster forms one cluster's partial model with the configured
// intermediate rule and returns its communication cost: members upload to
// the leader and the leader broadcasts the result back (BRA), or all members
// exchange proposals (CBA). BRA writes into the caller-owned dst buffer using
// scratch; CBA protocols return their own fresh vector.
func aggregateCluster(cfg Config, roundRNG *rng.RNG, c *topology.Cluster, vecs []tensor.Vector, ids []int, pool *nn.EvalPool, dst tensor.Vector, scratch *aggregate.Scratch, fe *telemetry.FilterEmitter, round int) (tensor.Vector, CommStats, error) {
	var comm CommStats
	n := len(vecs)
	if n == 0 {
		return nil, comm, fmt.Errorf("cluster (%d,%d) received no models", c.Level, c.Index)
	}
	rule := ruleForLevel(cfg, c.Level)
	if !rule.IsCBA() {
		if err := rule.BRA.AggregateInto(dst, scratch, vecs); err != nil {
			return nil, comm, err
		}
		fe.EmitAudit(c.Level, c.Index, round, ids)
		// Uploads to leader (leader's own model is local) + result broadcast
		// to members for storage.
		comm.ModelTransfers += (n - 1) + (c.Size() - 1)
		return dst, comm, nil
	}
	ctx := &consensus.Context{
		Members:   n,
		Byzantine: protocolByzantine(cfg, ids),
		Validator: localValidator(cfg, ids, pool),
		Rand:      roundRNG.Derive(fmt.Sprintf("cba-%d-%d", c.Level, c.Index)),
		Workers:   cfg.Workers,
		Round:     round,
	}
	agg, st, err := rule.CBA.Agree(ctx, vecs)
	if err != nil {
		return nil, comm, err
	}
	fe.EmitConsensus(c.Level, c.Index, round, ids, rule.Name(), st.Excluded, st.Votes)
	comm.ModelTransfers += st.ModelTransfers
	comm.ScalarMessages += st.Messages - st.ModelTransfers
	return agg, comm, nil
}

// aggregateTop forms the global model (Algorithm 6). BRA writes into the
// caller-owned dst buffer (double-buffered by the round loop so the previous
// global model stays intact while the new one forms); CBA protocols return
// their own fresh vector. ballots, when non-nil, injects wire-collected
// member ballots into the consensus context (the node engine's ABA
// exchange); the single-process engine always passes nil and computes them
// locally.
func aggregateTop(cfg Config, tree *topology.Tree, roundRNG *rng.RNG, partials []tensor.Vector, pool *nn.EvalPool, dst tensor.Vector, scratch *aggregate.Scratch, fe *telemetry.FilterEmitter, round int, ballots *consensus.BallotSet) (tensor.Vector, CommStats, int, error) {
	var comm CommStats
	vecs := make([]tensor.Vector, 0, len(partials))
	var ids []int
	for i, p := range partials {
		if p != nil {
			vecs = append(vecs, p)
			if fe != nil {
				// Top-level contributors are the level-1 cluster leaders (or
				// the devices themselves in a degenerate single-level tree).
				if tree.Bottom() == 0 {
					ids = append(ids, i)
				} else {
					ids = append(ids, tree.Clusters[1][i].Leader)
				}
			}
		}
	}
	if len(vecs) == 0 {
		return nil, comm, 0, fmt.Errorf("top level received no partial models")
	}
	if !cfg.Global.IsCBA() {
		if err := cfg.Global.BRA.AggregateInto(dst, scratch, vecs); err != nil {
			return nil, comm, 0, err
		}
		fe.EmitAudit(0, 0, round, ids)
		n := len(vecs)
		comm.ModelTransfers += (n - 1) + (n - 1) // uploads to A_{0,0} + broadcast
		return dst, comm, 0, nil
	}
	top := tree.Top()
	ctx := &consensus.Context{
		Members:   len(vecs),
		Byzantine: protocolByzantine(cfg, top.Members[:min(len(vecs), top.Size())]),
		Validator: shardValidator(cfg, pool),
		Rand:      roundRNG.Derive("cba-top"),
		Workers:   cfg.Workers,
		Round:     round,
		Ballots:   ballots,
	}
	agg, st, err := cfg.Global.CBA.Agree(ctx, vecs)
	if err != nil {
		return nil, comm, 0, err
	}
	fe.EmitConsensus(0, 0, round, ids, cfg.Global.Name(), st.Excluded, st.Votes)
	comm.ModelTransfers += st.ModelTransfers
	comm.ScalarMessages += st.Messages - st.ModelTransfers
	return agg, comm, len(st.Excluded), nil
}

// protocolByzantine maps device-level Byzantine flags onto protocol member
// indices. Data poisoners follow the consensus protocol honestly (the
// paper's Table V note); only model attackers deviate inside protocols.
func protocolByzantine(cfg Config, ids []int) map[int]bool {
	if cfg.ModelAttack == nil || cfg.Byzantine == nil {
		return nil
	}
	out := make(map[int]bool)
	for i, id := range ids {
		if cfg.Byzantine[id] {
			out[i] = true
		}
	}
	return out
}

// localValidator scores a proposal by its accuracy on the member device's
// own training shard — the only data an intermediate node holds. Scoring
// runs on pooled evaluation models so the n×n scorings of a voting round
// neither allocate nor contend, and the validator is safe for the consensus
// layer's parallel fan-out.
func localValidator(cfg Config, ids []int, pool *nn.EvalPool) consensus.Validator {
	return func(member int, model tensor.Vector) float64 {
		s := pool.Get()
		defer pool.Put(s)
		s.Model.SetParams(model)
		return nn.AccuracyWS(s.Model, s.WS, cfg.ClientData[ids[member]])
	}
}

// shardValidator scores a proposal by its accuracy on a top node's private
// validation shard (the paper's Appendix D-B voting input). Config.Validate
// rejects CBA configurations without shards before a run starts.
func shardValidator(cfg Config, pool *nn.EvalPool) consensus.Validator {
	return func(member int, model tensor.Vector) float64 {
		shard := cfg.ValidationShards[member%len(cfg.ValidationShards)]
		s := pool.Get()
		defer pool.Put(s)
		s.Model.SetParams(model)
		return nn.AccuracyWS(s.Model, s.WS, shard)
	}
}

// DisseminationCost counts the model transfers of Algorithm 5: every cluster
// leader broadcasts the model to its cluster members (members-1 transfers
// per cluster, every level).
func DisseminationCost(tree *topology.Tree) CommStats {
	var comm CommStats
	for _, level := range tree.Clusters {
		for _, c := range level {
			comm.ModelTransfers += c.Size() - 1
		}
	}
	return comm
}
