// Package consensus implements the consensus-based aggregation (CBA) family
// of the paper's Table II: the validation-voting consensus deployed at
// ABD-HFL's top level (Appendix D-B, inspired by the PoS-style validation of
// Chen et al.), a committee-based consensus, and a coordinate-wise Byzantine
// approximate ε-agreement ("multidimensional consensus"). Protocols run over
// an abstract membership where some members may be Byzantine, and report
// message/round counts for the paper's communication-cost comparisons
// (Table IV).
package consensus

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// ErrNoProposals is returned when a protocol receives zero proposals.
var ErrNoProposals = errors.New("consensus: no proposals")

// Validator scores a proposed model from the viewpoint of one member —
// typically the model's accuracy on the member's private validation shard.
// Higher is better.
type Validator func(member int, model tensor.Vector) float64

// Context carries the membership and environment of one consensus instance.
type Context struct {
	// Members is the number of participants; member indices are
	// [0, Members). proposals[i] is member i's proposal.
	Members int
	// Byzantine marks members that deviate from the protocol (vote
	// adversarially, send extreme values). May be nil.
	Byzantine map[int]bool
	// Validator scores proposals for voting/committee protocols; protocols
	// that need it return an error when it is nil. When Workers > 1 the
	// validator is called from multiple goroutines and must be
	// concurrency-safe (the engines' validators are: they score on pooled
	// per-call models).
	Validator Validator
	// Rand drives committee sampling and Byzantine value generation.
	Rand *rng.RNG
	// Workers bounds the goroutines used to fan out validator scoring; zero
	// or one keeps scoring on the calling goroutine. Results are identical
	// for every worker count: per-member work is independent and tallies are
	// reduced in member order.
	Workers int
	// Round is the engine round this instance runs in. Rotation-based
	// protocols derive their per-round committee (and dealer) from it;
	// protocols without rotation ignore it.
	Round int
	// Ballots optionally injects externally collected ballots — the node
	// engine gathers them over the wire from remote members. Rows[i] is
	// member i's up/down votes over the proposals, nil when member i's ballot
	// never arrived (the member is treated as crashed, within the protocol's
	// fault budget). Nil Ballots means every ballot is computed locally via
	// Validator. Protocols that do not exchange ballots ignore it.
	Ballots *BallotSet
}

// BallotSet carries per-member up/down ballots collected outside the
// protocol call (e.g. over real transport frames).
type BallotSet struct {
	// Rows[i] is member i's ballot over the proposals; nil marks a member
	// whose ballot never arrived.
	Rows [][]bool
}

// workers returns the effective scoring fan-out bound.
func (c *Context) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// forEachMember runs fn(i) for every member index in [0, n), fanning out
// over at most `workers` goroutines. fn instances must touch disjoint state
// (each member writes only its own result slot).
func forEachMember(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (c *Context) isByz(i int) bool { return c.Byzantine != nil && c.Byzantine[i] }

func (c *Context) check(proposals []tensor.Vector) error {
	if len(proposals) == 0 {
		return ErrNoProposals
	}
	if c.Members != len(proposals) {
		return fmt.Errorf("consensus: %d members but %d proposals", c.Members, len(proposals))
	}
	dim := len(proposals[0])
	for i, p := range proposals {
		if len(p) != dim {
			return fmt.Errorf("consensus: proposal %d dim %d, want %d", i, len(p), dim)
		}
	}
	if c.Rand == nil {
		c.Rand = rng.New(0)
	}
	return nil
}

// Stats reports the communication footprint of one consensus instance.
type Stats struct {
	Rounds   int
	Messages int
	// ModelTransfers counts messages that carried a full model vector (the
	// expensive kind); Messages also includes scalar votes.
	ModelTransfers int
	// Excluded lists the proposal indices ruled out as malicious.
	Excluded []int
	// Votes[i] is the positive-vote tally proposal i received, for protocols
	// that vote (Voting); nil for score-ranking protocols (Committee). The
	// engines feed these tallies into the telemetry vote histograms.
	Votes []int
	// CoinRounds is the number of common-coin rounds the slowest binary
	// agreement instance needed (randomized protocols only; zero elsewhere).
	CoinRounds int
	// VirtualMS is the agreement latency in virtual milliseconds under the
	// protocol's internal delivery schedule (randomized protocols only).
	VirtualMS float64
}

// Protocol is a consensus-based aggregation rule: members agree on one model
// with malicious proposals excluded.
type Protocol interface {
	// Name identifies the protocol in configs and reports.
	Name() string
	// Agree runs the protocol and returns the agreed model.
	Agree(ctx *Context, proposals []tensor.Vector) (tensor.Vector, Stats, error)
}

// Voting is the paper's top-level consensus (Appendix D-B): every member
// scores every proposal on its own validation data and upvotes the
// proposals scoring within Margin of the best it saw; proposals whose
// positive-vote count falls below the keep threshold are excluded and the
// rest are averaged. Byzantine members vote inversely (upvote what honest
// members reject and vice versa).
type Voting struct {
	// Margin is the score slack below a member's best-scored proposal within
	// which it still upvotes; zero selects 0.1 (10 accuracy points).
	Margin float64
	// KeepFraction of the membership's votes a proposal needs to survive;
	// zero selects 0.5 (strict majority), matching "the fewest number of
	// positive votes are considered malicious".
	KeepFraction float64
}

// Name implements Protocol.
func (Voting) Name() string { return "voting" }

// Agree implements Protocol.
func (v Voting) Agree(ctx *Context, proposals []tensor.Vector) (tensor.Vector, Stats, error) {
	if err := ctx.check(proposals); err != nil {
		return nil, Stats{}, err
	}
	if ctx.Validator == nil {
		return nil, Stats{}, errors.New("consensus: voting requires a validator")
	}
	n := ctx.Members
	// Member scorings are independent (each member evaluates every proposal
	// on its own data), so they fan out over the context's worker bound; the
	// vote tally is reduced serially in member order, keeping the outcome
	// identical to the serial protocol.
	ballots := make([][]bool, n)
	forEachMember(ctx.workers(), n, func(member int) {
		ballots[member] = v.votes(ctx, member, proposals)
	})
	counts := make([]int, n)
	for _, ballot := range ballots {
		for i, up := range ballot {
			if up {
				counts[i]++
			}
		}
	}
	keptIdx, excluded := v.decide(counts, n)
	kept := make([]tensor.Vector, 0, len(keptIdx))
	for _, i := range keptIdx {
		kept = append(kept, proposals[i])
	}
	// Phase 1: proposal broadcast (model transfers); phase 2: vote exchange
	// (scalar messages).
	st := Stats{
		Rounds:         2,
		ModelTransfers: n * (n - 1),
		Messages:       2 * n * (n - 1),
		Excluded:       excluded,
		Votes:          counts,
	}
	out := tensor.Mean(tensor.NewVector(len(proposals[0])), kept)
	return out, st, nil
}

// votes computes member's up/down votes over the proposals (true = upvote),
// applying the adversarial inversion for Byzantine members. It is the ballot
// kernel Voting, ABA and the node engine's ballot exchange share.
func (v Voting) votes(ctx *Context, member int, proposals []tensor.Vector) []bool {
	margin := v.Margin
	if margin == 0 {
		margin = 0.1
	}
	scores := make([]float64, len(proposals))
	best := 0.0
	for i := range proposals {
		scores[i] = ctx.Validator(member, proposals[i])
		if scores[i] > best {
			best = scores[i]
		}
	}
	out := make([]bool, len(proposals))
	for i := range proposals {
		up := scores[i] >= best-margin
		if ctx.isByz(member) {
			up = !up
		}
		out[i] = up
	}
	return out
}

// Ballot computes one member's validation-voting up/down ballot over the
// proposals — the kernel Voting and ABA members both apply. Exported so a
// distributed engine can compute a remote member's ballot on that member's
// own process and ship only the bits; the bits are identical to what the
// in-process protocols would compute (same validator, same margin rule).
func Ballot(ctx *Context, member int, margin float64, proposals []tensor.Vector) []bool {
	return Voting{Margin: margin}.votes(ctx, member, proposals)
}

// decide tallies the vote counts and returns the kept proposal indices and
// the excluded ones, mirroring Voting.Agree's rule.
func (v Voting) decide(counts []int, members int) (kept, excluded []int) {
	keep := v.KeepFraction
	if keep == 0 {
		keep = 0.5
	}
	threshold := int(keep * float64(members))
	if threshold < 1 {
		threshold = 1
	}
	for i, c := range counts {
		if c >= threshold {
			kept = append(kept, i)
		} else {
			excluded = append(excluded, i)
		}
	}
	if len(kept) == 0 {
		best := 0
		for i := range counts {
			if counts[i] > counts[best] {
				best = i
			}
		}
		kept = []int{best}
		excluded = excluded[:0]
		for i := range counts {
			if i != best {
				excluded = append(excluded, i)
			}
		}
	}
	sort.Ints(excluded)
	return kept, excluded
}

// Committee is a committee-based consensus (Li et al. 2020 style): a random
// committee of Size members scores every proposal; the proposals whose total
// committee score ranks in the top KeepFraction are averaged.
type Committee struct {
	// Size of the committee; zero selects ceil(n/2).
	Size int
	// KeepFraction of proposals retained; zero selects 0.5.
	KeepFraction float64
}

// Name implements Protocol.
func (Committee) Name() string { return "committee" }

// Agree implements Protocol.
func (c Committee) Agree(ctx *Context, proposals []tensor.Vector) (tensor.Vector, Stats, error) {
	if err := ctx.check(proposals); err != nil {
		return nil, Stats{}, err
	}
	if ctx.Validator == nil {
		return nil, Stats{}, errors.New("consensus: committee requires a validator")
	}
	n := ctx.Members
	size := c.Size
	if size == 0 {
		size = (n + 1) / 2
	}
	if size > n {
		size = n
	}
	keep := c.KeepFraction
	if keep == 0 {
		keep = 0.5
	}
	committee := ctx.Rand.Choice(n, size)
	return committeeAgree(ctx, proposals, committee, keep)
}

// committeeAgree is the scoring kernel shared by Committee and
// RotatingCommittee: the given committee scores every proposal, the top
// keep-fraction by total committee score is averaged.
func committeeAgree(ctx *Context, proposals []tensor.Vector, committee []int, keep float64) (tensor.Vector, Stats, error) {
	n := ctx.Members
	size := len(committee)
	// Fan the committee members' scorings out like Voting.Agree; summing the
	// per-member rows in committee order afterwards reproduces the serial
	// accumulation sequence exactly.
	rows := make([][]float64, size)
	forEachMember(ctx.workers(), size, func(ci int) {
		member := committee[ci]
		row := make([]float64, n)
		for i := range proposals {
			s := ctx.Validator(member, proposals[i])
			if ctx.isByz(member) {
				s = -s // a Byzantine committee member inverts its scoring
			}
			row[i] = s
		}
		rows[ci] = row
	})
	total := make([]float64, n)
	for _, row := range rows {
		for i, s := range row {
			total[i] += s
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return total[order[a]] > total[order[b]] })
	m := int(keep * float64(n))
	if m < 1 {
		m = 1
	}
	kept := make([]tensor.Vector, 0, m)
	var st Stats
	for rank, i := range order {
		if rank < m {
			kept = append(kept, proposals[i])
		} else {
			st.Excluded = append(st.Excluded, i)
		}
	}
	sort.Ints(st.Excluded)
	st.Rounds = 3
	st.ModelTransfers = n*size + size*n // proposals in, decision out
	st.Messages = st.ModelTransfers + size*(size-1)
	out := tensor.Mean(tensor.NewVector(len(proposals[0])), kept)
	return out, st, nil
}
