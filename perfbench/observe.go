package main

import (
	"sync"
	"sync/atomic"
	"time"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/node"
	"abdhfl/internal/tensor"
	"abdhfl/internal/transport"
)

// The decorators below wrap one layer's public interface, time each call
// from outside and pass arguments and results through untouched, so a
// decorated run computes bit-for-bit what an undecorated one does (the
// equality test in bench_test.go and the digest check on every traced run
// hold them to that).

// calls records the duration and outcome of every call into one layer. It
// is safe for concurrent use: the node workload calls it from every engine
// goroutine.
type calls struct {
	mu    sync.Mutex
	us    []float64
	total time.Duration
	errs  int
}

func (c *calls) add(d time.Duration, err error) {
	c.mu.Lock()
	c.us = append(c.us, float64(d.Nanoseconds())/1e3)
	c.total += d
	if err != nil {
		c.errs++
	}
	c.mu.Unlock()
}

// phaseClock tracks which core engine phase is running, so codec time spent
// on the device uplink (inside the engine's train phase) can be separated
// from training. A core round runs train (then one uplink transcode per
// device), aggregation (one transcode per partial), the top agreement, and
// one dissemination transcode of the new global model.
type phaseClock struct {
	phase      atomic.Int32
	trainCodec atomic.Int64 // ns of codec work inside the train phase
}

const (
	phaseTrain int32 = iota
	phaseAggregate
	phaseDisseminate
)

// roundClock records when each global round completes, observed from
// outside the engine.
type roundClock struct {
	mu    sync.Mutex
	start instant
	marks []instant
}

func newRoundClock() *roundClock { return &roundClock{start: now()} }

func (c *roundClock) mark(t time.Time) {
	at := instant{t, stolen()}
	c.mu.Lock()
	c.marks = append(c.marks, at)
	c.mu.Unlock()
}

// roundsMS returns the net time of each round in milliseconds.
func (c *roundClock) roundsMS() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.marks))
	prev := c.start
	for i, m := range c.marks {
		out[i] = float64(m.since(prev).Nanoseconds()) / 1e6
		prev = m
	}
	return out
}

// timedAggregator decorates a robust aggregation rule. The engines call
// only AggregateInto; Aggregate passes through undecorated.
type timedAggregator struct {
	aggregate.Aggregator
	calls *calls
	phase *phaseClock // nil outside the core engine
}

func (a timedAggregator) AggregateInto(dst tensor.Vector, s *aggregate.Scratch, updates []tensor.Vector) error {
	if a.phase != nil {
		a.phase.phase.Store(phaseAggregate)
	}
	t := time.Now()
	err := a.Aggregator.AggregateInto(dst, s, updates)
	a.calls.add(time.Since(t), err)
	return err
}

// consensusStats accumulates what the top-level agreement reports.
type consensusStats struct {
	mu                             sync.Mutex
	excluded, coinRounds, messages int
}

// observedProtocol decorates the top-level consensus protocol. Its return
// marks the end of a core round; with stats set it also times each call.
type observedProtocol struct {
	consensus.Protocol
	clock *roundClock
	phase *phaseClock
	calls *calls          // nil when untraced
	stats *consensusStats // nil when untraced
}

func (p observedProtocol) Agree(ctx *consensus.Context, proposals []tensor.Vector) (tensor.Vector, consensus.Stats, error) {
	t := time.Now()
	v, st, err := p.Protocol.Agree(ctx, proposals)
	end := time.Now()
	if p.calls != nil {
		p.calls.add(end.Sub(t), err)
		p.stats.mu.Lock()
		p.stats.excluded += len(st.Excluded)
		p.stats.coinRounds += st.CoinRounds
		p.stats.messages += st.Messages
		p.stats.mu.Unlock()
	}
	if p.phase != nil {
		p.phase.phase.Store(phaseDisseminate)
	}
	p.clock.mark(end)
	return v, st, err
}

// timedCodec decorates an update codec.
type timedCodec struct {
	codec.Codec
	enc, dec *calls
	rawBytes *atomic.Int64 // float64 bytes handed to EncodeInto
	encBytes *atomic.Int64 // bytes EncodeInto produced
	phase    *phaseClock   // nil outside the core engine
}

func (c timedCodec) EncodeInto(dst []byte, v tensor.Vector, s *codec.Scratch) (int, error) {
	t := time.Now()
	n, err := c.Codec.EncodeInto(dst, v, s)
	c.done(c.enc, time.Since(t), err, false)
	c.rawBytes.Add(int64(8 * len(v)))
	c.encBytes.Add(int64(n))
	return n, err
}

func (c timedCodec) DecodeInto(dst tensor.Vector, src []byte, s *codec.Scratch) error {
	t := time.Now()
	err := c.Codec.DecodeInto(dst, src, s)
	c.done(c.dec, time.Since(t), err, true)
	return err
}

// done records one codec call. The decode that completes the dissemination
// transcode hands the engine back to the next round's train phase.
func (c timedCodec) done(into *calls, d time.Duration, err error, decode bool) {
	into.add(d, err)
	if c.phase == nil {
		return
	}
	switch c.phase.phase.Load() {
	case phaseTrain:
		c.phase.trainCodec.Add(d.Nanoseconds())
	case phaseDisseminate:
		if decode {
			c.phase.phase.Store(phaseTrain)
		}
	}
}

// rootFrames is what the root's endpoint decorator sees of the protocol:
// the first KindGlobal send of each round ends that round, and the first
// KindProposal send of a round starts its top-level agreement.
type rootFrames struct {
	clock    *roundClock
	mu       sync.Mutex
	proposal map[uint32]time.Time
	global   map[uint32]bool
	agreeMS  []float64
}

func newRootFrames() *rootFrames {
	return &rootFrames{clock: newRoundClock(), proposal: map[uint32]time.Time{}, global: map[uint32]bool{}}
}

func (r *rootFrames) sent(f *transport.Frame, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch f.Kind {
	case node.KindProposal:
		if _, ok := r.proposal[f.Round]; !ok {
			r.proposal[f.Round] = t
		}
	case node.KindGlobal:
		if r.global[f.Round] {
			return
		}
		r.global[f.Round] = true
		if p, ok := r.proposal[f.Round]; ok {
			r.agreeMS = append(r.agreeMS, float64(t.Sub(p).Nanoseconds())/1e6)
		}
		r.clock.mark(t)
	}
}

// frameCounts counts Send calls per frame kind across every endpoint.
type frameCounts [256]atomic.Int64

func (c *frameCounts) snapshot() map[uint8]int64 {
	out := map[uint8]int64{}
	for k := range c {
		if n := c[k].Load(); n > 0 {
			out[uint8(k)] = n
		}
	}
	return out
}

// observedEndpoint decorates one node's transport endpoint. Every endpoint
// counts frames per kind; the root's also reports its sends to rootFrames;
// with sends set each Send is timed.
type observedEndpoint struct {
	transport.Endpoint
	frames *frameCounts
	root   *rootFrames // nil except on the root
	sends  *calls      // nil when untraced
}

func (e observedEndpoint) Send(to transport.NodeID, f *transport.Frame) error {
	e.frames[f.Kind].Add(1)
	t := time.Now()
	err := e.Endpoint.Send(to, f)
	if e.sends != nil {
		e.sends.add(time.Since(t), err)
	}
	if e.root != nil {
		e.root.sent(f, t)
	}
	return err
}
