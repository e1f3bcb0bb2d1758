package node

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"abdhfl/internal/codec"
	"abdhfl/internal/tensor"
)

// Model payload encoding. With a codec configured, a model crossing the
// wire is exactly one codec hop: the sender EncodeInto's the vector (Delta
// reference = the round-start global model both ends hold from
// dissemination) and the receiver DecodeInto's the same bytes against the
// same reference — the distributed realization of core.RunHFL's per-hop
// Transcode, which is what keeps the two engines byte-identical. Without a
// codec, payloads are raw little-endian float64s (lossless).

// encodeModel returns v's wire payload against the current global as the
// codec reference.
func (e *Engine) encodeModel(v tensor.Vector) ([]byte, error) {
	if e.cdc != nil {
		e.cs.Ref = e.global
		buf := make([]byte, e.cdc.WireBytes(len(v)))
		n, err := e.cdc.EncodeInto(buf, v, e.cs)
		if err != nil {
			return nil, err
		}
		return buf[:n], nil
	}
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf, nil
}

// decodeModel reconstructs a wire payload into dst against the current
// global as the codec reference.
func (e *Engine) decodeModel(dst tensor.Vector, src []byte) error {
	if e.cdc != nil {
		e.cs.Ref = e.global
		return e.cdc.DecodeInto(dst, src, e.cs)
	}
	if len(src) != 8*len(dst) {
		return fmt.Errorf("node: raw model payload is %d bytes, want %d", len(src), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return nil
}

// transcodeLocal applies the codec hop to a vector handed over locally
// (a leader's own update, or a partial whose parent leader is the same
// process): the value must degrade exactly as if it had crossed the wire.
func (e *Engine) transcodeLocal(v tensor.Vector) error {
	if e.cdc == nil {
		return nil
	}
	e.cs.Ref = e.global
	_, err := codec.Transcode(e.cdc, v, e.cs)
	return err
}

// Partial message wire format: [u32 LE model length][model payload][JSON
// audit list]. The audit list accumulates every WireAudit produced in the
// sender's subtree this round, so the root can reassemble the run-wide
// filter audit without a separate reporting channel.

// encodePartial frames a partial model payload with its subtree audits.
func encodePartial(model []byte, audits []WireAudit) ([]byte, error) {
	tail, err := json.Marshal(audits)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4+len(model)+len(tail))
	binary.LittleEndian.PutUint32(out, uint32(len(model)))
	copy(out[4:], model)
	copy(out[4+len(model):], tail)
	return out, nil
}

// ABA ballot-exchange wire formats. Proposals ship as raw little-endian
// float64s with NO codec hop: the root sends each contributing leader the
// exact decoded vectors it holds, so the leader's validation scores — and
// therefore its ballot bits — are bit-identical to what the root (or
// RunHFL) would compute centrally. A codec hop here would let quantization
// noise diverge the distributed ballots from the core engine's.

// encodeProposals frames a KindProposal payload: the receiver's consensus
// member index plus every contributing proposal in member order.
// Layout: [u32 member][u32 count][u32 dim][count×dim×f64 LE].
func encodeProposals(member int, proposals []tensor.Vector) []byte {
	dim := 0
	if len(proposals) > 0 {
		dim = len(proposals[0])
	}
	out := make([]byte, 12+8*len(proposals)*dim)
	binary.LittleEndian.PutUint32(out, uint32(member))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(proposals)))
	binary.LittleEndian.PutUint32(out[8:], uint32(dim))
	off := 12
	for _, p := range proposals {
		for _, x := range p {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(x))
			off += 8
		}
	}
	return out
}

// decodeProposals parses a KindProposal payload.
func decodeProposals(raw []byte) (member int, proposals []tensor.Vector, err error) {
	if len(raw) < 12 {
		return 0, nil, fmt.Errorf("node: proposal message truncated (%d bytes)", len(raw))
	}
	member = int(binary.LittleEndian.Uint32(raw))
	count := int(binary.LittleEndian.Uint32(raw[4:]))
	dim := int(binary.LittleEndian.Uint32(raw[8:]))
	// count and dim come off the wire: check the body by division, so a
	// header whose count×dim product wraps can never pass and size the
	// allocation below.
	body := len(raw) - 12
	if dim == 0 && (count > 0 || body != 0) || dim > 0 && (body%(8*dim) != 0 || body/(8*dim) != count) {
		return 0, nil, fmt.Errorf("node: proposal message has %d body bytes for %d×%d proposals", body, count, dim)
	}
	proposals = make([]tensor.Vector, count)
	off := 12
	for i := range proposals {
		v := tensor.NewVector(dim)
		for j := range v {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
			off += 8
		}
		proposals[i] = v
	}
	return member, proposals, nil
}

// encodeBallot frames a KindBallot payload: the sender's consensus member
// index plus its validation-voting bits over the proposals.
// Layout: [u32 member][u32 nbits][nbits×u8].
func encodeBallot(member int, bits []bool) []byte {
	out := make([]byte, 8+len(bits))
	binary.LittleEndian.PutUint32(out, uint32(member))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(bits)))
	for i, b := range bits {
		if b {
			out[8+i] = 1
		}
	}
	return out
}

// decodeBallot parses a KindBallot payload.
func decodeBallot(raw []byte) (member int, bits []bool, err error) {
	if len(raw) < 8 {
		return 0, nil, fmt.Errorf("node: ballot message truncated (%d bytes)", len(raw))
	}
	member = int(binary.LittleEndian.Uint32(raw))
	n := int(binary.LittleEndian.Uint32(raw[4:]))
	if n < 0 || len(raw) != 8+n {
		return 0, nil, fmt.Errorf("node: ballot message is %d bytes, want %d", len(raw), 8+n)
	}
	bits = make([]bool, n)
	for i := range bits {
		bits[i] = raw[8+i] != 0
	}
	return member, bits, nil
}

// decodePartial splits a partial message into its model payload and
// audits. The model bytes alias raw.
func decodePartial(raw []byte) (model []byte, audits []WireAudit, err error) {
	if len(raw) < 4 {
		return nil, nil, fmt.Errorf("node: partial message truncated (%d bytes)", len(raw))
	}
	n := int(binary.LittleEndian.Uint32(raw))
	if n < 0 || 4+n > len(raw) {
		return nil, nil, fmt.Errorf("node: partial model length %d exceeds message (%d bytes)", n, len(raw))
	}
	if err := json.Unmarshal(raw[4+n:], &audits); err != nil {
		return nil, nil, fmt.Errorf("node: partial audit list: %w", err)
	}
	return raw[4 : 4+n], audits, nil
}
