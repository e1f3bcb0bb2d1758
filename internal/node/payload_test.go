package node

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"abdhfl/internal/tensor"
)

// proposalHeader builds a bare KindProposal header followed by body zero
// bytes.
func proposalHeader(member, count, dim uint32, body int) []byte {
	raw := make([]byte, 12+body)
	binary.LittleEndian.PutUint32(raw, member)
	binary.LittleEndian.PutUint32(raw[4:], count)
	binary.LittleEndian.PutUint32(raw[8:], dim)
	return raw
}

func TestDecodeProposals(t *testing.T) {
	valid := []tensor.Vector{{1, -2.5, 3}, {0.25, 5, -6}}
	cases := []struct {
		name    string
		raw     []byte
		wantErr bool
		member  int
		want    []tensor.Vector
	}{
		// count×dim = 2³¹×2³⁰ wraps to 0 in 64-bit arithmetic, so a
		// multiplying length check would accept this 12-byte payload.
		{"wrapping header", proposalHeader(0, 1<<31, 1<<30, 0), true, 0, nil},
		{"short header", []byte{1, 0, 0, 0, 2, 0, 0}, true, 0, nil},
		{"truncated body", encodeProposals(1, valid)[:12+8*5], true, 0, nil},
		{"trailing bytes", append(encodeProposals(1, valid), 0), true, 0, nil},
		{"zero dim with proposals", proposalHeader(0, 3, 0, 0), true, 0, nil},
		{"body not a whole vector", proposalHeader(0, 1, 2, 12), true, 0, nil},
		{"valid", encodeProposals(1, valid), false, 1, valid},
		{"empty", encodeProposals(4, nil), false, 4, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			member, proposals, err := decodeProposals(tc.raw)
			runtime.ReadMemStats(&after)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted %d-byte payload: %d proposals", len(tc.raw), len(proposals))
				}
				// A rejection may format an error, never size a buffer
				// from the header.
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
					t.Fatalf("rejecting the payload allocated %d bytes", grew)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if member != tc.member {
				t.Fatalf("member = %d, want %d", member, tc.member)
			}
			if len(proposals) != len(tc.want) {
				t.Fatalf("%d proposals, want %d", len(proposals), len(tc.want))
			}
			for i := range tc.want {
				if !reflect.DeepEqual(proposals[i], tc.want[i]) {
					t.Fatalf("proposal %d = %v, want %v", i, proposals[i], tc.want[i])
				}
			}
		})
	}
}
