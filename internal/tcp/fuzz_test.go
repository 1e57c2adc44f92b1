package tcp

import (
	"bytes"
	"testing"
)

// maxFuzzData bounds the payload the fuzzer builds segments around, so
// the every-bit-flip sweep stays a few thousand parses per input.
const maxFuzzData = 256

// FuzzTCPHeader is IL's FuzzParseHeader for TCP: the segment parser is
// the trust boundary of the byte stream. Arbitrary bytes never panic
// unmarshal, and an accepted segment re-marshals to one the parser
// accepts identically. The same bytes, read as header fields and a
// payload, build a segment through marshalBlock — the path every
// transmitted segment takes — which must parse back to exactly what
// was marshaled, and with any single bit flipped must be rejected.
func FuzzTCPHeader(f *testing.F) {
	valid := marshal(header{src: 5001, dst: 564, seq: 7, ack: 3, flags: flagACK, win: BufSize - 1}, []byte("9fs payload"))
	f.Add(valid)
	f.Add(valid[:HdrLen])
	f.Add(valid[:HdrLen-1])
	flipped := append([]byte(nil), valid...)
	flipped[12] ^= flagRST
	f.Add(flipped)
	f.Add(marshal(header{src: 5002, dst: 21, seq: 1 << 23, flags: flagSYN}, nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		if h, data, ok := unmarshal(p); ok {
			h2, data2, ok2 := unmarshal(marshal(h, data))
			if !ok2 || h2 != h || !bytes.Equal(data2, data) {
				t.Fatalf("accepted %x, but its re-marshal parsed as %+v/%x, %v", p, h2, data2, ok2)
			}
		}

		if len(p) < 15 {
			return
		}
		h := header{
			src:   uint16(p[0])<<8 | uint16(p[1]),
			dst:   uint16(p[2])<<8 | uint16(p[3]),
			seq:   uint32(p[4])<<24 | uint32(p[5])<<16 | uint32(p[6])<<8 | uint32(p[7]),
			ack:   uint32(p[8])<<24 | uint32(p[9])<<16 | uint32(p[10])<<8 | uint32(p[11]),
			flags: p[12],
			win:   uint16(p[13])<<8 | uint16(p[14]),
		}
		data := p[15:]
		if len(data) > maxFuzzData {
			data = data[:maxFuzzData]
		}
		b := marshalBlock(h, data)
		defer b.Free()
		seg := b.Bytes()
		got, gotData, ok := unmarshal(seg)
		if !ok || got != h || !bytes.Equal(gotData, data) {
			t.Fatalf("marshalBlock(%+v, %x) parsed as %+v/%x, %v", h, data, got, gotData, ok)
		}
		for bit := 0; bit < len(seg)*8; bit++ {
			cp := append([]byte(nil), seg...)
			cp[bit/8] ^= 1 << (bit % 8)
			if _, _, ok := unmarshal(cp); ok {
				t.Fatalf("segment %x accepted with bit %d flipped", seg, bit)
			}
		}
	})
}
