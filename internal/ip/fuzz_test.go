package ip

import (
	"bytes"
	"testing"

	"repro/internal/block"
)

// maxFuzzPayload bounds the payload the fuzzer builds packets around:
// one Ethernet MTU, well inside the 16-bit length field.
const maxFuzzPayload = 1500

// FuzzIPHeader throws arbitrary bytes at the IP header parser, the
// trust boundary of everything carried over the Ethernet. Unmarshal
// never panics, and an accepted packet re-marshals through PrependTo
// — the path every transmitted packet takes — to one that parses
// identically. The same bytes, read as header fields and a payload,
// build a packet that must parse back to exactly what was marshaled,
// and with any single header bit flipped must be rejected.
func FuzzIPHeader(f *testing.F) {
	h := Header{ID: 7, TTL: DefaultTTL, Proto: ProtoIL, Src: Addr{135, 104, 9, 31}, Dst: Addr{135, 104, 53, 11}}
	valid := h.Marshal([]byte("il payload"))
	f.Add(valid)
	f.Add(valid[:HdrLen])
	f.Add(valid[:HdrLen-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		if h, payload, err := Unmarshal(p); err == nil {
			b := block.Copy(payload, HdrLen)
			h.PrependTo(b)
			h2, payload2, err2 := Unmarshal(b.Bytes())
			if err2 != nil || h2 != h || !bytes.Equal(payload2, payload) {
				t.Fatalf("accepted %x, but its re-marshal parsed as %+v/%x, %v", p, h2, payload2, err2)
			}
			b.Free()
		}

		if len(p) < 12 {
			return
		}
		h := Header{
			ID:    uint16(p[0])<<8 | uint16(p[1]),
			TTL:   p[2],
			Proto: p[3],
			Src:   Addr{p[4], p[5], p[6], p[7]},
			Dst:   Addr{p[8], p[9], p[10], p[11]},
		}
		payload := p[12:]
		if len(payload) > maxFuzzPayload {
			payload = payload[:maxFuzzPayload]
		}
		b := block.Copy(payload, HdrLen)
		defer b.Free()
		h.PrependTo(b)
		pkt := b.Bytes()
		h.Len = uint16(len(pkt))
		got, gotPayload, err := Unmarshal(pkt)
		if err != nil || got != h || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("PrependTo(%+v, %x) parsed as %+v/%x, %v", h, payload, got, gotPayload, err)
		}
		for bit := 0; bit < HdrLen*8; bit++ {
			cp := append([]byte(nil), pkt...)
			cp[bit/8] ^= 1 << (bit % 8)
			if _, _, err := Unmarshal(cp); err == nil {
				t.Fatalf("packet %x accepted with header bit %d flipped", pkt, bit)
			}
		}
	})
}

// FuzzChecksum holds Checksum to the RFC 1071 reference on arbitrary
// bytes, starting at an arbitrary offset so the word loads are
// misaligned as often as not.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 67), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(1))

	f.Fuzz(func(t *testing.T, p []byte, off uint8) {
		if len(p) > 0 {
			p = p[int(off)%len(p):]
		}
		if got, want := Checksum(p), refChecksum(p); got != want {
			t.Fatalf("Checksum(%x) = %#04x, RFC 1071 gives %#04x", p, got, want)
		}
	})
}
