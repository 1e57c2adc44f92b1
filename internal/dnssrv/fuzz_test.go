package dnssrv

import (
	"reflect"
	"testing"
)

// FuzzDNSMessage drives the wire codec with arbitrary packets: Unmarshal
// must never panic, and a message it accepts must survive Marshal and a
// second Unmarshal unchanged whenever Marshal succeeds.
func FuzzDNSMessage(f *testing.F) {
	for _, m := range []*Msg{
		{ID: 7, QName: "helix.research.bell-labs.com", QType: TypeA},
		{ID: 8, Response: true, Auth: true, QName: "helix.research.bell-labs.com", QType: TypeA,
			Answer: []RR{{Name: "helix.research.bell-labs.com", Type: TypeA, TTL: 3600, Data: "135.104.9.31"}}},
		{ID: 9, Response: true, QName: "bootes.research.bell-labs.com", QType: TypeA,
			NS:    []RR{{Name: "research.bell-labs.com", Type: TypeNS, TTL: 86400, Data: "bootes.research.bell-labs.com"}},
			Extra: []RR{{Name: "bootes.research.bell-labs.com", Type: TypeA, TTL: 86400, Data: "135.104.9.2"}}},
		{ID: 10, Response: true, Auth: true, Rcode: rcodeNX, QName: "nonesuch.bell-labs.com", QType: TypePTR},
		{ID: 11, Response: true, QName: "www.bell-labs.com", QType: TypeTXT,
			Answer: []RR{
				{Name: "www.bell-labs.com", Type: TypeCNAME, TTL: 60, Data: "plan9.bell-labs.com"},
				{Name: "plan9.bell-labs.com", Type: TypeTXT, TTL: 60, Data: "the organization of networks"},
			}},
	} {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := Unmarshal(p)
		if err != nil {
			return
		}
		b, err := m.Marshal()
		if err != nil {
			return
		}
		m2, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("accepted %x as %+v, but its re-marshal %x failed: %v", p, m, b, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("accepted %x as %+v, but its re-marshal %x decoded as %+v", p, m, b, m2)
		}
	})
}
