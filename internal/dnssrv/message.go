// Package dnssrv implements the domain name system of §4.2: "the
// domain name server (DNS) is a user level process providing one file,
// /net/dns. A client writes a request of the form domain-name type ...
// DNS performs a recursive query through the Internet domain name
// system producing one line per resource record found ... Like other
// domain name servers, DNS caches information learned from the
// network."
//
// Authoritative zone servers answer over the simulated UDP network;
// the resolver walks delegations from root hints and caches with TTL.
// The wire format is real binary DNS in miniature: the standard
// header, length-prefixed label names, A/NS/CNAME/PTR/TXT records —
// without name compression (documented substitution; it only affects
// packet size).
package dnssrv

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ip"
)

// Record types.
const (
	TypeA     = 1
	TypeNS    = 2
	TypeCNAME = 5
	TypePTR   = 12
	TypeTXT   = 16
)

// TypeName formats a record type for /net/dns output.
func TypeName(t uint16) string {
	switch t {
	case TypeA:
		return "ip"
	case TypeNS:
		return "ns"
	case TypeCNAME:
		return "cname"
	case TypePTR:
		return "ptr"
	case TypeTXT:
		return "txt"
	}
	return fmt.Sprintf("type%d", t)
}

// ParseType maps the /net/dns request type word to a record type.
func ParseType(s string) (uint16, bool) {
	switch strings.ToLower(s) {
	case "ip", "a":
		return TypeA, true
	case "ns":
		return TypeNS, true
	case "cname":
		return TypeCNAME, true
	case "ptr":
		return TypePTR, true
	case "txt":
		return TypeTXT, true
	}
	return 0, false
}

// Header flags.
const (
	flagQR  = 0x8000 // response
	flagAA  = 0x0400 // authoritative answer
	rcodeNX = 3      // name error
)

// RR is a resource record.
type RR struct {
	Name string // canonical lowercase, no trailing dot
	Type uint16
	TTL  uint32
	// Data holds the presentation form: dotted quad for A, a domain
	// name for NS/CNAME/PTR, text for TXT.
	Data string
}

func (r RR) String() string {
	return fmt.Sprintf("%s %s %s", r.Name, TypeName(r.Type), r.Data)
}

// Msg is a DNS message.
type Msg struct {
	ID       uint16
	Response bool
	Auth     bool
	Rcode    int
	QName    string
	QType    uint16
	Answer   []RR
	NS       []RR
	Extra    []RR
}

// Canonical lower-cases and strips the trailing dot.
func Canonical(name string) string {
	return strings.TrimSuffix(lowerASCII(name), ".")
}

// lowerASCII folds A-Z only, as DNS compares names (RFC 4343). Every
// other byte, valid UTF-8 or not, passes through unchanged, so two
// names that differ on the wire other than in ASCII case never fold
// alike.
func lowerASCII(s string) string {
	i := strings.IndexFunc(s, func(r rune) bool { return 'A' <= r && r <= 'Z' })
	if i < 0 {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if 'A' <= b[i] && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// Marshaling errors.
var ErrBadMsg = errors.New("dns: malformed message")

func putName(b []byte, name string) ([]byte, error) {
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if label == "" || len(label) > 63 {
				return nil, ErrBadMsg
			}
			b = append(b, byte(len(label)))
			b = append(b, label...)
		}
	}
	return append(b, 0), nil
}

func getName(p []byte, off int) (string, int, error) {
	var labels []string
	for {
		if off >= len(p) {
			return "", 0, ErrBadMsg
		}
		n := int(p[off])
		off++
		if n == 0 {
			break
		}
		if n > 63 || off+n > len(p) {
			return "", 0, ErrBadMsg
		}
		// A name decodes to the canonical form Marshal writes: ASCII
		// lower case. A label holding a dot, which the dotted form
		// would split on, has no such form.
		label := lowerASCII(string(p[off : off+n]))
		if strings.Contains(label, ".") {
			return "", 0, ErrBadMsg
		}
		labels = append(labels, label)
		off += n
	}
	return strings.Join(labels, "."), off, nil
}

func put16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func put32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func putRR(b []byte, r RR) ([]byte, error) {
	b, err := putName(b, Canonical(r.Name))
	if err != nil {
		return nil, err
	}
	b = put16(b, r.Type)
	b = put16(b, 1) // class IN
	b = put32(b, r.TTL)
	var rdata []byte
	switch r.Type {
	case TypeA:
		a, err := ip.ParseAddr(r.Data)
		if err != nil {
			return nil, err
		}
		rdata = a[:]
	case TypeNS, TypeCNAME, TypePTR:
		rdata, err = putName(nil, Canonical(r.Data))
		if err != nil {
			return nil, err
		}
	default: // TXT and unknown: raw text
		rdata = []byte(r.Data)
	}
	b = put16(b, uint16(len(rdata)))
	return append(b, rdata...), nil
}

func getRR(p []byte, off int) (RR, int, error) {
	var r RR
	name, off, err := getName(p, off)
	if err != nil {
		return r, 0, err
	}
	if off+10 > len(p) {
		return r, 0, ErrBadMsg
	}
	r.Name = name
	r.Type = uint16(p[off])<<8 | uint16(p[off+1])
	r.TTL = uint32(p[off+4])<<24 | uint32(p[off+5])<<16 | uint32(p[off+6])<<8 | uint32(p[off+7])
	rdlen := int(p[off+8])<<8 | int(p[off+9])
	off += 10
	if off+rdlen > len(p) {
		return r, 0, ErrBadMsg
	}
	rdata := p[off : off+rdlen]
	off += rdlen
	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return r, 0, ErrBadMsg
		}
		r.Data = ip.Addr{rdata[0], rdata[1], rdata[2], rdata[3]}.String()
	case TypeNS, TypeCNAME, TypePTR:
		n, _, err := getName(rdata, 0)
		if err != nil {
			return r, 0, err
		}
		r.Data = n
	default:
		r.Data = string(rdata)
	}
	return r, off, nil
}

// Marshal encodes the message.
func (m *Msg) Marshal() ([]byte, error) {
	b := make([]byte, 0, 128)
	b = put16(b, m.ID)
	var flags uint16
	if m.Response {
		flags |= flagQR
	}
	if m.Auth {
		flags |= flagAA
	}
	flags |= uint16(m.Rcode) & 0xf
	b = put16(b, flags)
	b = put16(b, 1) // one question
	b = put16(b, uint16(len(m.Answer)))
	b = put16(b, uint16(len(m.NS)))
	b = put16(b, uint16(len(m.Extra)))
	var err error
	b, err = putName(b, Canonical(m.QName))
	if err != nil {
		return nil, err
	}
	b = put16(b, m.QType)
	b = put16(b, 1)
	for _, sec := range [][]RR{m.Answer, m.NS, m.Extra} {
		for _, r := range sec {
			b, err = putRR(b, r)
			if err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// Unmarshal decodes a message.
func Unmarshal(p []byte) (*Msg, error) {
	if len(p) < 12 {
		return nil, ErrBadMsg
	}
	m := &Msg{}
	m.ID = uint16(p[0])<<8 | uint16(p[1])
	flags := uint16(p[2])<<8 | uint16(p[3])
	m.Response = flags&flagQR != 0
	m.Auth = flags&flagAA != 0
	m.Rcode = int(flags & 0xf)
	qd := int(p[4])<<8 | int(p[5])
	an := int(p[6])<<8 | int(p[7])
	ns := int(p[8])<<8 | int(p[9])
	ar := int(p[10])<<8 | int(p[11])
	if qd != 1 {
		return nil, ErrBadMsg
	}
	name, off, err := getName(p, 12)
	if err != nil {
		return nil, err
	}
	if off+4 > len(p) {
		return nil, ErrBadMsg
	}
	m.QName = name
	m.QType = uint16(p[off])<<8 | uint16(p[off+1])
	off += 4
	read := func(n int) ([]RR, error) {
		var rrs []RR
		for range n {
			var r RR
			r, off, err = getRR(p, off)
			if err != nil {
				return nil, err
			}
			rrs = append(rrs, r)
		}
		return rrs, nil
	}
	if m.Answer, err = read(an); err != nil {
		return nil, err
	}
	if m.NS, err = read(ns); err != nil {
		return nil, err
	}
	if m.Extra, err = read(ar); err != nil {
		return nil, err
	}
	return m, nil
}
