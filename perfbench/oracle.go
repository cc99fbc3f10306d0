package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// oracle checks every reply against what the generator sent. It parses
// the wire by hand rather than through the repository's codecs, so a
// codec bug cannot hide its own wrong answers.
type oracle struct {
	w workload

	// versions maps a kvs SET version to its key; the generator adds a
	// phase's SETs before the phase is sent.
	mu       sync.RWMutex
	versions map[uint64]int32

	keys []string // kvs key names by index

	kvsMisses atomic.Uint64 // GET misses, legal only if the store evicted
	// maxInstance tracks the highest paxos instance a 2B confirmed.
	maxInstance atomic.Uint64
}

func newOracle(w workload) *oracle {
	o := &oracle{w: w, versions: map[uint64]int32{}}
	for k := 0; k < w.keys; k++ {
		o.keys = append(o.keys, kvsKey(k))
	}
	return o
}

// learn records the SET versions of a freshly generated phase.
func (o *oracle) learn(g *generator) {
	o.mu.Lock()
	for v, k := range g.setKey {
		o.versions[v] = k
	}
	o.mu.Unlock()
	clear(g.setKey)
}

func (o *oracle) writtenFor(ver uint64, k int) bool {
	if ver == 0 {
		return true // the preloaded value
	}
	o.mu.RLock()
	got, ok := o.versions[ver]
	o.mu.RUnlock()
	return ok && int(got) == k
}

// check returns "" for a correct reply to request r (whose datagram was
// req), or what is wrong with it.
func (o *oracle) check(r *request, req, reply []byte) string {
	switch r.kind {
	case kindGet, kindSet:
		return o.checkKVS(r, req, reply)
	case kindDNSHit, kindDNSNX:
		return o.checkDNS(r, req, reply)
	default:
		return o.checkPaxos(r, reply)
	}
}

var (
	crlf      = []byte("\r\n")
	endLine   = []byte("END\r\n")
	storedMsg = []byte("STORED\r\n")
)

func (o *oracle) checkKVS(r *request, req, reply []byte) string {
	if len(reply) < 8 || !bytes.Equal(reply[:2], req[:2]) {
		return "bad or mismatched memcache frame"
	}
	body := reply[8:]
	if r.kind == kindSet {
		if !bytes.Equal(body, storedMsg) {
			return fmt.Sprintf("SET answered %q, want STORED", body)
		}
		return ""
	}
	if bytes.Equal(body, endLine) {
		o.kvsMisses.Add(1)
		return ""
	}
	// VALUE <key> 0 <bytes>\r\n<data>\r\nEND\r\n, parsed without
	// allocating: the receivers run this on every reply.
	key := o.keys[r.key]
	head := len("VALUE ") + len(key) + len(" 0 ")
	if len(body) < head || string(body[:6]) != "VALUE " || string(body[6:6+len(key)]) != key ||
		string(body[6+len(key):head]) != " 0 " {
		return fmt.Sprintf("GET %s answered %q", key, body[:min(len(body), 64)])
	}
	n, i := 0, head
	for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
		n = n*10 + int(body[i]-'0')
	}
	rest := body[min(i+2, len(body)):]
	if i == head || !bytes.HasPrefix(body[i:], crlf) || n != o.w.valSize || len(rest) != n+2+len(endLine) ||
		!bytes.Equal(rest[n:n+2], crlf) || !bytes.Equal(rest[n+2:], endLine) {
		return fmt.Sprintf("GET %s answered a malformed value block", key)
	}
	val := rest[:n]
	k, ver, ok := parseValueHead(val)
	if !ok || k != int(r.key) {
		return fmt.Sprintf("GET %s returned a value of another key: %q", key, val[:min(len(val), 26)])
	}
	if !valueIs(val, k, ver) {
		return fmt.Sprintf("GET %s returned corrupt bytes for version %d", key, ver)
	}
	if !o.writtenFor(ver, k) {
		return fmt.Sprintf("GET %s returned version %d, which was never written for it", key, ver)
	}
	return ""
}

func (o *oracle) checkDNS(r *request, req, reply []byte) string {
	if len(reply) < 12 || len(req) < 12 {
		return "short DNS reply"
	}
	qEnd := len(req) // the query is header + question only
	flags := binary.BigEndian.Uint16(reply[2:])
	switch {
	case !bytes.Equal(reply[:2], req[:2]):
		return "DNS reply id mismatch"
	case flags&0x8000 == 0:
		return "DNS reply without QR"
	case binary.BigEndian.Uint16(reply[4:]) != 1:
		return "DNS reply QDCOUNT != 1"
	case len(reply) < qEnd || !bytes.EqualFold(reply[12:qEnd-4], req[12:qEnd-4]) ||
		!bytes.Equal(reply[qEnd-4:qEnd], req[qEnd-4:qEnd]):
		return "DNS reply does not echo the question"
	}
	rcode := flags & 0xF
	an := binary.BigEndian.Uint16(reply[6:])
	if r.kind == kindDNSNX {
		if rcode != 3 || an != 0 {
			return fmt.Sprintf("%s: want NXDOMAIN, got rcode %d with %d answers", dnsNXName(int(r.key)), rcode, an)
		}
		return ""
	}
	if rcode != 0 || an != 1 {
		return fmt.Sprintf("%s: want one answer, got rcode %d with %d answers", dnsName(int(r.key)), rcode, an)
	}
	// The answer: name (a pointer to the question or the name inline),
	// type A, class IN, TTL, rdlength 4, the address.
	off := qEnd
	if off+2 <= len(reply) && reply[off]&0xC0 == 0xC0 {
		off += 2
	} else if off+qEnd-16 <= len(reply) && bytes.EqualFold(reply[off:off+qEnd-16], req[12:qEnd-4]) {
		off += qEnd - 16
	} else {
		return dnsName(int(r.key)) + ": answer name does not match the question"
	}
	if len(reply) != off+14 {
		return fmt.Sprintf("%s: answer record has %d bytes, want 14", dnsName(int(r.key)), len(reply)-off)
	}
	rr := reply[off:]
	want := dnsAddr(int(r.key))
	if binary.BigEndian.Uint16(rr[0:]) != 1 || binary.BigEndian.Uint16(rr[2:]) != 1 ||
		binary.BigEndian.Uint32(rr[4:]) != dnsTTL || binary.BigEndian.Uint16(rr[8:]) != 4 ||
		!bytes.Equal(rr[10:14], want[:]) {
		return fmt.Sprintf("%s: answer %x does not match the zone record %v", dnsName(int(r.key)), rr, want)
	}
	return ""
}

func (o *oracle) checkPaxos(r *request, reply []byte) string {
	if len(reply) < paxosHeader {
		return "short paxos reply"
	}
	typ := reply[0]
	inst := binary.BigEndian.Uint64(reply[1:])
	ballot := binary.BigEndian.Uint32(reply[9:])
	seq := binary.BigEndian.Uint64(reply[29:])
	alen := int(binary.BigEndian.Uint16(reply[37:]))
	vlen := int(binary.BigEndian.Uint16(reply[39:]))
	if len(reply) != paxosHeader+alen+vlen {
		return "paxos reply length does not match its header"
	}
	val := reply[paxosHeader+alen:]
	switch {
	case typ != paxosPhase2B:
		return fmt.Sprintf("instance %d: want a Phase2B, got type %d", r.aux, typ)
	case inst != uint64(r.aux) || ballot != paxosBallot || seq != uint64(r.orig):
		return fmt.Sprintf("instance %d: 2B echoes instance %d ballot %d seq %d", r.aux, inst, ballot, seq)
	case !paxosValueIs(val, inst):
		return fmt.Sprintf("instance %d: 2B carries a different value", r.aux)
	}
	for {
		m := o.maxInstance.Load()
		if inst <= m || o.maxInstance.CompareAndSwap(m, inst) {
			break
		}
	}
	return ""
}
