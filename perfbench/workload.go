package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// clientSockets is how many sockets the generator sends from, alternating
// request by request: at most the CPU count of the hosts the benchmark
// runs on, and at least two so the server's reuseport group spreads the
// load over two of its sockets.
const clientSockets = 2

// Protocols the workloads speak.
const (
	protoKVS = iota
	protoDNS
	protoPaxos
)

// Request kinds, as the oracle checks them.
const (
	kindGet = iota
	kindSet
	kindDNSHit
	kindDNSNX
	kindPaxosFresh
	kindPaxosRevote
)

// Limits every workload is judged by. A reply later than replyTimeout
// after its due time is late; late and lost replies count as
// replyTimeout in every percentile, so a window in which more than 1%
// (the loss limit) are late or lost has a p99 over latencyLimit. A hold
// in which more than a tenth of the requests went out later than
// latencyLimit makes the run invalid: the generator could not keep its
// schedule.
const (
	latencyLimit = 2 * time.Millisecond
	replyTimeout = 50 * time.Millisecond
)

// workload is one traffic mix. Rates are absolute offered rates in
// requests per second.
type workload struct {
	name  string
	proto int
	light float64
	heavy float64

	// kvs: key space, store bound, GET share, value size, Zipf skew;
	// tier attaches the NIC tier under the threshold policy at crossKpps.
	keys       int
	maxEntries int
	getFrac    float64
	valSize    int
	zipfS      float64
	tier       bool
	crossKpps  float64
	// dns: zone size, mixed-case share, out-of-zone share.
	names     int
	mixedFrac float64
	nxFrac    float64
	// paxos: share of re-votes of settled instances; keys is the number
	// of instances the acceptor has voted on before the run.
	revoteFrac float64
}

var workloads = []workload{
	{name: "kvs-read", proto: protoKVS, light: 20000, heavy: 50000,
		keys: 100000, getFrac: 0.95, valSize: 32, zipfS: 0.99},
	{name: "kvs-ondemand", proto: protoKVS, light: 4000, heavy: 30000,
		keys: 150000, maxEntries: 100000, getFrac: 0.70, valSize: 512, zipfS: 0.99,
		tier: true, crossKpps: 8},
	{name: "dns-mixcase", proto: protoDNS, light: 20000, heavy: 50000,
		names: 100000, mixedFrac: 0.5, nxFrac: 0.1, zipfS: 0.99},
	{name: "paxos-accept", proto: protoPaxos, light: 20000, heavy: 30000,
		keys: 200000, revoteFrac: 0.1},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// owner returns the workload whose stream the layer ladder replays for
// protocol p when w itself does not speak it.
func owner(w workload, p int) workload {
	if w.proto == p {
		return w
	}
	name := map[int]string{protoKVS: "kvs-read", protoDNS: "dns-mixcase", protoPaxos: "paxos-accept"}[p]
	o, _ := workloadByName(name)
	return o
}

// --- keys, values, names ------------------------------------------------

func kvsKey(i int) string { return fmt.Sprintf("key:%07d", i) }

// putValue fills dst with the value of key k at version ver: the key and
// version in hex, then a filler both determine. The oracle regenerates
// the value from the parsed key and version and compares every byte.
func putValue(dst []byte, k int, ver uint64) {
	const hexd = "0123456789abcdef"
	for i := 0; i < 8; i++ {
		dst[i] = hexd[(k>>(28-4*i))&0xf]
	}
	dst[8] = ':'
	for i := 0; i < 16; i++ {
		dst[9+i] = hexd[(ver>>(60-4*i))&0xf]
	}
	dst[25] = ':'
	f := uint64(k)*7 + ver*13
	for i := 26; i < len(dst); i++ {
		dst[i] = byte('a' + (f+uint64(i))%26)
	}
}

// valueIs reports whether v is exactly the value of key k at version
// ver, without allocating.
func valueIs(v []byte, k int, ver uint64) bool {
	var head [26]byte
	if len(v) < len(head) {
		return false
	}
	putValue(head[:], k, ver)
	if string(v[:26]) != string(head[:]) {
		return false
	}
	f := uint64(k)*7 + ver*13
	for i := 26; i < len(v); i++ {
		if v[i] != byte('a'+(f+uint64(i))%26) {
			return false
		}
	}
	return true
}

// parseValueHead reads the key and version a value starts with.
func parseValueHead(v []byte) (k int, ver uint64, ok bool) {
	if len(v) < 26 || v[8] != ':' || v[25] != ':' {
		return 0, 0, false
	}
	kk, ok1 := parseHex(v[:8])
	vv, ok2 := parseHex(v[9:25])
	return int(kk), vv, ok1 && ok2
}

func parseHex(b []byte) (uint64, bool) {
	var x uint64
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			x = x<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			x = x<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return x, true
}

func dnsName(i int) string   { return fmt.Sprintf("h%06d.bench.example", i) }
func dnsNXName(i int) string { return fmt.Sprintf("x%06d.bench.example", i) }
func dnsAddr(i int) [4]byte  { return [4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)} }

const dnsTTL = 300

// paxosBallot is the one ballot the generator proposes in.
const paxosBallot = 7

// preloadSeq is the sequence number the preloaded 2A of inst carries,
// outside the range of the run's global request ids.
func preloadSeq(inst uint64) int64 { return 1<<62 + int64(inst) }

func paxosValue(inst uint64) []byte {
	v := make([]byte, paxosValueLen)
	binary.BigEndian.PutUint64(v, inst)
	for i := 8; i < len(v); i++ {
		v[i] = byte(inst*31 + uint64(i))
	}
	return v
}

const paxosValueLen = 24

// paxosValueIs reports whether v is paxosValue(inst), without allocating.
func paxosValueIs(v []byte, inst uint64) bool {
	if len(v) != paxosValueLen || binary.BigEndian.Uint64(v) != inst {
		return false
	}
	for i := 8; i < len(v); i++ {
		if v[i] != byte(inst*31+uint64(i)) {
			return false
		}
	}
	return true
}

// --- dataset ------------------------------------------------------------

// dataset encodes the server's initial state for the child: every key at
// version 0 (kvs), every zone record (dns), or the Phase2A of every
// instance voted on before the run (paxos). Records are length-prefixed
// key and value; a zero-length key ends the stream.
func dataset(w workload) []byte {
	var buf []byte
	add := func(key, val []byte) {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
		buf = append(buf, key...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(val)))
		buf = append(buf, val...)
	}
	switch w.proto {
	case protoKVS:
		val := make([]byte, w.valSize)
		for k := 0; k < w.keys; k++ {
			putValue(val, k, 0)
			add([]byte(kvsKey(k)), val)
		}
	case protoDNS:
		for i := 0; i < w.names; i++ {
			a := dnsAddr(i)
			add([]byte(dnsName(i)), a[:])
		}
	case protoPaxos:
		var img []byte
		for inst := uint64(1); inst <= uint64(w.keys); inst++ {
			img = appendPhase2A(img[:0], inst, preloadSeq(inst))
			add(binary.BigEndian.AppendUint64(nil, inst), img)
		}
	}
	return binary.BigEndian.AppendUint16(buf, 0)
}

// --- request stream -----------------------------------------------------

// request is one pre-encoded datagram of a phase.
type request struct {
	due  int64  // ns after the phase start
	off  uint32 // image offset in the phase arena
	n    uint16 // image length
	sock uint8
	kind uint8
	key  int32 // kvs key / dns name index
	aux  int64 // kvs SET version, paxos instance
	orig int64 // paxos: the global id the 2A carries as Seq
}

// phase is the pre-encoded traffic of one timed hold or ladder step.
type phase struct {
	name    string
	rate    float64
	dur     time.Duration
	baseGid int64
	arena   []byte
	reqs    []request
}

func (p *phase) image(i int) []byte {
	r := &p.reqs[i]
	return p.arena[r.off : r.off+uint32(r.n)]
}

// generator produces a workload's request stream from its seed: the same
// seed always yields byte-identical phases.
type generator struct {
	w      workload
	rng    *rand.Rand
	zipf   []float64             // cumulative popularity by rank
	nextID [clientSockets]uint16 // per-socket memcache/dns request id
	gid    int64                 // global request id of the next request
	inst   uint64                // last fresh paxos instance
	// setKey maps a kvs SET's version (gid+1) to its key, for the
	// oracle's "was this version written for this key" check.
	setKey map[uint64]int32
	// fresh lists the paxos fresh 2As: instance and global id, with the
	// due time (ns since the stream started) used to pick settled ones.
	fresh    []freshVote
	streamNs int64
}

type freshVote struct {
	inst uint64
	gid  int64
	due  int64
}

func newGenerator(w workload, seed uint64) *generator {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	g := &generator{w: w, rng: rand.New(rand.NewPCG(seed, h.Sum64())), setKey: map[uint64]int32{}}
	switch w.proto {
	case protoKVS:
		g.zipf = zipfCDF(w.keys, w.zipfS)
	case protoDNS:
		g.zipf = zipfCDF(w.names, w.zipfS)
	case protoPaxos:
		// The preloaded instances are settled before the run starts.
		for inst := uint64(1); inst <= uint64(w.keys); inst++ {
			g.fresh = append(g.fresh, freshVote{inst: inst, gid: preloadSeq(inst), due: math.MinInt64})
		}
		g.inst = uint64(w.keys)
	}
	return g
}

func zipfCDF(n int, s float64) []float64 {
	c := make([]float64, n)
	sum := 0.0
	for i := range c {
		sum += 1 / math.Pow(float64(i+1), s)
		c[i] = sum
	}
	for i := range c {
		c[i] /= sum
	}
	return c
}

func (g *generator) rank() int {
	u := g.rng.Float64()
	i := sort.SearchFloat64s(g.zipf, u)
	if i >= len(g.zipf) {
		i = len(g.zipf) - 1
	}
	return i
}

// phase generates rate requests per second for dur, evenly spaced.
func (g *generator) phase(name string, rate float64, dur time.Duration) *phase {
	n := int(rate * dur.Seconds())
	p := &phase{name: name, rate: rate, dur: dur, baseGid: g.gid,
		reqs: make([]request, n), arena: make([]byte, 0, n*g.imageHint())}
	for i := 0; i < n; i++ {
		r := &p.reqs[i]
		r.due = int64(float64(i) * 1e9 / rate)
		r.sock = uint8(i % clientSockets)
		r.off = uint32(len(p.arena))
		p.arena = g.encode(p.arena, r, g.streamNs+r.due)
		r.n = uint16(len(p.arena) - int(r.off))
		g.gid++
	}
	// Consecutive phases are separated by at least the reply timeout,
	// which keeps paxos re-vote targets settled across the boundary.
	g.streamNs += int64(dur) + int64(replyTimeout)
	return p
}

func (g *generator) imageHint() int {
	switch g.w.proto {
	case protoKVS:
		return 40 + int((1-g.w.getFrac)*float64(g.w.valSize+8))
	case protoDNS:
		return 40
	}
	return 80
}

func (g *generator) id(sock uint8) uint16 {
	id := g.nextID[sock]
	g.nextID[sock]++
	return id
}

// encode appends request r's datagram to dst and fills r's oracle fields.
func (g *generator) encode(dst []byte, r *request, at int64) []byte {
	switch g.w.proto {
	case protoKVS:
		k := g.rank()
		r.key = int32(k)
		// memcache UDP frame: request id, sequence 0, 1 datagram, reserved.
		dst = binary.BigEndian.AppendUint16(dst, g.id(r.sock))
		dst = append(dst, 0, 0, 0, 1, 0, 0)
		if g.rng.Float64() < g.w.getFrac {
			r.kind = kindGet
			dst = append(dst, "get "...)
			dst = append(dst, kvsKey(k)...)
			return append(dst, "\r\n"...)
		}
		r.kind = kindSet
		ver := uint64(g.gid + 1)
		r.aux = int64(ver)
		g.setKey[ver] = int32(k)
		dst = fmt.Appendf(dst, "set %s 0 0 %d\r\n", kvsKey(k), g.w.valSize)
		n := len(dst)
		dst = append(dst, make([]byte, g.w.valSize)...)
		putValue(dst[n:], k, ver)
		return append(dst, "\r\n"...)
	case protoDNS:
		var name string
		if g.rng.Float64() < g.w.nxFrac {
			r.kind, r.key = kindDNSNX, int32(g.rng.IntN(g.w.names))
			name = dnsNXName(int(r.key))
		} else {
			r.kind, r.key = kindDNSHit, int32(g.rank())
			name = dnsName(int(r.key))
		}
		mixed := g.rng.Float64() < g.w.mixedFrac
		bits := g.rng.Uint64()
		dst = binary.BigEndian.AppendUint16(dst, g.id(r.sock))
		dst = append(dst, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0) // RD, QDCOUNT 1
		start := 0
		for i := 0; i <= len(name); i++ {
			if i == len(name) || name[i] == '.' {
				dst = append(dst, byte(i-start))
				for j := start; j < i; j++ {
					c := name[j]
					if mixed && c >= 'a' && c <= 'z' && bits>>(j%64)&1 == 1 {
						c -= 'a' - 'A'
					}
					dst = append(dst, c)
				}
				start = i + 1
			}
		}
		return append(dst, 0, 0, 1, 0, 1) // root, QTYPE A, QCLASS IN
	}
	// paxos: a fresh 2A for the next instance, or a re-send of a 2A whose
	// instance settled at least one reply timeout ago.
	if g.rng.Float64() < g.w.revoteFrac {
		settled := sort.Search(len(g.fresh), func(i int) bool {
			return g.fresh[i].due > at-int64(replyTimeout)
		})
		if settled > 0 {
			f := g.fresh[g.rng.IntN(settled)]
			r.kind, r.aux, r.orig = kindPaxosRevote, int64(f.inst), f.gid
			return appendPhase2A(dst, f.inst, f.gid)
		}
	}
	g.inst++
	r.kind, r.aux, r.orig = kindPaxosFresh, int64(g.inst), g.gid
	g.fresh = append(g.fresh, freshVote{inst: g.inst, gid: g.gid, due: at})
	return appendPhase2A(dst, g.inst, g.gid)
}

// appendPhase2A encodes a Phase2A in the paxos wire layout: type, then
// big-endian instance, ballot, vballot, node id, last voted, client id,
// seq, address length and value length, then address and value.
func appendPhase2A(dst []byte, inst uint64, gid int64) []byte {
	val := paxosValue(inst)
	dst = append(dst, paxosPhase2A)
	dst = binary.BigEndian.AppendUint64(dst, inst)
	dst = binary.BigEndian.AppendUint32(dst, paxosBallot)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	dst = binary.BigEndian.AppendUint16(dst, 0)
	dst = binary.BigEndian.AppendUint64(dst, 0)
	dst = binary.BigEndian.AppendUint16(dst, 1)
	dst = binary.BigEndian.AppendUint64(dst, uint64(gid))
	dst = binary.BigEndian.AppendUint16(dst, 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(val)))
	return append(dst, val...)
}

// Paxos wire message types the benchmark sends and expects.
const (
	paxosPhase2A = 4
	paxosPhase2B = 5
	paxosHeader  = 41
)
