package main

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"
)

// streamHash hashes everything the generator decides for a short
// schedule: due times, sockets and the datagram bytes.
func streamHash(w workload, seed uint64) [32]byte {
	g := newGenerator(w, seed)
	h := sha256.New()
	for _, ph := range []struct {
		rate float64
		dur  time.Duration
	}{{w.light, 200 * time.Millisecond}, {w.heavy, 300 * time.Millisecond}, {w.heavy * 1.25, 100 * time.Millisecond}} {
		p := g.phase("t", ph.rate, ph.dur)
		for i := range p.reqs {
			var b [10]byte
			binary.BigEndian.PutUint64(b[:], uint64(p.reqs[i].due))
			b[8], b[9] = p.reqs[i].sock, p.reqs[i].kind
			h.Write(b[:])
			h.Write(p.image(i))
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSeedDeterminesStream(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(w, 7), streamHash(w, 7)
		if a != b {
			t.Errorf("%s: seed 7 produced two different streams", w.name)
		}
		if c := streamHash(w, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", w.name)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := make([]byte, 512)
	putValue(v, 123456, 987654321)
	k, ver, ok := parseValueHead(v)
	if !ok || k != 123456 || ver != 987654321 {
		t.Fatalf("parseValueHead = %d, %d, %v", k, ver, ok)
	}
}
