package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop generator: one process, one pacing thread, one receive
// goroutine per client socket. Requests are pre-encoded per phase,
// released on their due times in sub-millisecond slices, and every reply
// is matched to its request, checked by the oracle and timed from the
// request's due time. In the timed holds the generator re-sends a request
// still unanswered after each of retryAfter, as memcache-over-UDP and DNS
// clients retransmit; a request is timed from its due time, so a re-sent
// one counts at least its first retry delay in every latency percentile.
// A reply is matched by its 16-bit request id (kvs, dns) or the global id
// it echoes (paxos).

var monoBase = time.Now()

// mono is the generator's clock: nanoseconds since start, monotonic.
func mono() int64 { return int64(time.Since(monoBase)) }

// paceSlice caps one pacing sleep.
const paceSlice = 100 * time.Microsecond

// retryAfter lists when, after its due time, a hold re-sends a request
// that has no reply yet: exponential backoff from 20 ms. Re-sends draw on
// a budget of retryShare times the hold's rate, oldest request first, so
// a stall of the server is not followed by a retransmission storm that
// prolongs it; a re-send waiting for budget goes out late. A request
// still unanswered giveUp after its due time has failed.
var retryAfter = [...]time.Duration{
	20 * time.Millisecond, 60 * time.Millisecond, 140 * time.Millisecond,
	300 * time.Millisecond, 620 * time.Millisecond, 1260 * time.Millisecond,
	1900 * time.Millisecond, 2600 * time.Millisecond, 3300 * time.Millisecond,
}

const (
	retryShare = 0.5
	giveUp     = 4000 * time.Millisecond
)

// livePhase is a phase while it is being sent and answered.
type livePhase struct {
	*phase
	gen   int64
	start int64   // mono ns of due time 0
	recv  []int64 // mono ns the reply arrived, 0 if none
	// retry re-sends unanswered requests (the holds, not the ladder
	// steps); answered counts the requests with a reply, resent the
	// re-sends.
	retry    bool
	answered atomic.Int64
	resent   int
	// revotes maps a paxos 2A's global id to the re-sends of it in this
	// phase, so a reply echoing that id can be matched to the right send.
	revotes map[int64][]int32
	lag     lagHist
}

// lagHist counts how late the pacer released requests, in µs buckets.
type lagHist [4096]uint32

func (h *lagHist) add(ns int64, n int) {
	us := ns / 1000
	if us >= int64(len(h)) {
		us = int64(len(h)) - 1
	}
	h[us] += uint32(n)
}

func (h *lagHist) merge(o *lagHist) {
	for i := range h {
		h[i] += o[i]
	}
}

// quantile returns the q-quantile in µs.
func (h *lagHist) quantile(q float64) float64 {
	var total uint64
	for _, c := range h {
		total += uint64(c)
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total-1)) + 1
	var acc uint64
	for i, c := range h {
		acc += uint64(c)
		if acc >= rank {
			return float64(i) + 0.5
		}
	}
	return float64(len(h))
}

// loadgen drives one child.
type loadgen struct {
	w     workload
	orc   *oracle
	conns []*mconn
	slots [][65536]atomic.Int64 // per socket: request id -> gen<<32 | index
	// prev holds each id's previous owner, whose late or duplicate reply
	// can still arrive after the id was reused: a 16-bit id recurs every
	// 2.6 s on a socket at 25 kpps, and a re-send or a server stall can
	// delay a reply by about as long.
	prev   [][65536]atomic.Int64
	phases [256]atomic.Pointer[livePhase] // by gen, the recent phases
	cur    atomic.Pointer[livePhase]
	gen    int64
	wg     sync.WaitGroup
	stale  atomic.Uint64 // replies to closed phases or unknown requests
	dups   atomic.Uint64
	wrong  atomic.Uint64
	firstW atomic.Pointer[string]
}

// newLoadgen connects clientSockets client sockets to addr. Each socket
// is re-dialled until it lands on a server socket no other client socket
// uses (when there are enough), so the kernel's reuseport hash spreads the
// load the same way on every run.
func newLoadgen(w workload, orc *oracle, addr string, c *childProc) (*loadgen, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	n := clientSockets
	g := &loadgen{w: w, orc: orc, slots: make([][65536]atomic.Int64, n), prev: make([][65536]atomic.Int64, n)}
	used := map[int]bool{}
	for s := 0; s < n; s++ {
		var uc *net.UDPConn
		for attempt := 0; ; attempt++ {
			if uc, err = net.DialUDP("udp", nil, ua); err != nil {
				return nil, err
			}
			_ = uc.SetReadBuffer(4 << 20)
			_ = uc.SetWriteBuffer(4 << 20)
			shard, err := probeShard(uc, c)
			if err != nil {
				uc.Close()
				return nil, err
			}
			if !used[shard] || len(used) >= nproc || attempt == 31 {
				used[shard] = true
				break
			}
			uc.Close()
		}
		mc, err := newMconn(uc)
		if err != nil {
			return nil, err
		}
		g.conns = append(g.conns, mc)
	}
	for s := range g.conns {
		g.wg.Add(1)
		go g.receive(s)
	}
	return g, nil
}

// probeShard sends one junk byte on uc and reports which server shard's
// socket read it.
func probeShard(uc *net.UDPConn, c *childProc) (int, error) {
	before, err := c.stat()
	if err != nil {
		return 0, err
	}
	if _, err := uc.Write([]byte{0}); err != nil {
		return 0, err
	}
	for i := 0; i < 200; i++ {
		after, err := c.stat()
		if err != nil {
			return 0, err
		}
		for sh := range after.DP.Shards {
			if sh < len(before.DP.Shards) && after.DP.Shards[sh].ReadBatches > before.DP.Shards[sh].ReadBatches {
				// Discard the error reply some protocols send to junk.
				_ = uc.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
				buf := make([]byte, 2048)
				for {
					if _, err := uc.Read(buf); err != nil {
						break
					}
				}
				_ = uc.SetReadDeadline(time.Time{})
				return sh, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("probe datagram never reached the server")
}

func (g *loadgen) close() {
	for _, c := range g.conns {
		c.uc.Close()
	}
	g.wg.Wait()
}

func (g *loadgen) receive(s int) {
	defer g.wg.Done()
	c := g.conns[s]
	for {
		n, err := c.recv()
		if err != nil {
			return
		}
		at := mono()
		lp := g.cur.Load()
		for j := 0; j < n; j++ {
			g.onReply(lp, s, c.datagram(j), at)
		}
	}
}

func (g *loadgen) onReply(lp *livePhase, s int, d []byte, at int64) {
	if lp == nil || len(d) < 2 {
		g.stale.Add(1)
		return
	}
	i := -1
	id := binary.BigEndian.Uint16(d)
	if g.w.proto == protoPaxos {
		i = lp.matchPaxos(s, d)
	} else if v := g.slots[s][id].Load(); v>>32 == lp.gen {
		i = int(uint32(v))
	}
	if i < 0 {
		g.stale.Add(1)
		return
	}
	if atomic.LoadInt64(&lp.recv[i]) != 0 {
		g.dups.Add(1)
		return
	}
	msg := g.orc.check(&lp.reqs[i], lp.image(i), d)
	if msg != "" && g.w.proto != protoPaxos && g.answersPrev(lp, s, id, d, at) {
		return
	}
	if !atomic.CompareAndSwapInt64(&lp.recv[i], 0, at) {
		g.dups.Add(1)
		return
	}
	lp.answered.Add(1)
	if msg != "" {
		if g.wrong.Add(1) == 1 {
			desc := fmt.Sprintf("phase %s request #%d (global id %d, %x): %s",
				lp.name, i, lp.baseGid+int64(i), lp.image(i)[:min(int(lp.reqs[i].n), 48)], msg)
			g.firstW.Store(&desc)
		}
	}
}

// answersPrev reports whether d, wrong for the current owner of id on
// socket s, is a correct reply to the id's previous owner. It then counts
// as that request's reply when the request belongs to lp and has none
// yet, and as stale otherwise.
func (g *loadgen) answersPrev(lp *livePhase, s int, id uint16, d []byte, at int64) bool {
	v := g.prev[s][id].Load()
	pp := g.phases[(v>>32)%int64(len(g.phases))].Load()
	j := int(uint32(v))
	if pp == nil || pp.gen != v>>32 || g.orc.check(&pp.reqs[j], pp.image(j), d) != "" {
		return false
	}
	if pp == lp && atomic.CompareAndSwapInt64(&lp.recv[j], 0, at) {
		lp.answered.Add(1)
	} else {
		g.stale.Add(1)
	}
	return true
}

// matchPaxos finds the send a 2B answers: the fresh 2A whose global id
// it echoes, or else a re-send of that 2A on the same socket.
func (lp *livePhase) matchPaxos(s int, d []byte) int {
	if len(d) < paxosHeader {
		return -1
	}
	gid := int64(binary.BigEndian.Uint64(d[29:]))
	if i := gid - lp.baseGid; i >= 0 && i < int64(len(lp.reqs)) &&
		lp.reqs[i].kind == kindPaxosFresh && int(lp.reqs[i].sock) == s && atomic.LoadInt64(&lp.recv[i]) == 0 {
		return int(i)
	}
	for _, i := range lp.revotes[gid] {
		if int(lp.reqs[i].sock) == s && atomic.LoadInt64(&lp.recv[i]) == 0 {
			return int(i)
		}
	}
	return -1
}

// run sends p open loop and returns once every reply arrived or the
// reply timeout (giveUp with retry) after the last due time passed.
func (g *loadgen) run(p *phase, retry bool) *livePhase {
	g.gen++
	lp := &livePhase{phase: p, gen: g.gen, recv: make([]int64, len(p.reqs)), retry: retry}
	if g.w.proto == protoPaxos {
		lp.revotes = map[int64][]int32{}
		for i := range p.reqs {
			if p.reqs[i].kind == kindPaxosRevote {
				lp.revotes[p.reqs[i].orig] = append(lp.revotes[p.reqs[i].orig], int32(i))
			}
		}
	}
	lp.start = mono() + int64(time.Millisecond)
	g.phases[lp.gen%int64(len(g.phases))].Store(lp)
	g.cur.Store(lp)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		g.pace(lp)
	}()
	<-done
	last := lp.start
	if n := len(p.reqs); n > 0 {
		last += p.reqs[n-1].due
	}
	deadline := last + int64(replyTimeout)
	if retry {
		deadline = last + int64(giveUp)
	}
	for mono() < deadline && !lp.allAnswered() {
		time.Sleep(time.Millisecond)
	}
	g.cur.Store(nil)
	return lp
}

func (lp *livePhase) allAnswered() bool { return lp.answered.Load() == int64(len(lp.reqs)) }

// pace releases lp's requests on their due times and, with lp.retry,
// re-sends each one still unanswered retryAfter[k] after its due time.
// Every retry level walks the requests in due order behind its own
// cursor; the later levels, whose requests are older, spend the re-send
// budget first. It returns when nothing is left to send: every request
// was sent and has a reply, or its last retry went out.
func (g *loadgen) pace(lp *livePhase) {
	setTimerSlack()
	bufs := make([][][]byte, len(g.conns))
	reqs := lp.reqs
	levels := 0
	if lp.retry {
		levels = len(retryAfter)
	}
	var cur [len(retryAfter)]int
	next := 0
	perNs := retryShare * lp.rate / 1e9 // re-send budget accrual
	tokens, last := 0.0, mono()-lp.start
	for {
		t := mono() - lp.start
		tokens = min(tokens+float64(t-last)*perNs, maxBatch)
		last = t
		room := maxBatch * len(g.conns)
		for next < len(reqs) && reqs[next].due <= t && room > 0 {
			r := &reqs[next]
			img := lp.image(next)
			if g.w.proto != protoPaxos {
				id := binary.BigEndian.Uint16(img)
				g.prev[r.sock][id].Store(g.slots[r.sock][id].Swap(lp.gen<<32 | int64(next)))
			}
			bufs[r.sock] = append(bufs[r.sock], img)
			lp.lag.add(t-r.due, 1)
			next++
			room--
		}
		blocked := false
		for k := levels - 1; k >= 0; k-- {
			after := int64(retryAfter[k])
			for cur[k] < next && reqs[cur[k]].due+after <= t && room > 0 {
				i := cur[k]
				if atomic.LoadInt64(&lp.recv[i]) == 0 && g.ownsID(lp, i) {
					if tokens < 1 {
						blocked = true
						break
					}
					tokens--
					bufs[reqs[i].sock] = append(bufs[reqs[i].sock], lp.image(i))
					lp.resent++
					room--
				}
				cur[k]++
			}
		}
		if room < maxBatch*len(g.conns) {
			g.flush(bufs)
			continue
		}
		// Nothing went out: sleep until the next original, re-send or
		// re-send budget.
		wake := int64(math.MaxInt64)
		if next < len(reqs) {
			wake = reqs[next].due
		} else if lp.allAnswered() {
			return
		}
		for k := 0; k < levels; k++ {
			if cur[k] < len(reqs) {
				wake = min(wake, reqs[cur[k]].due+int64(retryAfter[k]))
			}
		}
		if blocked {
			wake = min(wake, t+int64((1-tokens)/perNs)+1)
		}
		if wake == math.MaxInt64 {
			return
		}
		sleepNs(max(1, min(wake-t, int64(paceSlice))))
	}
}

// ownsID reports whether request i of lp still owns its request id on its
// socket: a re-send after a later request took the id over could not be
// told apart from that request's reply, so it is not made.
func (g *loadgen) ownsID(lp *livePhase, i int) bool {
	if g.w.proto == protoPaxos {
		return true
	}
	id := binary.BigEndian.Uint16(lp.image(i))
	return g.slots[lp.reqs[i].sock][id].Load() == lp.gen<<32|int64(i)
}

// flush sends and empties every socket's queued datagrams.
func (g *loadgen) flush(bufs [][][]byte) {
	for s, b := range bufs {
		for len(b) > 0 {
			k := min(len(b), maxBatch)
			if err := g.conns[s].send(b[:k]); err != nil {
				// The datagrams count as lost; the run goes on.
				break
			}
			b = b[k:]
		}
		bufs[s] = bufs[s][:0]
	}
}

// --- per-phase analysis -------------------------------------------------

// outcome summarizes the requests of a phase whose due time falls in a
// window.
type outcome struct {
	sent, ok, late, lost int
	// lat is each request's latency from its due time in ns, in due
	// order; failures count as the reply timeout.
	lat []int64
}

// outcome collects the requests due in [from, to) (mono ns).
func (lp *livePhase) outcome(from, to int64) outcome {
	return lp.where(func(due int64) bool { return due >= from && due < to })
}

// where collects the requests whose due time (mono ns) satisfies keep.
func (lp *livePhase) where(keep func(due int64) bool) outcome {
	var o outcome
	for i := range lp.reqs {
		due := lp.start + lp.reqs[i].due
		if !keep(due) {
			continue
		}
		o.sent++
		r := atomic.LoadInt64(&lp.recv[i])
		switch {
		case r == 0:
			o.lost++
			o.lat = append(o.lat, int64(replyTimeout))
		case r-due > int64(replyTimeout):
			o.late++
			o.lat = append(o.lat, int64(replyTimeout))
		default:
			o.ok++
			o.lat = append(o.lat, r-due)
		}
	}
	return o
}

func (lp *livePhase) all() outcome { return lp.outcome(lp.start, 1<<62) }

func (lp *livePhase) end() int64 { return lp.start + int64(lp.dur) }

func (o *outcome) add(p outcome) {
	o.sent += p.sent
	o.ok += p.ok
	o.late += p.late
	o.lost += p.lost
	o.lat = append(o.lat, p.lat...)
}

// quantileUs returns the q-quantile latency in µs (nearest rank).
func (o *outcome) quantileUs(q float64) float64 { return quantileUs(o.lat, q) }

func quantileUs(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / 1e3
}

// p99Window is how many consecutive requests one p99 sample covers: the
// smallest count whose p99 still has ten samples beyond it.
const p99Window = 1000

// p99Us splits the requests, in due order, into consecutive windows of
// p99Window and returns the lower quartile over the windows of each
// window's p99: the tail the server produces in the hold's calmer
// stretches. On the shared 2-vCPU development host, vCPU preemption hits
// most windows to a degree that changes from run to run; the median over
// windows moved by 25-30% between runs of the same code, the lower
// quartile by 5-15%. A slowdown the server causes in more than three
// quarters of the windows still moves it. Fewer requests than one window
// give the plain p99.
func (o *outcome) p99Us() float64 {
	var per []float64
	for off := 0; off+p99Window <= len(o.lat); off += p99Window {
		per = append(per, quantileUs(o.lat[off:off+p99Window], 0.99))
	}
	if len(per) == 0 {
		return o.quantileUs(0.99)
	}
	sort.Float64s(per)
	return per[len(per)/4]
}

func (o *outcome) failRatio() float64 {
	if o.sent == 0 {
		return 0
	}
	return float64(o.late+o.lost) / float64(o.sent)
}
