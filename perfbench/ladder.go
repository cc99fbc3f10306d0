package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/simnet"
)

// spanStats are the traced run's handler numbers over its heavy hold.
type spanStats struct {
	batches    int
	batchMean  float64 // items per handler batch
	handlerNs  float64 // handler self time
	batchP99Us float64
}

// readSpans reads the traced child's span file and summarizes the
// handler spans that started during the traced heavy hold.
func readSpans(path string, t *runResult) (spanStats, error) {
	var st spanStats
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	base := monoBase.UnixNano()
	from, to := base+t.heavy.lp.start, base+t.heavy.lp.end()+int64(replyTimeout)
	var durs []int64
	items := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			Name       string
			Items      int
			Start, End int64
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return st, fmt.Errorf("%s: %w", path, err)
		}
		if s.Name != "handler.batch" || s.Start < from || s.Start >= to {
			continue
		}
		durs = append(durs, s.End-s.Start)
		items += s.Items
		st.handlerNs += float64(s.End - s.Start)
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	if len(durs) == 0 {
		return st, fmt.Errorf("%s: no handler spans during the heavy hold", path)
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	st.batches = len(durs)
	st.batchMean = float64(items) / float64(len(durs))
	st.batchP99Us = float64(durs[min(len(durs)-1, int(0.99*float64(len(durs))))]) / 1e3
	return st, nil
}

// --- the layer ladder ---------------------------------------------------

// ladderItems caps how many requests of a stream one rung round replays.
const (
	ladderItems  = 20000
	ladderRounds = 7
)

// timeRung runs fn (which handles n items) ladderRounds times and
// returns the median ns per item.
func timeRung(n int, fn func()) float64 {
	var per []float64
	for r := 0; r < ladderRounds; r++ {
		runtime.GC()
		start := time.Now()
		fn()
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(max(n, 1)))
	}
	return median(per)
}

// stream returns the first requests of o's heavy hold for seed.
func stream(o workload, seed uint64) *phase {
	g := newGenerator(o, seed)
	return g.phase("ladder", o.heavy, time.Duration(float64(ladderItems)/o.heavy*float64(time.Second)))
}

// batches splits items into engine-sized batches.
func batches(items []*dataplane.BatchItem, size int) [][]*dataplane.BatchItem {
	var out [][]*dataplane.BatchItem
	for len(items) > 0 {
		k := min(size, len(items))
		out = append(out, items[:k])
		items = items[k:]
	}
	return out
}

func batchItems(p *phase) []*dataplane.BatchItem {
	items := make([]*dataplane.BatchItem, len(p.reqs))
	for i := range items {
		buf := make([]byte, 0, 1024)
		items[i] = &dataplane.BatchItem{In: p.image(i), Scratch: &buf}
	}
	return items
}

func runBatches(bs [][]*dataplane.BatchItem, fn func([]*dataplane.BatchItem)) {
	for _, b := range bs {
		for _, it := range b {
			it.Out, it.Served = nil, false
		}
		fn(b)
	}
}

// kvsStore builds o's store with its dataset loaded.
func kvsStore(o workload) *kvs.ShardedStore {
	st := kvs.NewShardedStore(0, o.maxEntries)
	val := make([]byte, o.valSize)
	for k := 0; k < o.keys; k++ {
		putValue(val, k, 0)
		st.SetBytes([]byte(kvsKey(k)), kvs.Entry{Value: val})
	}
	return st
}

// ladder replays the seeded request streams through each layer's public
// entry point alone: codec, store, handler and NIC tier. Each protocol's
// rungs replay w's own stream when w speaks it, else the stream of the
// workload built for that protocol, so every rung is measured on every
// workload. batch is the live engine's mean handler batch.
func ladder(w workload, seed uint64, batch float64, rep *report) error {
	b := max(1, int(math.Round(batch)))

	// memcache and kvs.
	o := owner(w, protoKVS)
	p := stream(o, seed)
	var views []memcache.RequestView
	var getKeys [][]byte
	for i := range p.reqs {
		var v memcache.RequestView
		if err := memcache.ParseRequestView(p.image(i)[8:], &v); err == nil {
			views = append(views, v)
			if v.Op == memcache.OpGet {
				getKeys = append(getKeys, v.Key)
			}
		}
	}
	rep.set("memcache.parse_ns", timeRung(len(p.reqs), func() {
		var v memcache.RequestView
		for i := range p.reqs {
			_ = memcache.ParseRequestView(p.image(i)[8:], &v)
		}
	}), "ns", len(p.reqs))
	hitVal := make([]byte, o.valSize)
	putValue(hitVal, 0, 0)
	dst := make([]byte, 0, 1024)
	rep.set("memcache.encode_ns", timeRung(len(getKeys), func() {
		for _, k := range getKeys {
			dst = memcache.AppendGetHit(dst[:0], k, 0, hitVal)
		}
	}), "ns", len(getKeys))
	store := kvsStore(o)
	outs := make([]*[]byte, 64)
	for i := range outs {
		buf := make([]byte, 0, 1024)
		outs[i] = &buf
	}
	found := make([]bool, 64)
	rep.set("kvs.get_ns", timeRung(len(getKeys), func() {
		for off := 0; off < len(getKeys); off += 64 {
			chunk := getKeys[off:min(off+64, len(getKeys))]
			for _, o := range outs[:len(chunk)] {
				*o = (*o)[:0]
			}
			store.AppendGetBatch(chunk, simnet.Time(0), outs[:len(chunk)], found[:len(chunk)])
		}
	}), "ns", len(getKeys))
	sets := 0
	for _, v := range views {
		if v.Op == memcache.OpSet {
			sets++
		}
	}
	rep.set("kvs.set_ns", timeRung(sets, func() {
		for _, v := range views {
			if v.Op == memcache.OpSet {
				store.SetBytes(v.Key, kvs.Entry{Value: v.Value})
			}
		}
	}), "ns", sets)
	kh := kvs.NewHandler(store)
	kb := batches(batchItems(p), b)
	rep.set("kvs.handler_ns", timeRung(len(p.reqs), func() { runBatches(kb, kh.HandleBatch) }), "ns", len(p.reqs))

	// nictier: the KVS tier over the on-demand workload's state, warmed
	// after the host served the stream once (so the hot-key sample that
	// seeds L1 reflects it, as in a live shift).
	o, _ = workloadByName("kvs-ondemand")
	p = stream(o, seed)
	ts := kvsStore(o)
	if hk, ok := any(ts).(interface{ EnableHotKeys(int) }); ok {
		hk.EnableHotKeys(16)
	}
	th := kvs.NewHandler(ts)
	tb := batches(batchItems(p), b)
	runBatches(tb, th.HandleBatch)
	tr := newTracer(64)
	tier := &kvsTierShim{KVSTier: nictier.NewKVS(th), tr: tr}
	var stage, warm, park []float64
	var try []float64
	for r := 0; r < 3; r++ {
		if err := tier.Stage(); err != nil {
			return err
		}
		if err := tier.Warm(); err != nil {
			return err
		}
		try = append(try, timeRung(len(p.reqs), func() { runBatches(tb, tier.TryHandleBatch) }))
		if err := tier.Park(); err != nil {
			return err
		}
	}
	for _, s := range tr.spans[:min(int(tr.n.Load()), len(tr.spans))] {
		ms := float64(s.end-s.start) / 1e6
		switch s.name {
		case spanStage:
			stage = append(stage, ms)
		case spanWarm:
			warm = append(warm, ms)
		case spanPark:
			park = append(park, ms)
		}
	}
	rep.set("nictier.try_ns", median(try), "ns", len(p.reqs))
	rep.set("nictier.stage_ms", median(stage), "ms", len(stage))
	rep.set("nictier.warm_ms", median(warm), "ms", len(warm))
	rep.set("nictier.park_ms", median(park), "ms", len(park))

	// dns.
	o = owner(w, protoDNS)
	p = stream(o, seed)
	zone := dns.NewZone()
	for i := 0; i < o.names; i++ {
		zone.Add(dnsName(i), dnsAddr(i), dnsTTL)
	}
	qnames := make([][]byte, len(p.reqs))
	for i := range p.reqs {
		var v dns.QuestionView
		if err := dns.ParseQuestion(p.image(i), 0, &v); err == nil {
			qnames[i] = v.QName
		}
	}
	rep.set("dns.parse_ns", timeRung(len(p.reqs), func() {
		var v dns.QuestionView
		for i := range p.reqs {
			_ = dns.ParseQuestion(p.image(i), 0, &v)
		}
	}), "ns", len(p.reqs))
	rep.set("dns.lookup_ns", timeRung(len(qnames), func() {
		for _, q := range qnames {
			zone.LookupWire(q)
		}
	}), "ns", len(qnames))
	dh := dns.NewHandler(zone)
	db := batches(batchItems(p), b)
	rep.set("dns.handler_ns", timeRung(len(p.reqs), func() { runBatches(db, dh.HandleBatch) }), "ns", len(p.reqs))

	// paxos: a fresh acceptor per round, so every round votes anew.
	o = owner(w, protoPaxos)
	p = stream(o, seed)
	rep.set("paxos.decode_ns", timeRung(len(p.reqs), func() {
		var v paxos.MsgView
		for i := range p.reqs {
			_ = paxos.DecodeView(p.image(i), &v)
		}
	}), "ns", len(p.reqs))
	pb := batches(batchItems(p), b)
	var acc *paxos.LiveAcceptor
	var per []float64
	for r := 0; r < ladderRounds; r++ {
		acc = paxos.NewLiveAcceptor(1, nil, func(string, paxos.Msg) {})
		runtime.GC()
		start := time.Now()
		runBatches(pb, acc.HandleBatch)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(len(p.reqs)))
	}
	rep.set("paxos.handler_ns", median(per), "ns", len(p.reqs))
	return nil
}
