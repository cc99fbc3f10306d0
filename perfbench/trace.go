package main

import (
	"bufio"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
	"unsafe"

	"incod/internal/core"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/telemetry"
)

// Span names, one per shimmed interface method.
const (
	spanHandlerBatch = iota
	spanHandlerDatagram
	spanFastPathBatch
	spanFastPathDatagram
	spanSetFastPath
	spanClearFastPath
	spanBarrier
	spanStage
	spanWarm
	spanPark
	spanShift
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"handler.batch", "handler.datagram", "fastpath.batch", "fastpath.datagram",
	"dataplane.set_fast_path", "dataplane.clear_fast_path", "dataplane.barrier",
	"tier.stage", "tier.warm", "tier.park", "service.shift",
}

// span is one timed call across a layer boundary. Spans of one engine
// batch (the fast-path call and the host-handler call on the same
// datagrams) share a batch id; transition steps name the shift that
// caused them as parent.
type span struct {
	id, parent, batch uint32
	name              uint8
	items             uint16
	start, end        int64 // wall-clock ns
}

// tracer keeps spans in a preallocated buffer (overflow is counted, not
// grown) and writes them out once, at exit.
type tracer struct {
	spans   []span
	n       atomic.Int64
	ids     atomic.Uint32
	batches atomic.Uint32
	shift   atomic.Uint32 // id of the shift in flight, 0 if none

	// link hands a batch id from the fast-path span to the host-handler
	// span of the same batch, keyed by the first item the tier left for
	// the host.
	link [4096]struct {
		item  atomic.Uintptr
		batch atomic.Uint32
	}
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

func now() int64 { return time.Now().UnixNano() }

func (t *tracer) record(name uint8, start int64, id, parent, batch uint32, items int) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return
	}
	t.spans[i] = span{id: id, parent: parent, batch: batch, name: name, items: uint16(min(items, 65535)),
		start: start, end: now()}
}

func (t *tracer) dropped() int { return int(max(t.n.Load()-int64(len(t.spans)), 0)) }

func linkSlot(it *dataplane.BatchItem) int {
	p := uintptr(unsafe.Pointer(it))
	return int((p >> 4) * 0x9E3779B97F4A7C15 >> 52)
}

func (t *tracer) handlerBatch(items []*dataplane.BatchItem, fn func([]*dataplane.BatchItem)) {
	batch := uint32(0)
	if len(items) > 0 {
		l := &t.link[linkSlot(items[0])]
		if l.item.Load() == uintptr(unsafe.Pointer(items[0])) {
			batch = l.batch.Load()
			l.item.Store(0)
		}
	}
	if batch == 0 {
		batch = t.batches.Add(1)
	}
	start := now()
	fn(items)
	t.record(spanHandlerBatch, start, t.ids.Add(1), 0, batch, len(items))
}

func (t *tracer) handlerDatagram(fn func() ([]byte, bool)) ([]byte, bool) {
	start := now()
	out, ok := fn()
	t.record(spanHandlerDatagram, start, t.ids.Add(1), 0, t.batches.Add(1), 1)
	return out, ok
}

// --- host handler shims: embedding the concrete handler passes its
// StatsReporter and HotKeyReporter methods through unchanged. ---------

type kvsHandlerShim struct {
	*kvs.Handler
	tr *tracer
}

func (s *kvsHandlerShim) HandleBatch(items []*dataplane.BatchItem) {
	s.tr.handlerBatch(items, s.Handler.HandleBatch)
}

func (s *kvsHandlerShim) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	return s.tr.handlerDatagram(func() ([]byte, bool) { return s.Handler.HandleDatagram(in, scratch) })
}

type dnsHandlerShim struct {
	*dns.Handler
	tr *tracer
}

func (s *dnsHandlerShim) HandleBatch(items []*dataplane.BatchItem) {
	s.tr.handlerBatch(items, s.Handler.HandleBatch)
}

func (s *dnsHandlerShim) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	return s.tr.handlerDatagram(func() ([]byte, bool) { return s.Handler.HandleDatagram(in, scratch) })
}

type paxosHandlerShim struct {
	*paxos.LiveAcceptor
	tr *tracer
}

func (s *paxosHandlerShim) HandleBatch(items []*dataplane.BatchItem) {
	s.tr.handlerBatch(items, s.LiveAcceptor.HandleBatch)
}

func (s *paxosHandlerShim) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	return s.tr.handlerDatagram(func() ([]byte, bool) { return s.LiveAcceptor.HandleDatagram(in, scratch) })
}

// --- nictier.Dataplane shim: times the fast-path flips and wraps the
// fast path it installs. ------------------------------------------------

type dataplaneShim struct {
	eng *dataplane.Engine
	tr  *tracer
}

var _ nictier.Dataplane = (*dataplaneShim)(nil)

func (d *dataplaneShim) timed(name uint8, fn func()) {
	start := now()
	fn()
	d.tr.record(name, start, d.tr.ids.Add(1), d.tr.shift.Load(), 0, 0)
}

func (d *dataplaneShim) SetFastPath(fp dataplane.FastPath) {
	tier, ok := fp.(nictier.Tier)
	if !ok {
		d.timed(spanSetFastPath, func() { d.eng.SetFastPath(fp) })
		return
	}
	bfp, _ := fp.(dataplane.BatchFastPath)
	d.timed(spanSetFastPath, func() { d.eng.SetFastPath(&fastPathShim{Tier: tier, bfp: bfp, tr: d.tr}) })
}

func (d *dataplaneShim) ClearFastPath() { d.timed(spanClearFastPath, d.eng.ClearFastPath) }
func (d *dataplaneShim) Barrier()       { d.timed(spanBarrier, d.eng.Barrier) }

// fastPathShim times the installed tier's dispatch calls. It embeds the
// tier so the engine's snapshot still finds its name, hit ratio and
// power; StatsCounters is forwarded explicitly.
type fastPathShim struct {
	nictier.Tier
	bfp dataplane.BatchFastPath
	tr  *tracer
}

func (f *fastPathShim) StatsCounters() *telemetry.AtomicCounters { return f.Tier.Counters() }

func (f *fastPathShim) TryHandleDatagram(in []byte, src netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	start := now()
	out, served, reply := f.Tier.TryHandleDatagram(in, src, scratch)
	f.tr.record(spanFastPathDatagram, start, f.tr.ids.Add(1), 0, f.tr.batches.Add(1), 1)
	return out, served, reply
}

func (f *fastPathShim) TryHandleBatch(items []*dataplane.BatchItem) {
	batch := f.tr.batches.Add(1)
	start := now()
	if f.bfp != nil {
		f.bfp.TryHandleBatch(items)
	} else {
		for _, it := range items {
			if out, served, reply := f.Tier.TryHandleDatagram(it.In, it.Src, it.Scratch); served {
				it.Served = true
				if reply {
					it.Out = out
				}
			}
		}
	}
	f.tr.record(spanFastPathBatch, start, f.tr.ids.Add(1), 0, batch, len(items))
	for _, it := range items {
		if !it.Served {
			l := &f.tr.link[linkSlot(it)]
			l.batch.Store(batch)
			l.item.Store(uintptr(unsafe.Pointer(it)))
			break
		}
	}
}

// --- nictier.Tier and core.Service shims: the transition steps. --------

type kvsTierShim struct {
	*nictier.KVSTier
	tr *tracer
}

func (s *kvsTierShim) step(name uint8, fn func() error) error {
	start := now()
	err := fn()
	s.tr.record(name, start, s.tr.ids.Add(1), s.tr.shift.Load(), 0, 0)
	return err
}

func (s *kvsTierShim) Stage() error { return s.step(spanStage, s.KVSTier.Stage) }
func (s *kvsTierShim) Warm() error  { return s.step(spanWarm, s.KVSTier.Warm) }
func (s *kvsTierShim) Park() error  { return s.step(spanPark, s.KVSTier.Park) }

type serviceShim struct {
	*nictier.Service
	tr *tracer
}

var _ core.Service = (*serviceShim)(nil)

func (s *serviceShim) Shift(to core.Placement) error {
	id := s.tr.ids.Add(1)
	s.tr.shift.Store(id)
	start := now()
	err := s.Service.Shift(to)
	s.tr.shift.Store(0)
	s.tr.record(spanShift, start, id, 0, 0, int(to))
	return err
}

// writeFile writes the recorded spans as JSON lines and returns how many.
func (t *tracer) writeFile(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	n := int(min(t.n.Load(), int64(len(t.spans))))
	for _, s := range t.spans[:n] {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"batch":%d,"name":%q,"items":%d,"start":%d,"end":%d}`+"\n",
			s.id, s.parent, s.batch, spanNames[s.name], s.items, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return n, f.Close()
}
