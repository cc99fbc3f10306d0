package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/power"
)

// childMain is the server under test: the stack the daemons assemble
// (store/zone/acceptor, handler, batched engine on one SO_REUSEPORT
// socket per CPU, optional NIC tier, orchestrator) built from the same
// public constructors. It reads its initial state from stdin, prints
// "ready <addr>", then answers each "stat" line with one JSON line (a
// "place" line with the orchestrator status alone), and each "gc" line
// by collecting and returning its garbage, then an empty JSON object. On SIGTERM or stdin EOF it drains, prints "final <json>"
// and exits.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	traced := fs.Bool("trace", false, "wrap the stack's interfaces in timing shims")
	spansPath := fs.String("spans", "", "file the traced child writes its spans to at exit")
	sockets := fs.Int("sockets", 1, "serving sockets, one shard each (the host's CPU count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The generator holds CPU 0 and the server runs on the others (on a
	// one-CPU host they share it), with one scheduler thread per CPU it
	// may use, as Go would pick for a daemon started with that affinity.
	if *sockets > 1 {
		if err := pinExcept(0, *sockets); err != nil {
			return err
		}
		runtime.GOMAXPROCS(*sockets - 1)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	log.SetPrefix("perfbench child: ")
	in := bufio.NewReaderSize(os.Stdin, 1<<20)

	var tr *tracer
	if *traced {
		tr = newTracer(1 << 21)
	}
	var (
		handler dataplane.Handler
		curve   power.SoftwareCurve
		cfg     = dataplane.Config{Name: "perfbench-" + w.name}
		store   *kvs.ShardedStore
		kh      *kvs.Handler
		svcName string
	)
	switch w.proto {
	case protoKVS:
		svcName, curve, cfg.ShardBy = "kvs", power.MemcachedMellanox, kvs.ShardByKey
		store = kvs.NewShardedStore(0, w.maxEntries)
		// inckvsd samples 16 hot keys per shard by default; the tier's
		// warm-up seeds L1 from them. (Asserted, so the benchmark also
		// builds against trees that predate hot-key sampling.)
		if hk, ok := any(store).(interface{ EnableHotKeys(int) }); ok {
			hk.EnableHotKeys(16)
		}
		if err := readDataset(in, func(k, v []byte) { store.SetBytes(k, kvs.Entry{Value: v}) }); err != nil {
			return err
		}
		kh = kvs.NewHandler(store)
		handler = kh
		if tr != nil {
			handler = &kvsHandlerShim{Handler: kh, tr: tr}
		}
	case protoDNS:
		svcName, curve, cfg.MaxDatagram = "dns", power.NSDServer, 4096
		zone := dns.NewZone()
		if err := readDataset(in, func(k, v []byte) { zone.Add(string(k), [4]byte(v), dnsTTL) }); err != nil {
			return err
		}
		h := dns.NewHandler(zone)
		handler = h
		if tr != nil {
			handler = &dnsHandlerShim{Handler: h, tr: tr}
		}
	default:
		svcName, curve = "paxos", power.LibpaxosAcceptor
		a := paxos.NewLiveAcceptor(1, nil, func(string, paxos.Msg) {})
		var scratch []byte
		if err := readDataset(in, func(_, v []byte) { a.HandleDatagram(v, &scratch) }); err != nil {
			return err
		}
		handler = a
		if tr != nil {
			handler = &paxosHandlerShim{LiveAcceptor: a, tr: tr}
		}
	}

	eng, err := daemon.ListenEngine(daemon.EngineOptions{Addr: "127.0.0.1:0", Sockets: *sockets, Engine: "batched"},
		handler, cfg)
	if err != nil {
		return err
	}
	// Host-only workloads pin placement to the host (no tier attached);
	// the on-demand workload runs the threshold policy over a real tier.
	policy, cross := "static-host", 80.0
	var tierSvc core.Service
	if w.tier {
		policy, cross = "threshold", w.crossKpps
		if tr != nil {
			tierSvc = &serviceShim{Service: nictier.NewService(svcName, &dataplaneShim{eng: eng, tr: tr},
				&kvsTierShim{KVSTier: nictier.NewKVS(kh), tr: tr}), tr: tr}
		} else {
			tierSvc = nictier.NewService(svcName, eng, nictier.NewKVS(kh))
		}
	}
	orch, svc, _, err := daemon.StartControlPlane(daemon.StartOptions{
		Name: svcName, Policy: policy, CrossKpps: cross, Curve: curve,
		Service: tierSvc, Ready: eng.Running,
	})
	if err != nil {
		return err
	}
	svc.UseCounter(eng.Handled)
	if err := orch.AttachDataplane(svcName, eng); err != nil {
		return err
	}
	daemon.OnShutdown(svcName, nil, orch, eng.Close)

	var outMu sync.Mutex
	emit := func(prefix string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			log.Fatalf("encode report: %v", err)
		}
		outMu.Lock()
		fmt.Fprintf(os.Stdout, "%s%s\n", prefix, b)
		outMu.Unlock()
	}
	snapshot := func() childReport {
		st, _ := orch.Status(svcName)
		r := childReport{CPUNs: cpuNs(), Status: st, Dataplane: eng.Snapshot()}
		if store != nil {
			s := store.Stats()
			r.Store = &s
		}
		return r
	}

	eng.Start()
	outMu.Lock()
	fmt.Fprintf(os.Stdout, "ready %s\n", eng.LocalAddr())
	outMu.Unlock()
	go func() {
		for {
			line, err := in.ReadString('\n')
			if err != nil {
				// The benchmark went away: shut down as on SIGTERM.
				_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
				return
			}
			switch line {
			case "stat\n":
				emit("", snapshot())
			case "place\n":
				st, _ := orch.Status(svcName)
				emit("", childReport{Status: st})
			case "gc\n":
				// Two cycles: the first moves pooled buffers to the pools'
				// victim caches, the second (inside FreeOSMemory) frees them.
				runtime.GC()
				debug.FreeOSMemory()
				emit("", struct{}{})
			}
		}
	}()
	eng.Run()

	final := snapshot()
	if tr != nil {
		n, err := tr.writeFile(*spansPath)
		if err != nil {
			return err
		}
		final.Spans, final.SpansDropped = n, tr.dropped()
	}
	emit("final ", final)
	return nil
}

// childReport is what the child says about itself: its CPU time, the
// orchestrator's status of the service, the engine snapshot and, for
// kvs, the store statistics.
type childReport struct {
	CPUNs        int64           `json:"cpu_ns"`
	Status       any             `json:"status"`
	Dataplane    any             `json:"dp"`
	Store        *kvs.StoreStats `json:"store,omitempty"`
	Spans        int             `json:"spans,omitempty"`
	SpansDropped int             `json:"spans_dropped,omitempty"`
}

// readDataset reads the length-prefixed records dataset encoded.
func readDataset(r io.Reader, add func(key, val []byte)) error {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:2]); err != nil {
			return fmt.Errorf("read dataset: %w", err)
		}
		kl := int(binary.BigEndian.Uint16(hdr[:2]))
		if kl == 0 {
			return nil
		}
		key := make([]byte, kl)
		if _, err := io.ReadFull(r, key); err != nil {
			return fmt.Errorf("read dataset: %w", err)
		}
		if _, err := io.ReadFull(r, hdr[:4]); err != nil {
			return fmt.Errorf("read dataset: %w", err)
		}
		val := make([]byte, binary.BigEndian.Uint32(hdr[:4]))
		if _, err := io.ReadFull(r, val); err != nil {
			return fmt.Errorf("read dataset: %w", err)
		}
		add(key, val)
	}
}
