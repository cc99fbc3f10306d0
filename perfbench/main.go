// Command perfbench is the repository's end-to-end benchmark. It starts
// the server stack as a child process, drives one workload open loop
// through a light hold, a heavy hold and a capacity ladder, checks every
// reply, and prints each metric by name with its unit and sample count.
// The last line of standard output is one JSON object with the run's
// verdict and metrics. With --trace 1 it also restarts the child with
// timing shims on the stack's interfaces and replays the workload's
// request stream through each layer alone, and reports per-layer
// metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// nproc is the host's CPU count, read before the generator pins itself.
var nproc = runtime.NumCPU()

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			log.Fatalf("perfbench child: %v", err)
		}
		return
	}
	name := flag.String("workload", "kvs-read", "workload: kvs-read | kvs-ondemand | dns-mixcase | paxos-accept")
	seed := flag.Uint64("seed", 1, "seed of the request stream")
	seconds := flag.Int("seconds", 30, "seconds the timed phases take")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run and the layer ladder")
	ladderOnly := flag.Bool("ladder", false, "run only the layer ladder (handler batches of one), for A/B comparisons of single rungs")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	w, err := workloadByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	// The generator keeps CPU 0 and the server child gets the other CPUs,
	// so neither steals the other's time slices.
	if nproc > 1 {
		if err := pinTo(0); err != nil {
			log.Fatal(err)
		}
	}
	if *ladderOnly {
		var rep report
		if err := ladder(w, *seed, 1, &rep); err != nil {
			log.Fatal(err)
		}
		printResult(result{Correct: true, Attempted: 1, Metrics: rep.m})
		return
	}
	os.Exit(run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints them as a table while they come.
type report struct {
	m map[string]metric
}

func (r *report) set(name string, v float64, unit string, n int) {
	if r.m == nil {
		r.m = map[string]metric{}
	}
	r.m[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-32s %14.4f %-6s n=%d\n", name, v, unit, n)
}

// printed prints an end-to-end metric that BENCHMARK.json does not gate,
// marked with "~": fail_ratio and the shift metrics read 0 or do not
// exist on most runs, and the latencies, max_rate and the light hold's
// CPU per request moved between runs of the same code by more than the
// widest bound a gate allows on the shared development host (README.md).
func printed(name string, v float64, unit string, n int) {
	fmt.Printf("~ %-32s %14.4f %-6s n=%d\n", name, v, unit, n)
}

func run(w workload, seed uint64, dur time.Duration, traced bool) int {
	ds := dataset(w)
	fmt.Printf("perfbench %s seed %d, %v timed, light %.0f / heavy %.0f req/s\n", w.name, seed, dur, w.light, w.heavy)

	// Set-up time: the median of nine child starts (spawn, dataset,
	// serving). The last child started serves the run.
	setups := 9
	if traced {
		setups = 1
	}
	var setup []float64
	var c *childProc
	for i := 0; i < setups; i++ {
		ch, err := spawnChild(w, ds, false, "")
		if err != nil {
			log.Print(err)
			return 2
		}
		setup = append(setup, ch.setup.Seconds())
		if i < setups-1 {
			if _, err := ch.stop(); err != nil {
				log.Print(err)
				return 2
			}
			continue
		}
		c = ch
	}
	// The loader's garbage goes before serving, outside the set-up time,
	// so its first collection does not land in a timed hold.
	if err := c.collect(); err != nil {
		c.kill()
		log.Print(err)
		return 2
	}
	res, err := drive(w, seed, dur, c)
	if err != nil {
		log.Print(err)
		return 2
	}
	if code := res.verdict("", seed); code != 0 {
		return code
	}

	var rep report
	fmt.Println("end-to-end:")
	p50s := res.endToEnd(&rep, median(setup), len(setup))
	if !traced {
		printResult(result{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: rep.m})
		return 0
	}

	// The traced run: same workload and seed on a child wrapped in
	// timing shims, then the layer ladder.
	spans := filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	tc, err := spawnChild(w, ds, true, spans)
	if err == nil {
		if err = tc.collect(); err != nil {
			tc.kill()
		}
	}
	if err != nil {
		log.Print(err)
		return 2
	}
	tres, err := drive(w, seed, dur, tc)
	if err != nil {
		log.Print(err)
		return 2
	}
	if code := tres.verdict("traced ", seed); code != 0 {
		return code
	}
	var trep report
	fmt.Println("end-to-end, traced run:")
	tp50s := tres.endToEnd(&trep, tc.setup.Seconds(), 1)
	st, err := readSpans(spans, tres)
	if err != nil {
		log.Print(err)
		return 2
	}
	fmt.Printf("spans: %d written to %s (%d dropped)\n", tres.final.Spans, spans, tres.final.SpansDropped)

	var layers report
	fmt.Println("per-layer:")
	res.perLayer(&layers, tres, st)
	layers.set("trace.overhead_cpu_us_per_req", trep.m["cpu_us_per_req.heavy"].Value-rep.m["cpu_us_per_req.heavy"].Value, "us", 1)
	layers.set("trace.overhead_p50_us", tp50s["heavy"]-p50s["heavy"], "us", 1)
	if err := ladder(w, seed, st.batchMean, &layers); err != nil {
		log.Print(err)
		return 2
	}
	printResult(result{Correct: true, Attempted: res.attempted + tres.attempted, Failed: res.failed + tres.failed, Metrics: layers.m})
	return 0
}

// verdict prints a run's first wrong answer (exit code 1, with a JSON
// result saying so) or why the run cannot be reported (exit code 2, no
// result), and returns the exit code: 0 when the run stands.
func (r *runResult) verdict(label string, seed uint64) int {
	if r.wrong > 0 {
		fmt.Printf("WRONG ANSWER in the %srun: workload %s seed %d: %d wrong replies; first: %s\n",
			label, r.w.name, seed, r.wrong, r.firstWrong)
		printResult(result{Correct: false, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}})
		return 1
	}
	if msg := r.invalid(); msg != "" {
		log.Printf("invalid %srun (workload %s seed %d): %s", label, r.w.name, seed, msg)
		return 2
	}
	return 0
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(b))
}

// --- one driven run -----------------------------------------------------

// held is a timed phase with the child's and the generator's CPU time
// across it.
type held struct {
	lp          *livePhase
	cpu, genCPU int64
}

// sample is one poll of the child during the run.
type sample struct {
	at int64 // mono ns
	st childStat
}

type runResult struct {
	w                 workload
	light, heavy      held
	lightAgain        *held
	steps             []held
	maxRate           float64
	samples           []sample // full snapshots, every 100ms
	places            []sample // placement-only polls in between (on-demand)
	final             childStat
	rssKiB            int64 // the child's live resident set after the heavy hold
	attempted, failed int
	wrong             uint64
	firstWrong        string
	orc               *oracle
	rcvbufErrors      uint64
	stale, dups       uint64
	// on-demand shift windows (mono ns) and durations
	upStart, upEnd, downStart, downEnd int64
	upDur, downDur                     time.Duration
}

// drive runs the whole schedule against c and stops c.
func drive(w workload, seed uint64, dur time.Duration, c *childProc) (*runResult, error) {
	g := newGenerator(w, seed)
	orc := newOracle(w)
	lg, err := newLoadgen(w, orc, c.addr, c)
	if err != nil {
		c.kill()
		return nil, err
	}
	res := &runResult{w: w, orc: orc}
	snmp0 := rcvbufErrors()

	// The poller takes a full snapshot of the child every 100ms for the
	// energy integral and the served ratio. On the on-demand workload it
	// also asks for the placement alone every 10ms for the shift
	// timeline: full snapshots that often cost the one server CPU enough
	// to show in its p99.
	const fullEvery = 100 * time.Millisecond
	period := fullEvery
	if w.tier {
		period = 10 * time.Millisecond
	}
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-t.C:
				if k%int(fullEvery/period) == 0 {
					if st, err := c.stat(); err == nil {
						res.samples = append(res.samples, sample{at: mono(), st: st})
					}
				} else if st, err := c.placement(); err == nil {
					res.places = append(res.places, sample{at: mono(), st: st})
				}
			}
		}
	}()

	// hold sends one phase; retry re-sends unanswered requests (the timed
	// holds do, the ladder steps do not: a step's losses are part of the
	// capacity it measures).
	hold := func(name string, rate float64, d time.Duration, retry bool) (held, error) {
		p := g.phase(name, rate, d)
		orc.learn(g)
		// Collect the generation garbage now: the send and receive paths
		// allocate nothing, so no collection runs during the phase.
		runtime.GC()
		var h held
		before, err := c.stat()
		if err != nil {
			return h, err
		}
		gen0 := cpuNs()
		h.lp = lg.run(p, retry)
		h.genCPU = cpuNs() - gen0
		after, err := c.stat()
		if err != nil {
			return h, err
		}
		h.cpu = after.CPUNs - before.CPUNs
		return h, nil
	}

	// The heavy hold, whose CPU per request is gated, gets the largest
	// share.
	fracs := [4]float64{0.20, 0.55, 0.25, 0} // light, heavy, ladder, light again
	if w.tier {
		fracs = [4]float64{0.12, 0.40, 0.23, 0.25}
	}
	part := func(i int) time.Duration { return time.Duration(fracs[i] * float64(dur)) }
	fail := func(err error) (*runResult, error) {
		close(stop)
		pollWG.Wait()
		lg.close()
		c.kill()
		return nil, err
	}
	// Half a second at the light rate, unmeasured, lets first-touch
	// costs (page faults, buffer pools, the first GC cycles) pass.
	if _, err = hold("warm-up", w.light, 500*time.Millisecond, true); err != nil {
		return fail(err)
	}
	if res.light, err = hold("light", w.light, part(0), true); err != nil {
		return fail(err)
	}
	if res.heavy, err = hold("heavy", w.heavy, part(1), true); err != nil {
		return fail(err)
	}
	if res.rssKiB, err = c.liveRSS(); err != nil {
		return fail(err)
	}
	// The capacity ladder steps up from heavy by 25% until two rates in a
	// row break, then by 5% from the highest rate that held, at most four
	// times (staying below the 25% step above it) or until one breaks. A
	// step holds when its p99 (outcome.p99Us) is within the latency limit;
	// failures count as late, so a step over the loss limit in most of its
	// windows breaks it too. A step that breaks is tried once more
	// before it counts, so one stall of the shared host does not end the
	// ladder. max_rate is the highest rate that held. Generator lag counts
	// in latency, since requests are timed from their due time.
	res.maxRate = w.heavy
	const stepDur = 250 * time.Millisecond
	used := time.Duration(0)
	try := func(rate float64) (bool, error) {
		if used+stepDur+replyTimeout > part(2) {
			return false, nil
		}
		used += stepDur + replyTimeout
		h, err := hold(fmt.Sprintf("step%d", len(res.steps)+1), rate, stepDur, false)
		if err != nil {
			return false, err
		}
		res.steps = append(res.steps, h)
		o := h.lp.all()
		return o.p99Us() <= float64(latencyLimit.Microseconds()), nil
	}
	for _, stage := range []struct {
		factor      float64
		steps, miss int
	}{{1.25, 64, 2}, {1.05, 4, 1}} {
		rate, missed := res.maxRate, 0
		for k := 0; k < stage.steps && missed < stage.miss; k++ {
			rate *= stage.factor
			held, err := try(rate)
			if err == nil && !held {
				held, err = try(rate)
			}
			if err != nil {
				return fail(err)
			}
			if !held {
				missed++
				continue
			}
			res.maxRate, missed = rate, 0
		}
	}
	if w.tier {
		h, err := hold("light-again", w.light, part(3), true)
		if err != nil {
			return fail(err)
		}
		res.lightAgain = &h
	}
	close(stop)
	pollWG.Wait()
	lg.close()
	res.rcvbufErrors = rcvbufErrors() - snmp0
	res.stale, res.dups = lg.stale.Load(), lg.dups.Load()
	if res.final, err = c.stop(); err != nil {
		return nil, err
	}
	res.wrong = lg.wrong.Load()
	if p := lg.firstW.Load(); p != nil {
		res.firstWrong = *p
	}
	if w.tier {
		res.shiftTimeline()
	}
	// An operation failed when it has no correct reply even after every
	// re-send; a late reply is a latency, not a failure.
	for _, h := range res.holds() {
		o := h.lp.all()
		res.attempted += o.sent
		res.failed += o.lost
	}
	return res, nil
}

// holds returns the timed holds (not the ladder steps).
func (r *runResult) holds() []held {
	hs := []held{r.light, r.heavy}
	if r.lightAgain != nil {
		hs = append(hs, *r.lightAgain)
	}
	return hs
}

// shiftTimeline finds the shift up during heavy and the shift down
// during light-again in the polls: a shift ends at the first poll
// reporting the new placement, and started the orchestrator's reported
// shift duration earlier.
func (r *runResult) shiftTimeline() {
	polls := append(append([]sample(nil), r.samples...), r.places...)
	sort.Slice(polls, func(i, j int) bool { return polls[i].at < polls[j].at })
	find := func(from int64, placement string) (start, end int64, d time.Duration) {
		for _, s := range polls {
			if s.at >= from && s.st.Status.Placement == placement && !s.st.Status.Shifting {
				d, _ = time.ParseDuration(s.st.Status.LastShiftDuration)
				return s.at - int64(d), s.at, d
			}
		}
		return 0, 0, 0
	}
	r.upStart, r.upEnd, r.upDur = find(r.heavy.lp.start, "network")
	if r.lightAgain != nil {
		r.downStart, r.downEnd, r.downDur = find(r.lightAgain.lp.start, "host")
	}
}

// invalid explains why the run cannot be reported, or returns "".
func (r *runResult) invalid() string {
	// The generator fell behind its schedule when more than a tenth of a
	// hold's requests went out later than the latency limit. A stall of
	// the whole host delays a few percent of them; that delay counts in
	// latency, since requests are timed from their due time.
	limit := float64(latencyLimit.Microseconds())
	for _, h := range r.holds() {
		if lag := h.lp.lag.quantile(0.9); lag > limit {
			return fmt.Sprintf("generator ran %.0fµs behind schedule (p90) in %s, over the %.0fµs latency limit", lag, h.lp.name, limit)
		}
	}
	f := r.final
	if f.DP.BuffersInFlight != 0 {
		return fmt.Sprintf("%d receive buffers still in flight after the drain", f.DP.BuffersInFlight)
	}
	if r.w.proto == protoKVS && r.orc.kvsMisses.Load() > 0 && (f.Store == nil || f.Store.Evictions == 0) {
		return fmt.Sprintf("%d GET misses without any eviction to explain them", r.orc.kvsMisses.Load())
	}
	if !r.w.tier {
		if f.Status.Shifts != 0 || f.DP.Offloaded != 0 {
			return fmt.Sprintf("host-only workload shifted %d times and offloaded %d requests", f.Status.Shifts, f.DP.Offloaded)
		}
		return ""
	}
	switch {
	case r.upEnd == 0 || r.upEnd > r.heavy.lp.end():
		return "no shift to the network during the heavy hold"
	case r.downEnd == 0:
		return "no shift back to the host during the final light hold"
	case f.Status.Shifts < 2 || f.Status.ShiftRollbacks != 0:
		return fmt.Sprintf("%d shifts with %d rollbacks, want >= 2 and 0", f.Status.Shifts, f.Status.ShiftRollbacks)
	}
	if sr := r.servedRatio(); sr < 0.9 {
		return fmt.Sprintf("the tier served %.3f of the GET hits after the shift in heavy, want >= 0.9", sr)
	}
	return ""
}

// servedRatio is, between the end of the shift up and the end of heavy,
// the share of GET hits the tier answered: offloaded GETs over offloaded
// GETs plus GETs the host answered from its store. SETs always reach the
// host, and a GET for an evicted key misses everywhere, so neither can
// be offloaded.
func (r *runResult) servedRatio() float64 {
	var a, b *childStat
	for i := range r.samples {
		s := &r.samples[i]
		if a == nil && s.at >= r.upEnd+int64(orchestratorPeriod) {
			a = &s.st
		}
		if s.at <= r.heavy.lp.end() {
			b = &s.st
		}
	}
	if a == nil || b == nil {
		return 0
	}
	off := float64(b.DP.Offloaded - a.DP.Offloaded)
	host := float64(b.DP.Handler["hits"] - a.DP.Handler["hits"])
	return ratio(off, off+host)
}

// orchestratorPeriod is the daemon orchestrator's sampling period; a
// shift's window of effect lasts one period past its end.
const orchestratorPeriod = 100 * time.Millisecond

// inShift reports whether due time t falls in a shift window.
func (r *runResult) inShift(t int64) bool {
	p := int64(orchestratorPeriod)
	return (r.upEnd != 0 && t >= r.upStart && t < r.upEnd+p) ||
		(r.downEnd != 0 && t >= r.downStart && t < r.downEnd+p)
}

// steadyFrom returns when (mono ns) any shift in h had ended plus one
// orchestrator period; the shift window itself belongs to shift_p99_us.
func (r *runResult) steadyFrom(h held) int64 {
	switch {
	case r.w.tier && h.lp == r.heavy.lp:
		return r.upEnd + int64(orchestratorPeriod)
	case r.lightAgain != nil && h.lp == r.lightAgain.lp:
		return r.downEnd + int64(orchestratorPeriod)
	}
	return h.lp.start
}

// steady returns the outcome of h's requests due from steadyFrom on.
func (r *runResult) steady(h held) outcome { return h.lp.outcome(r.steadyFrom(h), 1<<62) }

// endToEnd reports the end-to-end metrics: the gated ones into rep, the
// rest printed. It returns the p50s by hold, which the traced run's
// overhead is measured on.
func (r *runResult) endToEnd(rep *report, setupS float64, setups int) (p50s map[string]float64) {
	p50s = map[string]float64{}
	rep.set("setup_s", setupS, "s", setups)
	steps := 2 + len(r.steps)
	printed("max_rate_kpps", r.maxRate/1000, "kpps", steps)
	// The latency-versus-load curve the ladder walked, for checking its
	// shape against a processor-sharing model.
	for _, h := range append([]held{r.light, r.heavy}, r.steps...) {
		o := h.lp.all()
		fmt.Printf("    %-12s %8.1f kpps  p50 %8.1fus  p99 %9.1fus  lost %5d  late %5d  resent %5d  lag p99 %6.0fus  server %.2fus/req\n",
			h.lp.name, h.lp.rate/1000, o.quantileUs(0.5), o.p99Us(), o.lost, o.late, h.lp.resent,
			h.lp.lag.quantile(0.99), float64(h.cpu)/1e3/float64(max(o.ok, 1)))
	}
	for _, h := range []struct {
		name string
		h    held
	}{{"light", r.light}, {"heavy", r.heavy}} {
		o := r.steady(h.h)
		p50s[h.name] = o.quantileUs(0.5)
		printed("p50_us."+h.name, p50s[h.name], "us", len(o.lat))
		printed("p99_us."+h.name, o.p99Us(), "us", len(o.lat))
		v, n := r.cpuPerReq(h.h)
		if h.name == "light" {
			printed("cpu_us_per_req.light", v, "us", n)
		} else {
			rep.set("cpu_us_per_req.heavy", v, "us", n)
		}
	}
	var all outcome
	for _, h := range r.holds() {
		all.add(h.lp.all())
	}
	rep.set("rss_mb", float64(r.rssKiB)/1024, "MiB", 1)
	e, n := r.energy()
	rep.set("energy_uj_per_req", e, "uJ", n)
	printed("fail_ratio", all.failRatio(), "ratio", all.sent)
	if r.w.tier {
		var sh outcome
		for _, h := range r.holds() {
			sh.add(h.lp.where(r.inShift))
		}
		printed("shift_up_ms", float64(r.upDur)/1e6, "ms", 1)
		printed("shift_down_ms", float64(r.downDur)/1e6, "ms", 1)
		printed("shift_p99_us", sh.quantileUs(0.99), "us", len(sh.lat))
		printed("daemon.decision_lag_ms", float64(r.upStart-r.heavy.lp.start)/1e6, "ms", 1)
	}
	fmt.Printf("  (generator: lag p99 %.0fµs over the holds, %d stale and %d duplicate replies, %d socket receive-buffer drops)\n",
		r.lagP99(), r.stale, r.dups, r.rcvbufErrors)
	return p50s
}

// cpuPerReq returns the median over h's 100 ms snapshot windows from
// steadyFrom on of the child's CPU time per reply it sent in the window,
// in µs, and the number of windows. A window without replies (a stall)
// counts as infinitely expensive. The median keeps a GC cycle or a spell
// of host steal time in a minority of the windows from moving the figure.
func (r *runResult) cpuPerReq(h held) (float64, int) {
	var per []float64
	for i := 1; i < len(r.samples); i++ {
		a, b := r.samples[i-1], r.samples[i]
		if a.at < r.steadyFrom(h) || b.at > h.lp.end() {
			continue
		}
		replies := float64(b.st.DP.Replies - a.st.DP.Replies)
		per = append(per, float64(b.st.CPUNs-a.st.CPUNs)/1e3/replies)
	}
	return median(per), len(per)
}

func (r *runResult) lagP99() float64 {
	var h lagHist
	for _, x := range r.holds() {
		h.merge(&x.lp.lag)
	}
	return h.quantile(0.99)
}

// energy integrates the modelled host power (the orchestrator's
// modeled_watts) plus the tier's modelled power over the timed holds,
// per request answered in them (late replies too), in µJ. It is a model,
// not a measurement.
func (r *runResult) energy() (float64, int) {
	joules, answered := 0.0, 0
	for _, h := range r.holds() {
		o := h.lp.all()
		answered += o.ok + o.late
		for i := 1; i < len(r.samples); i++ {
			a, b := r.samples[i-1], r.samples[i]
			if a.at >= h.lp.start && b.at <= h.lp.end() {
				joules += (a.st.Status.ModeledWatts + a.st.DP.TierPowerWatts) * float64(b.at-a.at) / 1e9
			}
		}
	}
	if answered == 0 {
		return 0, 0
	}
	return joules / float64(answered) * 1e6, answered
}

func (r *runResult) meanWatts() (host, tier float64) {
	n := 0
	for _, s := range r.samples {
		if s.at >= r.light.lp.start {
			host += s.st.Status.ModeledWatts
			tier += s.st.DP.TierPowerWatts
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return host / float64(n), tier / float64(n)
}

// perLayer reports the layer counters of the untraced run r and the span
// numbers of the traced run t.
func (r *runResult) perLayer(rep *report, t *runResult, st spanStats) {
	var lag lagHist
	sent, gen, ok := 0, int64(0), 0
	for _, h := range r.holds() {
		lag.merge(&h.lp.lag)
		o := h.lp.all()
		sent += o.sent
		ok += o.ok
		gen += h.genCPU
	}
	rep.set("loadgen.lag_p99_us", lag.quantile(0.99), "us", sent)
	rep.set("loadgen.cpu_us_per_req", float64(gen)/1e3/float64(max(sent, 1)), "us", sent)
	rep.set("loadgen.sent", float64(sent), "count", sent)

	f := r.final.DP
	rx := float64(max(f.Received, 1))
	rep.set("netio.syscalls_per_req", float64(f.ReadBatches+f.WriteBatches+f.UringEnters)/rx, "count", int(f.Received))
	rep.set("netio.rx_per_read", float64(f.Received)/float64(max(f.ReadBatches, 1)), "count", int(f.ReadBatches))
	rep.set("netio.tx_per_write", float64(f.Replies)/float64(max(f.WriteBatches, 1)), "count", int(f.WriteBatches))
	rep.set("netio.rcvbuf_errors", float64(r.rcvbufErrors), "count", 1)

	rep.set("dataplane.dropped", float64(f.Dropped), "count", int(f.Received))
	rep.set("dataplane.write_errors", float64(f.WriteErrors), "count", int(f.Replies))
	rep.set("dataplane.bufs_in_flight_end", float64(f.BuffersInFlight), "count", 1)
	rep.set("dataplane.batch_mean", st.batchMean, "count", st.batches)
	rep.set("dataplane.handler_share", st.handlerNs/float64(max(t.heavy.cpu, 1)), "ratio", st.batches)
	rep.set("dataplane.handler_batch_us.p99", st.batchP99Us, "us", st.batches)

	hits, misses := float64(f.Handler["hits"]), float64(f.Handler["misses"])
	rep.set("kvs.hit_ratio", ratio(hits+float64(f.Tier["l1_hit"]+f.Tier["l2_hit"]), hits+misses+float64(f.Tier["l1_hit"]+f.Tier["l2_hit"])), "ratio", int(hits+misses))
	ev := 0.0
	if r.final.Store != nil {
		ev = float64(r.final.Store.Evictions)
	}
	rep.set("kvs.evictions", ev, "count", 1)
	nx, ans := float64(f.Handler["nxdomain"]), float64(f.Handler["answered"])
	rep.set("dns.nxdomain_ratio", ratio(nx, nx+ans), "ratio", int(nx+ans))
	rep.set("paxos.instances", float64(r.orc.maxInstance.Load()), "count", 1)

	rep.set("nictier.served_ratio", r.servedRatioOrZero(), "ratio", 1)
	l1 := float64(f.Tier["l1_hit"])
	rep.set("nictier.l1_hit_ratio", ratio(l1, l1+float64(f.Tier["l2_hit"]+f.Tier["miss"])), "ratio", int(f.Offloaded))
	rep.set("nictier.write_through", float64(f.Tier["write_through"]), "count", 1)
	rep.set("nictier.warmed_entries", float64(f.Tier["warmed_entries"]), "count", 1)

	s := r.final.Status
	rep.set("daemon.shifts", float64(s.Shifts), "count", 1)
	rep.set("daemon.shift_rollbacks", float64(s.ShiftRollbacks), "count", 1)
	rep.set("daemon.shift_retries", float64(s.ShiftRetries), "count", 1)
	host, tier := r.meanWatts()
	rep.set("power.host_watts_mean", host, "W", len(r.samples))
	rep.set("power.tier_watts_mean", tier, "W", len(r.samples))
}

func (r *runResult) servedRatioOrZero() float64 {
	if !r.w.tier {
		return 0
	}
	return r.servedRatio()
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// rcvbufErrors reads the UDP receive-buffer overflow counter of this
// network namespace.
func rcvbufErrors() uint64 {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0
	}
	var names []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "Udp: ") {
			continue
		}
		f := strings.Fields(line)[1:]
		if names == nil {
			names = f
			continue
		}
		for i, n := range names {
			if n == "RcvbufErrors" && i < len(f) {
				v, _ := strconv.ParseUint(f[i], 10, 64)
				return v
			}
		}
	}
	return 0
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
