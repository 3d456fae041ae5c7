// Command perfbench is the repository's benchmark: it runs one named
// workload through the public APIs of core, kv and the simulator layers
// for a fixed host time, checks every output, and prints its metrics.
//
//	perfbench --workload chase-cont --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced iterations, prints the per-layer
// metrics and writes the spans as Chrome-trace JSON. The last line of
// standard output is one JSON object with the result. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

func parse(args []string, stderr io.Writer) (options, error) {
	var o options
	var tr int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (chase-cont, kv-open, gups-lapi, churn-pin)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.IntVar(&o.seconds, "seconds", 20, "host seconds to measure for")
	fs.IntVar(&tr, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its Chrome-trace JSON to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.seconds < 1 || o.seconds > 600 {
		return o, fmt.Errorf("--seconds %d out of range [1, 600]", o.seconds)
	}
	if tr != 0 && tr != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", tr)
	}
	o.trace = tr == 1
	return o, nil
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is the final output line.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int64                      `json:"attempted"`
	Failed    int64                      `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	mk, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// The simulator runs one simulated thread at a time; more host
	// threads than CPUs would only add scheduler noise.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "# go=%s GOMAXPROCS=%d nproc=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	rep, err := measure(mk(o.seed), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]json.RawMessage{}}
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.value, m.unit})
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res.Metrics[m.name] = raw
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.correct {
		fmt.Fprintf(stderr, "perfbench: output check failed: %d of %d ops failed or did not verify, or virtual results differed between iterations\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// report is what one run measured.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	notes             []string
}

// minIters is the fewest iterations of each kind a run makes, however
// short --seconds is.
const minIters = 3

// measure runs iterations of w until the time is up. Every iteration
// repeats the same virtual run, so its virtual results must match the
// first iteration's exactly; the host figures are medians.
func measure(w workload, o options) (report, error) {
	budget := time.Duration(o.seconds) * time.Second
	t0 := time.Now()
	var plain, traced []iter
	var last *tracer
	rep := report{correct: true}
	var first *virt
	for i := 0; ; i++ {
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = newTracer()
		}
		s := time.Now()
		it, err := w.iterate(tr)
		if err != nil {
			return report{}, err
		}
		took := time.Since(s)
		if first == nil {
			first = &it.virt
		} else if it.virt != *first {
			rep.correct = false
			rep.notes = append(rep.notes, fmt.Sprintf("iteration %d: virtual results differ from iteration 0: %+v vs %+v", i, it.virt, *first))
		}
		rep.attempted += it.ops
		rep.failed += it.failed
		if tr != nil {
			traced, last = append(traced, it), tr
		} else {
			plain = append(plain, it)
		}
		enough := len(plain) >= minIters && (!o.trace || len(traced) >= minIters)
		if enough && time.Since(t0)+took > budget {
			break
		}
	}
	if rep.failed > 0 {
		rep.correct = false
	}
	sh := w.shape()
	if o.trace {
		rep.metrics = layerMetrics(sh, *first, plain, traced, last)
		rep.notes = append(rep.notes, fmt.Sprintf("exec=%s: core.*_ns are %s", sh.exec, map[string]string{
			"cont":      "issue cost of the continuation call",
			"goroutine": "host time waited in the blocking call, other threads' work included",
		}[sh.exec]))
		path := filepath.Join(o.traceDir, o.workload+".json")
		if err := last.writeChrome(path, map[string]any{"workload": o.workload, "seed": o.seed}); err != nil {
			return report{}, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("trace: %d spans of the last traced iteration in %s", len(last.spans), path))
	} else {
		rep.metrics = endToEnd(*first, plain)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("iterations: %d untraced, %d traced; %d latency samples per iteration; generator lateness p99 %.3f us",
		len(plain), len(traced), first.latN, first.genLateP99.Usecs()))
	return rep, nil
}

// median of the values f picks from its.
func median(its []iter, f func(iter) float64) float64 {
	v := make([]float64, len(its))
	for i, it := range its {
		v[i] = f(it)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd are the metrics a user of the simulator sees.
func endToEnd(v virt, its []iter) []metric {
	perOp := func(x uint64, it iter) float64 { return float64(x) / float64(it.ops) }
	failed := ratio(float64(v.failed), float64(v.ops))
	return []metric{
		{"setup_s", median(its, func(it iter) float64 { return it.setup.Seconds() }), "s"},
		{"wall_s", median(its, func(it iter) float64 { return it.wall.Seconds() }), "s"},
		{"allocs_per_op", median(its, func(it iter) float64 { return perOp(it.allocs, it) }), "count"},
		{"alloc_bytes_per_op", median(its, func(it iter) float64 { return perOp(it.bytes, it) }), "B"},
		{"live_heap_mb", median(its, func(it iter) float64 { return float64(it.liveHeap) / (1 << 20) }), "MB"},
		{"virt_makespan_ms", v.makespan.Msecs(), "ms"},
		{"virt_op_p50_us", v.p50.Usecs(), "us"},
		{"virt_op_p99_us", v.p99.Usecs(), "us"},
		{"virt_op_p999_us", v.p999.Usecs(), "us"},
		// A failed op counts as missing the SLO.
		{"slo_attain_frac", max(0, ratio(float64(v.sloMet), float64(v.latN))-failed), "fraction"},
		{"ops_ok_frac", 1 - failed, "fraction"},
	}
}

// layerMetrics are the per-layer figures of the traced run.
func layerMetrics(sh shape, v virt, plain, traced []iter, tr *tracer) []metric {
	l := v.lay
	span := float64(v.makespan)
	wall := median(plain, func(it iter) float64 { return it.wall.Seconds() })
	twall := median(traced, func(it iter) float64 { return it.wall.Seconds() })
	sw, ev := probeSwitch(sh.threads), probeEvents(sh.threads)
	ac, pn := probeCache(sh, tr.accesses), probePins(sh, tr.pinEvents)
	us := func(t float64) float64 { return t / 1e6 } // sim.Time is in ps
	return []metric{
		{"sim.events", float64(l.events), "count"},
		{"sim.host_ns_per_event", ratio(wall*1e9, float64(l.events)), "ns"},
		{"sim.switch_ns", sw.ns, "ns"},
		{"sim.switch_allocs", sw.allocs, "count"},
		{"sim.switch_bytes", sw.bytes, "B"},
		{"sim.event_ns", ev.ns, "ns"},
		{"sim.event_allocs", ev.allocs, "count"},
		{"sim.event_bytes", ev.bytes, "B"},
		{"sim.residual_share", tr.residualShare(), "fraction"},
		{"fabric.messages", float64(l.messages), "count"},
		{"fabric.bytes", float64(l.netBytes), "B"},
		{"fabric.tx_busy_frac", ratio(float64(l.txBusy), span*float64(sh.nodes)), "fraction"},
		{"fabric.tx_wait_us", us(ratio(float64(l.txWait), float64(l.txAcquires))), "us"},
		{"transport.am_ops", float64(l.amOps), "count"},
		{"transport.rdma_ops", float64(l.rdmaOps), "count"},
		{"transport.rdma_frac", ratio(float64(l.rdmaOps), float64(l.amOps+l.rdmaOps)), "fraction"},
		{"transport.nacks", float64(l.nacks), "count"},
		{"transport.cpu_busy_frac", ratio(float64(l.cpuBusy), span*float64(l.cpuSlots)), "fraction"},
		{"transport.cpu_wait_us", us(ratio(float64(l.cpuWait), float64(l.cpuAcquires))), "us"},
		{"transport.coal_msgs_per_frame", ratio(float64(l.coalMsgs), float64(l.coalFrames)), "count"},
		{"addrcache.lookups", float64(l.lookups), "count"},
		{"addrcache.hit_rate", ratio(float64(l.hits), float64(l.lookups)), "fraction"},
		{"addrcache.evictions", float64(l.cacheEvictions), "count"},
		{"addrcache.invalidations", float64(l.cacheInvs), "count"},
		{"addrcache.lookup_ns", ac.ns, "ns"},
		{"addrcache.lookup_allocs", ac.allocs, "count"},
		{"addrcache.lookup_bytes", ac.bytes, "B"},
		{"mem.pins", float64(l.pins), "count"},
		{"mem.evictions", float64(l.pinEvictions), "count"},
		{"mem.reuses", float64(l.reuse), "count"},
		{"mem.dereg_us", us(float64(l.dereg)), "us"},
		{"mem.pinned_peak", float64(l.pinnedPeak), "count"},
		{"mem.pin_ns", pn.ns, "ns"},
		{"mem.pin_allocs", pn.allocs, "count"},
		{"mem.pin_bytes", pn.bytes, "B"},
		{"core.new_runtime_s", tr.meanNs(spanNewRuntime) / 1e9, "s"},
		{"core.alloc_ns", tr.meanNs(spanAlloc), "ns"},
		{"core.free_ns", tr.meanNs(spanFree), "ns"},
		{"core.get_ns", tr.meanNs(spanGet), "ns"},
		{"core.put_ns", tr.meanNs(spanPut), "ns"},
		{"core.atomic_ns", tr.meanNs(spanAtomic), "ns"},
		{"core.sync_ns", tr.meanNs(spanSync), "ns"},
		{"core.barrier_ns", tr.meanNs(spanBarrier), "ns"},
		{"core.get_wait_us", us(ratio(float64(l.getTime), float64(l.gets))), "us"},
		{"kv.get_ns", tr.meanNs(spanKVGet), "ns"},
		{"kv.put_ns", tr.meanNs(spanKVPut), "ns"},
		{"kv.torn_retries", float64(l.tornRetries), "count"},
		{"kv.am_lookups", float64(l.amLookups), "count"},
		{"kv.overflows", float64(l.overflows), "count"},
		{"workload.self_share", tr.selfShare(), "fraction"},
		{"workload.gen_late_p99_us", v.genLateP99.Usecs(), "us"},
		{"trace.overhead", ratio(twall, wall), "ratio"},
	}
}
