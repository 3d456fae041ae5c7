package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"xlupc/internal/core"
	"xlupc/internal/sim"
)

// sloLimit is the per-op virtual latency limit slo_attain_frac counts
// against, on every workload.
const sloLimit = 200 * sim.Us

// iter is one fixed-size iteration of a workload: a fresh runtime, its
// set-up, the measured phase, and the output checks.
type iter struct {
	// Host side; these vary from run to run.
	setup, wall   time.Duration
	allocs, bytes uint64 // heap allocations and bytes in the measured phase
	liveHeap      uint64 // live heap the runtime holds at the end of the measured phase
	ops, failed   int64

	// Virtual side: a function of the workload and seed alone, so it
	// must repeat exactly in every iteration, traced or not.
	virt virt
}

// virt is the exact virtual outcome of an iteration, comparable with ==.
type virt struct {
	makespan       sim.Time
	ops            int64
	latN           int
	p50, p99, p999 sim.Time
	latSum         sim.Time
	sloMet         int64
	checksum       uint64
	failed         int64
	lay            layers
	genLateP99     sim.Time
}

// layers are the measured-phase counters read through the layers'
// public accessors: exact virtual counts.
type layers struct {
	events                    int64
	messages, netBytes        int64
	amOps, rdmaOps, nacks     int64
	txBusy, txWait            sim.Time
	txAcquires                int64
	cpuBusy, cpuWait          sim.Time
	cpuAcquires, cpuSlots     int64
	lookups, hits             int64
	cacheEvictions, cacheInvs int64
	pins, pinEvictions, reuse int64
	dereg                     sim.Time
	pinnedPeak                int64
	coalMsgs, coalFrames      int64
	getTime                   sim.Time
	gets                      int64
	tornRetries, amLookups    int64
	overflows                 int64
}

// add folds o into l (for workloads that run several runtimes).
func (l *layers) add(o layers) {
	l.events += o.events
	l.messages += o.messages
	l.netBytes += o.netBytes
	l.amOps += o.amOps
	l.rdmaOps += o.rdmaOps
	l.nacks += o.nacks
	l.txBusy += o.txBusy
	l.txWait += o.txWait
	l.txAcquires += o.txAcquires
	l.cpuBusy += o.cpuBusy
	l.cpuWait += o.cpuWait
	l.cpuAcquires += o.cpuAcquires
	l.cpuSlots = max(l.cpuSlots, o.cpuSlots)
	l.lookups += o.lookups
	l.hits += o.hits
	l.cacheEvictions += o.cacheEvictions
	l.cacheInvs += o.cacheInvs
	l.pins += o.pins
	l.pinEvictions += o.pinEvictions
	l.reuse += o.reuse
	l.dereg += o.dereg
	l.pinnedPeak = max(l.pinnedPeak, o.pinnedPeak)
	l.coalMsgs += o.coalMsgs
	l.coalFrames += o.coalFrames
	l.getTime += o.getTime
	l.gets += o.gets
	l.tornRetries += o.tornRetries
	l.amLookups += o.amLookups
	l.overflows += o.overflows
}

// sub returns l - o for the cumulative counters.
func (l layers) sub(o layers) layers {
	l.events -= o.events
	l.messages -= o.messages
	l.netBytes -= o.netBytes
	l.amOps -= o.amOps
	l.rdmaOps -= o.rdmaOps
	l.nacks -= o.nacks
	l.txBusy -= o.txBusy
	l.txWait -= o.txWait
	l.txAcquires -= o.txAcquires
	l.cpuBusy -= o.cpuBusy
	l.cpuWait -= o.cpuWait
	l.cpuAcquires -= o.cpuAcquires
	l.lookups -= o.lookups
	l.hits -= o.hits
	l.cacheEvictions -= o.cacheEvictions
	l.cacheInvs -= o.cacheInvs
	l.pins -= o.pins
	l.pinEvictions -= o.pinEvictions
	l.reuse -= o.reuse
	l.dereg -= o.dereg
	return l
}

// snapshot reads the cumulative layer counters of a running runtime.
func snapshot(rt *core.Runtime) layers {
	var l layers
	m := rt.M
	l.events = rt.K.Events()
	l.messages, l.netBytes = m.Fab.Messages(), m.Fab.Bytes()
	l.amOps, l.rdmaOps, l.nacks = m.AMCount(), m.RDMACount(), m.NackCount()
	for i, nd := range m.Nodes {
		tx := m.Fab.Port(i).TX.Stats()
		l.txBusy += tx.BusyTime
		l.txWait += tx.TotalWait
		l.txAcquires += tx.Acquires
		cpus := []*sim.Resource{nd.CPU}
		if nd.Comm != nd.CPU {
			cpus = append(cpus, nd.Comm)
		}
		for _, r := range cpus {
			s := r.Stats()
			l.cpuBusy += s.BusyTime
			l.cpuWait += s.TotalWait
			l.cpuAcquires += s.Acquires
			l.cpuSlots += int64(r.Capacity())
		}
		if c := rt.Cache(i); c != nil {
			cs := c.Stats()
			l.lookups += cs.Lookups()
			l.hits += cs.Hits
			l.cacheEvictions += cs.Evictions
			l.cacheInvs += cs.Invalidations
		}
		p := nd.Pins
		l.pins += p.Pins
		l.pinEvictions += p.Evicted
		l.reuse += p.Reuses
		l.dereg += p.DeregTime
		l.pinnedPeak = max(l.pinnedPeak, int64(p.MaxLive))
	}
	return l
}

// phases times one runtime's set-up and measured phase from inside the
// simulation. The first thread out of the barrier that opens the
// measured phase calls start; the first out of the barrier that closes
// it calls end.
type phases struct {
	rt         *core.Runtime
	tr         *tracer
	t0         time.Time // before core.NewRuntime
	started    bool
	ended      bool
	hostStart  time.Time
	hostEnd    time.Time
	vStart     sim.Time
	vEnd       sim.Time
	ms0, ms1   runtime.MemStats
	lay0, lay1 layers
	baseHeap   uint64 // live heap before the runtime was built
	liveHeap   uint64 // live heap the runtime adds, at the end of the measured phase
}

// newRuntime builds the runtime for cfg inside a core.new_runtime span,
// starting the set-up clock.
func newRuntime(cfg core.Config, tr *tracer) (*core.Runtime, *phases, error) {
	ph := &phases{tr: tr}
	// The live heap before the runtime exists holds the benchmark's own
	// inputs and buffers; end subtracts it.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.baseHeap = ms.HeapAlloc
	ph.t0 = time.Now()
	s := tr.begin()
	rt, err := core.NewRuntime(cfg)
	tr.end(spanNewRuntime, -1, s)
	if err != nil {
		return nil, nil, fmt.Errorf("build runtime: %w", err)
	}
	ph.rt = rt
	return rt, ph, nil
}

func (ph *phases) start() {
	if ph.started {
		return
	}
	ph.started = true
	ph.lay0 = snapshot(ph.rt)
	ph.vStart = ph.rt.K.Now()
	runtime.ReadMemStats(&ph.ms0)
	ph.tr.window(true)
	ph.hostStart = time.Now()
}

func (ph *phases) end() {
	if ph.ended {
		return
	}
	ph.hostEnd = time.Now()
	ph.tr.window(false)
	ph.ended = true
	runtime.ReadMemStats(&ph.ms1)
	ph.vEnd = ph.rt.K.Now()
	ph.lay1 = snapshot(ph.rt)
	runtime.GC() // the runtime is still reachable from the running simulation
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > ph.baseHeap {
		ph.liveHeap = ms.HeapAlloc - ph.baseHeap
	}
}

// fold adds this runtime's phase measurements to it.
func (ph *phases) fold(it *iter, st core.RunStats) error {
	if !ph.started || !ph.ended {
		return fmt.Errorf("measured phase never opened or closed")
	}
	it.setup += ph.hostStart.Sub(ph.t0)
	it.wall += ph.hostEnd.Sub(ph.hostStart)
	it.allocs += ph.ms1.Mallocs - ph.ms0.Mallocs
	it.bytes += ph.ms1.TotalAlloc - ph.ms0.TotalAlloc
	it.liveHeap = max(it.liveHeap, ph.liveHeap)
	it.virt.makespan += ph.vEnd - ph.vStart
	l := ph.lay1.sub(ph.lay0)
	l.coalMsgs, l.coalFrames = st.CoalMsgs, st.CoalFrames
	l.getTime, l.gets = st.GetTime, st.Gets
	it.virt.lay.add(l)
	return nil
}

// summarize sorts the exact per-op virtual latencies lat and fills the
// latency fields of v from them.
func summarize(lat []sim.Time, v *virt) {
	sortTimes(lat)
	v.latN = len(lat)
	v.p50, v.p99, v.p999 = quantile(lat, 0.5), quantile(lat, 0.99), quantile(lat, 0.999)
	v.latSum, v.sloMet = 0, 0
	for _, x := range lat {
		v.latSum += x
		if x <= sloLimit {
			v.sloMet++
		}
	}
}

func sortTimes(s []sim.Time) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []sim.Time, q float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	r := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[min(max(r, 0), len(sorted)-1)]
}

// mix is splitmix64, the benchmark's input and checksum hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
