package main

import (
	"fmt"
	"sort"

	"xlupc/internal/mem"
	"xlupc/internal/transport"
)

// workload is one named input set. Its inputs are a function of the
// seed alone, made once per process; iterate builds a fresh runtime
// each time, so every iteration repeats the same virtual run.
type workload interface {
	// iterate runs one iteration; tr is nil when untraced.
	iterate(tr *tracer) (iter, error)
	shape() shape
}

// shape is what the replay probes need to know about a workload.
type shape struct {
	exec     string // "cont" or "goroutine": what the core.* spans time
	threads  int    // also the heap width: each simulated thread keeps about one event pending
	nodes    int
	cacheCap int
	pin      func(node int) *mem.PinTable // a fresh table configured as in the workload
}

// workloads lists the benchmark's workloads and why each was chosen.
var workloads = []struct {
	name, why string
	make      func(seed int64) workload
}{
	{"chase-cont", "pointer chase at 4096 threads/128 nodes in continuation mode: event heap, cached RDMA GET issue path",
		func(seed int64) workload { return newChase(seed) }},
	{"kv-open", "open-loop Zipf KV reads and writes just below saturation: proc handoff, seqlock reads, AM writes, SLO",
		func(seed int64) workload { return newKVOpen(seed) }},
	{"gups-lapi", "GUPS updates under three protocols on LAPI: atomics, coalescing, AM PUTs, fences, NIC contention",
		func(seed int64) workload { return newGUPS(seed) }},
	{"churn-pin", "alloc/free churn under a tight pin budget: evictor, dead-list, SVD alloc/free, cache invalidation",
		func(seed int64) workload { return newChurn(seed) }},
}

func findWorkload(name string) (func(int64) workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w.make, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// defaultPins returns fresh pin tables configured as the profile's
// default (pin everything, 1 GB budget).
func defaultPins(prof *transport.Profile) func(int) *mem.PinTable {
	return func(n int) *mem.PinTable { return mem.NewPinTable(n, prof.Reg, prof.PinPolicy) }
}
