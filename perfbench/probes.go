package main

import (
	"runtime"
	"time"

	"xlupc/internal/addrcache"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
)

// probe is the host cost of one operation at a layer's public functions.
type probe struct {
	ns, allocs, bytes float64
}

// measureOps times fn, which performs ops operations, and divides its
// host time and heap allocations by ops.
func measureOps(ops int64, fn func()) probe {
	if ops <= 0 {
		return probe{}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(ops)
	return probe{ns: float64(d.Nanoseconds()) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n, bytes: float64(m1.TotalAlloc-m0.TotalAlloc) / n}
}

// probeSwitch replays proc park/resume at the workload's thread count:
// every simulated thread sleeps in a loop, so each event is one
// goroutine handoff.
func probeSwitch(threads int) probe {
	per := max(1, 200_000/threads)
	k := sim.NewKernel()
	for i := 0; i < threads; i++ {
		k.SpawnIdx("probe", i, func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(sim.Time(1 + (i+j)%7))
			}
		})
	}
	defer k.Shutdown()
	var err error
	pr := measureOps(int64(threads*per), func() { err = k.Run() })
	if err != nil {
		panic(err) // the probe's processes never block on anything
	}
	return pr
}

// probeEvents replays callback events at the workload's heap width:
// width self-rescheduling callbacks keep that many events pending.
func probeEvents(width int) probe {
	const total = 400_000
	k := sim.NewKernel()
	n := 0
	for i := 0; i < width; i++ {
		var tick func()
		tick = func() {
			n++
			if n < total {
				k.After(sim.Time(1+mix(uint64(n))%uint64(width)), tick)
			}
		}
		k.At(sim.Time(i), tick)
	}
	var err error
	pr := measureOps(total+int64(width), func() { err = k.Run() })
	if err != nil {
		panic(err)
	}
	return pr
}

// probeCache replays the workload's own (node, handle, target) access
// stream into fresh per-node caches of the workload's capacity: a
// lookup per access, an insert on a miss, and an InvalidateHandle on
// every node per free.
func probeCache(sh shape, stream []access) probe {
	if len(stream) == 0 {
		return probe{}
	}
	reps := max(1, 400_000/len(stream))
	fresh := make([][]*addrcache.Cache, reps)
	for r := range fresh {
		fresh[r] = newCaches(sh.nodes, sh.cacheCap, int64(r))
	}
	return measureOps(int64(reps*len(stream)), func() {
		for _, caches := range fresh {
			for _, a := range stream {
				if a.node < 0 {
					for _, c := range caches {
						c.InvalidateHandle(a.handle)
					}
					continue
				}
				c := caches[a.node]
				k := addrcache.Key{Handle: a.handle, Node: a.target}
				if _, _, ok := c.LookupEpoch(k); !ok {
					c.InsertEpoch(k, mem.Addr(a.handle), 0)
				}
			}
		}
	})
}

// pinStep is one resolved step of a registration replay.
type pinStep struct {
	use  bool // pin unless registered; otherwise unpin
	node int32
	size int
	base mem.Addr
	tag  uint64
}

// resolvePins places every chunk of the stream with a per-node
// first-fit space, as the runtime places them, so freed bases are
// handed out again, and drops the allocation steps.
func resolvePins(nodes int, stream []pinEvent) []pinStep {
	spaces := make([]*mem.Space, nodes)
	live := make([]map[uint64]pinStep, nodes)
	for n := range spaces {
		spaces[n], live[n] = mem.NewSpace(n), make(map[uint64]pinStep)
	}
	var steps []pinStep
	for _, e := range stream {
		n := e.node
		switch e.op {
		case pinAlloc:
			live[n][e.handle] = pinStep{node: n, size: int(e.size), base: spaces[n].Alloc(int(e.size)), tag: e.handle}
		case pinUse:
			if st, ok := live[n][e.handle]; ok {
				st.use = true
				steps = append(steps, st)
			}
		case pinFree:
			if st, ok := live[n][e.handle]; ok {
				steps = append(steps, st)
				spaces[n].Free(st.base)
				delete(live[n], e.handle)
			}
		}
	}
	return steps
}

// probePins replays the workload's registration stream into fresh pin
// tables configured as the workload's: a remote access pins the target
// chunk unless it is still registered, and a free unpins it.
func probePins(sh shape, stream []pinEvent) probe {
	steps := resolvePins(sh.nodes, stream)
	if len(steps) == 0 {
		return probe{}
	}
	reps := max(1, 200_000/len(steps))
	fresh := make([][]*mem.PinTable, reps)
	for r := range fresh {
		fresh[r] = make([]*mem.PinTable, sh.nodes)
		for n := range fresh[r] {
			fresh[r][n] = sh.pin(n)
		}
	}
	return measureOps(int64(reps*len(steps)), func() {
		for _, tables := range fresh {
			for i, st := range steps {
				now := sim.Time(i + 1)
				t := tables[st.node]
				if !st.use {
					t.Unpin(st.base, now)
				} else if !t.TouchOK(st.base, now) {
					_, _ = t.Pin(st.base, st.size, st.tag, now) // a refused pin degrades to the AM path, as in the runtime
				}
			}
		}
	})
}

// newCaches returns one fresh address cache per node, as the runtime
// builds them.
func newCaches(nodes, capacity int, seed int64) []*addrcache.Cache {
	cs := make([]*addrcache.Cache, nodes)
	for i := range cs {
		cs[i] = addrcache.New(capacity, addrcache.LRU, seed+int64(i))
	}
	return cs
}
