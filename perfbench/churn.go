package main

import (
	"fmt"

	"xlupc/internal/core"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// churn is the alloc/free churn storm under a tight pin budget: every
// round allocates a set of arrays, seeds each thread's block, scans
// mostly a hot neighbour with a periodic cold sweep, and frees them
// all, so the next round's allocations reuse the freed bases. The
// first round is set-up; the measured rounds run at steady state,
// except for state that grows with the number of distinct handles.
type churn struct {
	seed           int64
	threads, nodes int
	rounds         int // measured rounds; one more runs as set-up
	arrays, block  int
	scans, seeded  int
	budget         int // pin budget per node, bytes

	names  [][]string // array names per round, made up front
	lat    []sim.Time
	digest []uint64
	failed []int64
}

func newChurn(seed int64) *churn {
	c := &churn{seed: seed, threads: 32, nodes: 8, rounds: 100, arrays: 6, block: 8, scans: 8, seeded: 4}
	// The budget is 0.34 of the per-node working set: every array
	// contributes one block per resident thread.
	ws := c.arrays * c.block * 8 * (c.threads / c.nodes)
	c.budget = max(int(0.34*float64(ws)), c.block*8*(c.threads/c.nodes))
	c.names = make([][]string, c.rounds+1)
	for r := range c.names {
		c.names[r] = make([]string, c.arrays)
		for ai := range c.names[r] {
			c.names[r][ai] = fmt.Sprintf("churn-%d-%d", r, ai)
		}
	}
	c.lat = make([]sim.Time, 0, c.threads*c.rounds*c.scans*c.arrays)
	c.digest = make([]uint64, c.threads)
	c.failed = make([]int64, c.threads)
	return c
}

func (c *churn) pinConfig() *core.PinConfig {
	return &core.PinConfig{Policy: mem.PinLimited, MaxTotal: c.budget, Evictor: mem.EvictCost, Lazy: &mem.LazyConfig{}}
}

func (c *churn) shape() shape {
	model := transport.GM().Reg
	model.MaxTotal = c.budget
	return shape{exec: "goroutine", threads: c.threads, nodes: c.nodes,
		cacheCap: core.DefaultCache().Capacity,
		pin: func(n int) *mem.PinTable {
			t := mem.NewPinTable(n, model, mem.PinLimited)
			t.SetEvictor(mem.EvictCost.New(model))
			t.SetLazyUnpin(&mem.LazyConfig{})
			return t
		}}
}

// value is what thread tid seeds at slot w of array ai in round r.
func (c *churn) value(r, ai, tid, w int) uint64 {
	return mix(uint64(c.seed)<<50 ^ uint64(r)<<40 ^ uint64(ai)<<32 ^ uint64(tid)<<16 ^ uint64(w))
}

// victim is the thread whose block scan s of round r reads: the thread
// at the same place on the next node (a remote hot set), or on every
// fourth scan a seeded random cold one.
func (c *churn) victim(tid, s, r int) int {
	if s%4 == 0 {
		return int(mix(uint64(c.seed)<<40^uint64(r)<<20^uint64(tid)<<8^uint64(s)) % uint64(c.threads))
	}
	return (tid + c.threads/c.nodes) % c.threads
}

// array picks which array step k of scan s reads: the two hot arrays,
// or on cold-sweep scans the cold tail.
func (c *churn) array(s, k int) int {
	if s%4 == 0 {
		return 2 + (k+s/4)%(c.arrays-2)
	}
	return k % 2
}

func (c *churn) iterate(tr *tracer) (iter, error) {
	cfg := core.Config{Threads: c.threads, Nodes: c.nodes, Profile: transport.GM(),
		Cache: core.DefaultCache(), Seed: c.seed, Pin: c.pinConfig()}
	rt, ph, err := newRuntime(cfg, tr)
	if err != nil {
		return iter{}, err
	}
	c.lat = c.lat[:0]
	for t := range c.digest {
		c.digest[t], c.failed[t] = 0, 0
	}
	st, err := rt.Run(func(t *core.Thread) { c.body(t, ph, tr) })
	if err != nil {
		return iter{}, fmt.Errorf("churn-pin run: %w", err)
	}
	var it iter
	if err := ph.fold(&it, st); err != nil {
		return iter{}, err
	}
	it.ops = int64(c.threads * c.rounds * c.scans * c.arrays)
	for t, d := range c.digest {
		it.failed += c.failed[t]
		it.virt.checksum = mix(it.virt.checksum ^ d + uint64(t))
	}
	it.virt.failed, it.virt.ops = it.failed, it.ops
	summarize(c.lat, &it.virt)
	return it, nil
}

func (c *churn) body(t *core.Thread, ph *phases, tr *tracer) {
	tid := t.ID()
	elems := int64(c.block * c.threads)
	arrays := make([]*core.SharedArray, c.arrays)
	base := int64(tid * c.block)
	var h uint64
	for r := 0; r <= c.rounds; r++ {
		if r == 1 {
			ph.start()
		}
		measured := r > 0
		for ai := range arrays {
			s := tr.begin()
			arrays[ai] = t.AllAlloc(c.names[r][ai], elems, 8, int64(c.block))
			tr.end(spanAlloc, tid, s)
			if tid == 0 {
				tr.noteAlloc(arrays[ai].Handle().Key(), c.nodes, int(arrays[ai].Layout().NodeChunkBytes(0)))
			}
		}
		for ai, a := range arrays {
			for w := 0; w < c.seeded; w++ {
				s := tr.begin()
				t.PutUint64(a.At(base+int64(w)), c.value(r, ai, tid, w))
				tr.end(spanPut, tid, s)
			}
		}
		s := tr.begin()
		t.Barrier()
		tr.end(spanBarrier, tid, s)
		for sc := 0; sc < c.scans; sc++ {
			v := c.victim(tid, sc, r)
			vbase := int64(v * c.block)
			for k := 0; k < c.arrays; k++ {
				ai := c.array(sc, k)
				ref := arrays[ai].At(vbase + int64(sc%c.seeded))
				if node := ref.A.Layout().NodeOf(ref.Idx); node != t.Node() {
					tr.noteAccess(t.Node(), node, arrays[ai].Handle().Key())
					tr.noteUse(node, arrays[ai].Handle().Key())
				}
				issue := t.Now()
				s := tr.begin()
				got := t.GetUint64(ref)
				tr.end(spanGet, tid, s)
				s = tr.begin()
				if measured {
					c.lat = append(c.lat, t.Now()-issue)
					if got != c.value(r, ai, v, sc%c.seeded) {
						c.failed[tid]++
					}
					h = mix(h ^ got + uint64(t.Now()-issue))
				}
				tr.end(spanBody, tid, s)
			}
		}
		s = tr.begin()
		t.Barrier()
		tr.end(spanBarrier, tid, s)
		if tid == 0 {
			for _, a := range arrays {
				s = tr.begin()
				t.Free(a)
				tr.end(spanFree, tid, s)
				tr.noteFree(a.Handle().Key(), c.nodes, int(a.Layout().NodeChunkBytes(0)))
			}
		}
		s = tr.begin()
		t.Barrier()
		tr.end(spanBarrier, tid, s)
	}
	ph.end()
	c.digest[tid] = h
}
