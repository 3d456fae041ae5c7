package main

import (
	"fmt"
	"math/rand"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// chase is a Figure-8-style pointer chase in continuation mode: every
// thread owns one block of a shared array filled with pseudo-random
// successor indices and follows the chain, almost every hop a remote
// GET over the cached RDMA path. The address cache holds one entry per
// node, so after the warm-up hops the chase runs at steady state.
type chase struct {
	seed           int64
	threads, nodes int
	elems          int64 // per-thread block, 8-byte words
	warm, hops     int   // warm-up hops (set-up), measured hops

	next  []uint64 // the array contents, as the host computes them
	start []int    // each thread's first index
	want  []uint64 // host-walked checksum per thread
	lat   []sim.Time
	check []uint64
}

func newChase(seed int64) *chase {
	c := &chase{seed: seed, threads: 4096, nodes: 128, elems: 32, warm: 32, hops: 64}
	// The successors form one seeded permutation, so chains never merge:
	// a random mapping would funnel most threads onto one cycle within a
	// few dozen hops and make the tail a property of the seed.
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(int(c.elems) * c.threads)
	c.next = make([]uint64, len(perm))
	for i, p := range perm {
		c.next[i] = uint64(p)
	}
	c.start = rng.Perm(len(perm))[:c.threads]
	c.want = make([]uint64, c.threads)
	for t := range c.want {
		pos := uint64(c.start[t])
		var check uint64
		for h := 0; h < c.warm+c.hops; h++ {
			v := c.next[pos]
			if h >= c.warm {
				check ^= v + uint64(h)
			}
			pos = v
		}
		c.want[t] = check
	}
	c.lat = make([]sim.Time, c.threads*c.hops)
	c.check = make([]uint64, c.threads)
	return c
}

func (c *chase) shape() shape {
	return shape{exec: "cont", threads: c.threads, nodes: c.nodes,
		cacheCap: c.nodes, pin: defaultPins(transport.GM())}
}

// chaser is one thread's chase state; its methods are the continuation
// steps, bound once per thread so the chase itself allocates nothing.
type chaser struct {
	c      *chase
	t      *core.Thread
	ph     *phases
	tr     *tracer
	a      *core.SharedArray
	pos    int64
	h      int
	check  uint64
	issued sim.Time
	done   func()

	stepFn func(uint64)
}

func (c *chase) iterate(tr *tracer) (iter, error) {
	cache := core.DefaultCache()
	cache.Capacity = c.nodes
	cfg := core.Config{Threads: c.threads, Nodes: c.nodes, Profile: transport.GM(),
		Cache: cache, Seed: c.seed, Exec: core.ExecCont}
	rt, ph, err := newRuntime(cfg, tr)
	if err != nil {
		return iter{}, err
	}
	st, err := rt.RunCont(func(t *core.Thread, done func()) {
		ch := &chaser{c: c, t: t, ph: ph, tr: tr, done: done}
		ch.stepFn = ch.step
		ch.alloc()
	})
	if err != nil {
		return iter{}, fmt.Errorf("chase-cont run: %w", err)
	}
	var it iter
	if err := ph.fold(&it, st); err != nil {
		return iter{}, err
	}
	it.ops = int64(c.threads * c.hops)
	for t, got := range c.check {
		if got != c.want[t] {
			it.failed += int64(c.hops)
		}
		it.virt.checksum = mix(it.virt.checksum ^ got + uint64(t))
	}
	summarize(c.lat, &it.virt)
	it.virt.failed, it.virt.ops = it.failed, it.ops
	return it, nil
}

func (ch *chaser) alloc() {
	c, t, tr := ch.c, ch.t, ch.tr
	s := tr.begin()
	t.AllAllocC("chase", c.elems*int64(c.threads), 8, c.elems, ch.fill)
	tr.end(spanAlloc, t.ID(), s)
}

func (ch *chaser) fill(a *core.SharedArray) {
	c, t, tr := ch.c, ch.t, ch.tr
	ch.a = a
	if t.ID() == 0 {
		tr.noteAlloc(a.Handle().Key(), c.nodes, int(a.Layout().NodeChunkBytes(0)))
	}
	lo := int64(t.ID()) * c.elems
	i := int64(0)
	sim.Loop(func(next func()) {
		if i == c.elems {
			s := tr.begin()
			t.BarrierC(ch.warmUp)
			tr.end(spanBarrier, t.ID(), s)
			return
		}
		idx := lo + i
		i++
		s := tr.begin()
		t.PutUint64C(a.At(idx), c.next[idx], next)
		tr.end(spanPut, t.ID(), s)
	})
}

func (ch *chaser) warmUp() {
	ch.pos = int64(ch.c.start[ch.t.ID()])
	ch.issue()
}

// issue starts the GET of hop ch.h.
func (ch *chaser) issue() {
	t, tr := ch.t, ch.tr
	if tr != nil && ch.h >= ch.c.warm {
		node := ch.a.Layout().NodeOf(ch.pos)
		if node != t.Node() {
			tr.noteAccess(t.Node(), node, ch.a.Handle().Key())
			tr.noteUse(node, ch.a.Handle().Key())
		}
	}
	ch.issued = t.Now()
	s := tr.begin()
	t.GetUint64C(ch.a.At(ch.pos), ch.stepFn)
	tr.end(spanGet, t.ID(), s)
}

func (ch *chaser) step(v uint64) {
	c, t, tr := ch.c, ch.t, ch.tr
	s := tr.begin()
	if m := ch.h - c.warm; m >= 0 {
		c.lat[t.ID()*c.hops+m] = t.Now() - ch.issued
		ch.check ^= v + uint64(ch.h)
	}
	ch.h++
	ch.pos = int64(v)
	tr.end(spanBody, t.ID(), s)
	switch ch.h {
	case c.warm:
		s := tr.begin()
		t.BarrierC(ch.measure)
		tr.end(spanBarrier, t.ID(), s)
	case c.warm + c.hops:
		s := tr.begin()
		t.BarrierC(ch.finish)
		tr.end(spanBarrier, t.ID(), s)
	default:
		ch.issue()
	}
}

// measure starts the measured hops after a seeded delay of up to about
// one hop, so the threads do not chase in lock-step from the barrier.
func (ch *chaser) measure() {
	ch.ph.start()
	ch.t.SleepC(sim.Time(mix(uint64(ch.c.seed)^uint64(ch.t.ID())<<32)%uint64(30*sim.Us)), ch.issue)
}

func (ch *chaser) finish() {
	ch.ph.end()
	ch.c.check[ch.t.ID()] = ch.check
	ch.done()
}
