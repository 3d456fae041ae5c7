package main

import (
	"fmt"
	"math/rand"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// gups streams read-modify-write updates at random words of a
// distributed table under three protocols, each on a fresh runtime:
// blocking GET+PUT+fence, split-phase atomics retired in batches, and
// blocking remote atomics. Every word has exactly one updater, a
// seeded random thread off the word's node, so there are no
// cross-thread races: all three protocols must leave the same table,
// and the host computes that table from the deltas.
//
// The latency sample is one batch of updates, from the issue of its
// first to the completion of its last: the split protocol completes
// updates only at the sync that ends a batch, so a batch is the one
// unit all three protocols share.
//
// The runtimes run without the message coalescer: with it, two threads
// of one node syncing buffers to different destinations at once crash
// transport.Machine.FlushCoalesced (see README.md, known defects).
type gups struct {
	seed           int64
	threads, nodes int
	words, updates int64 // table words per thread, updates per thread
	batch          int64

	mine   [][]int64   // the words each thread updates
	want   []uint64    // expected final table
	tables [3][]uint64 // final table per protocol, read back by the owners
	lat    []sim.Time  // per batch
}

const (
	gupsGetPut = iota
	gupsSplit
	gupsAtomic
)

func newGUPS(seed int64) *gups {
	g := &gups{seed: seed, threads: 32, nodes: 8, words: 256, updates: 1200, batch: 8}
	n := int64(g.threads) * g.words
	tpn := g.threads / g.nodes
	perNode := g.words * int64(tpn)
	rng := rand.New(rand.NewSource(seed))
	g.mine = make([][]int64, g.threads)
	for w := int64(0); w < n; w++ {
		u := rng.Intn(g.threads - tpn) // a thread on another node than word w
		if node := int(w / perNode); u >= node*tpn {
			u += tpn
		}
		g.mine[u] = append(g.mine[u], w)
	}
	g.want = make([]uint64, n)
	for i := range g.want {
		g.want[i] = g.initial(int64(i))
	}
	for t := 0; t < g.threads; t++ {
		for k := int64(0); k < g.updates; k++ {
			w, delta := g.draw(t, k)
			g.want[w] += delta
		}
	}
	for p := range g.tables {
		g.tables[p] = make([]uint64, n)
	}
	g.lat = make([]sim.Time, 0, 3*int64(g.threads)*g.batches())
	return g
}

func (g *gups) batches() int64 { return (g.updates + g.batch - 1) / g.batch }

func (g *gups) initial(i int64) uint64 { return mix(uint64(g.seed)<<32 ^ uint64(i)) }

// draw is thread tid's k-th update: a word of its own set and a delta.
func (g *gups) draw(tid int, k int64) (word int64, delta uint64) {
	h := mix(uint64(g.seed)*0x9E3779B9 ^ uint64(tid)<<32 ^ uint64(k))
	mine := g.mine[tid]
	return mine[h%uint64(len(mine))], mix(h)%255 + 1
}

func (g *gups) shape() shape {
	return shape{exec: "goroutine", threads: g.threads, nodes: g.nodes,
		cacheCap: core.DefaultCache().Capacity, pin: defaultPins(transport.LAPI())}
}

func (g *gups) iterate(tr *tracer) (iter, error) {
	var it iter
	g.lat = g.lat[:0]
	for proto := range g.tables {
		cfg := core.Config{Threads: g.threads, Nodes: g.nodes, Profile: transport.LAPI(),
			Cache: core.DefaultCache(), Seed: g.seed}
		rt, ph, err := newRuntime(cfg, tr)
		if err != nil {
			return iter{}, err
		}
		st, err := rt.Run(func(t *core.Thread) { g.body(t, proto, ph, tr) })
		if err != nil {
			return iter{}, fmt.Errorf("gups-lapi run: %w", err)
		}
		if err := ph.fold(&it, st); err != nil {
			return iter{}, err
		}
	}
	it.ops = 3 * int64(g.threads) * g.updates
	// Count the updates whose target word ended wrong, per protocol.
	for p, tab := range g.tables {
		for t := 0; t < g.threads; t++ {
			for k := int64(0); k < g.updates; k++ {
				if w, _ := g.draw(t, k); tab[w] != g.want[w] {
					it.failed++
				}
			}
		}
		for i, v := range tab {
			if p > 0 && v != g.tables[0][i] {
				it.failed++ // protocols disagree: never expected when each matches want
			}
			it.virt.checksum = mix(it.virt.checksum ^ v + uint64(i))
		}
	}
	it.virt.failed, it.virt.ops = it.failed, it.ops
	summarize(g.lat, &it.virt)
	return it, nil
}

func (g *gups) body(t *core.Thread, proto int, ph *phases, tr *tracer) {
	tid := t.ID()
	s := tr.begin()
	a := t.AllAlloc("gups", int64(g.threads)*g.words, 8, g.words)
	tr.end(spanAlloc, tid, s)
	handle := a.Handle().Key()
	if tid == 0 {
		tr.noteAlloc(handle, g.nodes, int(a.Layout().NodeChunkBytes(0)))
	}
	base := int64(tid) * g.words
	for i := int64(0); i < g.words; i++ {
		s = tr.begin()
		t.PutUint64(a.At(base+i), g.initial(base+i))
		tr.end(spanPut, tid, s)
	}
	s = tr.begin()
	t.Barrier()
	tr.end(spanBarrier, tid, s)
	ph.start()
	var batchStart sim.Time
	for k := int64(0); k < g.updates; k++ {
		s = tr.begin()
		w, delta := g.draw(tid, k)
		ref := a.At(w)
		target := a.Layout().NodeOf(w)
		tr.noteAccess(t.Node(), target, handle)
		tr.noteUse(target, handle)
		tr.end(spanBody, tid, s)
		if k%g.batch == 0 {
			batchStart = t.Now()
		}
		switch proto {
		case gupsSplit:
			s = tr.begin()
			t.NbAccumulate(ref, delta)
			tr.end(spanAtomic, tid, s)
			if (k+1)%g.batch == 0 || k == g.updates-1 {
				s = tr.begin()
				t.SyncAll()
				tr.end(spanSync, tid, s)
			}
		case gupsAtomic:
			s = tr.begin()
			t.FetchAdd(ref, delta)
			tr.end(spanAtomic, tid, s)
		default:
			s = tr.begin()
			v := t.GetUint64(ref)
			tr.end(spanGet, tid, s)
			s = tr.begin()
			t.PutUint64(ref, v+delta)
			tr.end(spanPut, tid, s)
			// The fence makes the next read of this word see the write.
			s = tr.begin()
			t.Fence()
			tr.end(spanSync, tid, s)
		}
		if (k+1)%g.batch == 0 || k == g.updates-1 {
			g.lat = append(g.lat, t.Now()-batchStart)
		}
	}
	s = tr.begin()
	t.Fence()
	t.Barrier()
	tr.end(spanBarrier, tid, s)
	ph.end()
	for i := int64(0); i < g.words; i++ {
		g.tables[proto][base+i] = t.GetUint64(a.At(base + i))
	}
	t.Barrier()
}
