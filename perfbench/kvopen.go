package main

import (
	"fmt"
	"math/rand"

	"xlupc/internal/core"
	"xlupc/internal/kv"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// kvOpen drives the sharded KV table open-loop: every thread issues its
// seeded schedule of Zipf-distributed GETs and PUTs at a fixed mean
// rate, and each op's latency runs from the time it was due. Values encode (key,
// writer, seq), so every GET is checked against the schedule.
type kvOpen struct {
	seed           int64
	threads, nodes int
	keys           int64
	warmOps, ops   int
	interval       sim.Time

	sched  [][]kvOp     // measured ops per thread
	warm   [][]uint64   // warm-up GET keys per thread
	issued [][]sim.Time // virtual issue time of each measured op, -1 until issued
	lat    []sim.Time
	late   []sim.Time // how late the generator issued each op
	digest []uint64
	failed []int64
	kvst   kv.Stats
}

type kvOp struct {
	key  uint64
	read bool
	due  sim.Time // since the start of the measured phase
}

// kvRate is the offered rate per thread, just below the saturation knee
// of this configuration (~176k ops/s per thread).
const kvRate = 150_000

func newKVOpen(seed int64) *kvOpen {
	k := &kvOpen{seed: seed, threads: 16, nodes: 4, keys: 4096, warmOps: 64, ops: 6000,
		interval: sim.Sec / kvRate}
	z, err := kv.NewZipf(k.keys, 0.99)
	if err != nil {
		panic(err) // constant arguments: a bug, not an input
	}
	k.sched = make([][]kvOp, k.threads)
	k.warm = make([][]uint64, k.threads)
	k.issued = make([][]sim.Time, k.threads)
	for t := range k.sched {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(t)))
		k.sched[t] = make([]kvOp, k.ops)
		// Gaps are uniform in [0.5, 1.5) of the mean interval: each
		// thread is an independent client, not a tick shared by all.
		due := sim.Time(0)
		for i := range k.sched[t] {
			due += sim.Time(float64(k.interval) * (0.5 + rng.Float64()))
			k.sched[t][i] = kvOp{key: kv.ScrambleKey(z.Next(rng), k.keys), read: rng.Float64() < 0.9, due: due}
		}
		k.warm[t] = make([]uint64, k.warmOps)
		for i := range k.warm[t] {
			k.warm[t][i] = kv.ScrambleKey(z.Next(rng), k.keys)
		}
		k.issued[t] = make([]sim.Time, k.ops)
	}
	k.lat = make([]sim.Time, 0, k.threads*k.ops)
	k.late = make([]sim.Time, 0, k.threads*k.ops)
	k.digest = make([]uint64, k.threads)
	k.failed = make([]int64, k.threads)
	return k
}

func (k *kvOpen) shape() shape {
	return shape{exec: "goroutine", threads: k.threads, nodes: k.nodes,
		cacheCap: core.DefaultCache().Capacity, pin: defaultPins(transport.GM())}
}

// stamp encodes the writer and sequence number of a PUT; the preload
// writes stamp 0.
func stamp(writer, seq int) uint32 { return uint32(writer+1)<<24 | uint32(seq+1) }

// valid reports whether val is a value key may hold at virtual time now:
// it echoes key and is either the preload or a PUT of key some thread
// had issued by now.
func (k *kvOpen) valid(key, val uint64, now sim.Time) bool {
	if uint32(val) != uint32(key) {
		return false
	}
	st := uint32(val >> 32)
	if st == 0 {
		return true
	}
	w, seq := int(st>>24)-1, int(st&0xFFFFFF)-1
	if w < 0 || w >= k.threads || seq < 0 || seq >= k.ops {
		return false
	}
	op := k.sched[w][seq]
	at := k.issued[w][seq]
	return !op.read && op.key == key && at >= 0 && at <= now
}

func (k *kvOpen) iterate(tr *tracer) (iter, error) {
	cfg := core.Config{Threads: k.threads, Nodes: k.nodes, Profile: transport.GM(),
		Cache: core.DefaultCache(), Seed: k.seed}
	rt, ph, err := newRuntime(cfg, tr)
	if err != nil {
		return iter{}, err
	}
	for t := range k.issued {
		for i := range k.issued[t] {
			k.issued[t][i] = -1
		}
		k.digest[t], k.failed[t] = 0, 0
	}
	k.lat, k.late, k.kvst = k.lat[:0], k.late[:0], kv.Stats{}
	st, err := rt.Run(func(t *core.Thread) { k.body(t, ph, tr) })
	if err != nil {
		return iter{}, fmt.Errorf("kv-open run: %w", err)
	}
	var it iter
	if err := ph.fold(&it, st); err != nil {
		return iter{}, err
	}
	it.ops = int64(k.threads * k.ops)
	for t := range k.digest {
		it.failed += k.failed[t]
		it.virt.checksum = mix(it.virt.checksum ^ k.digest[t] + uint64(t))
	}
	it.virt.failed, it.virt.ops = it.failed, it.ops
	it.virt.lay.tornRetries, it.virt.lay.amLookups, it.virt.lay.overflows =
		k.kvst.TornRetries, k.kvst.AMLookups, k.kvst.Overflows
	summarize(k.lat, &it.virt)
	sortTimes(k.late)
	it.virt.genLateP99 = quantile(k.late, 0.99)
	return it, nil
}

func (k *kvOpen) body(t *core.Thread, ph *phases, tr *tracer) {
	tid := t.ID()
	s := tr.begin()
	tb := kv.New(t, kv.Options{NumKeys: k.keys})
	tr.end(spanKVNew, tid, s)
	if tid == 0 {
		a := tb.Array()
		tr.noteAlloc(a.Handle().Key(), k.nodes, int(a.Layout().NodeChunkBytes(0)))
	}
	s = tr.begin()
	kv.Preload(t, tb, k.keys)
	tr.end(spanPreload, tid, s)
	for _, key := range k.warm[tid] {
		s = tr.begin()
		val, ok := tb.Get(t, key)
		tr.end(spanKVGet, tid, s)
		if !ok || !k.valid(key, val, t.Now()) {
			k.failed[tid]++
		}
	}
	s = tr.begin()
	t.Barrier()
	tr.end(spanBarrier, tid, s)
	ph.start()
	st0 := tb.Stats
	origin := ph.vStart
	h := uint64(tid)
	handle := tb.Array().Handle().Key()
	for i, op := range k.sched[tid] {
		due := origin + op.due
		if now := t.Now(); now < due {
			t.Sleep(due - now)
		}
		issue := t.Now()
		k.issued[tid][i] = issue
		if home := tb.HomeNode(op.key); op.read && home != t.Node() {
			tr.noteAccess(t.Node(), home, handle)
			tr.noteUse(home, handle)
		}
		var val uint64
		var ok bool
		if op.read {
			s = tr.begin()
			val, ok = tb.Get(t, op.key)
			tr.end(spanKVGet, tid, s)
		} else {
			val = uint64(stamp(tid, i))<<32 | uint64(uint32(op.key))
			s = tr.begin()
			ok = tb.Put(t, op.key, val)
			tr.end(spanKVPut, tid, s)
		}
		s = tr.begin()
		done := t.Now()
		if !ok || (op.read && !k.valid(op.key, val, done)) {
			k.failed[tid]++
		}
		k.lat = append(k.lat, done-due)
		k.late = append(k.late, issue-due)
		h = mix(h ^ op.key ^ val<<1 ^ uint64(done-due)<<7)
		tr.end(spanBody, tid, s)
	}
	s = tr.begin()
	t.Barrier()
	tr.end(spanBarrier, tid, s)
	ph.end()
	k.digest[tid] = h
	d := tb.Stats
	k.kvst.TornRetries += d.TornRetries - st0.TornRetries
	k.kvst.AMLookups += d.AMLookups - st0.AMLookups
	k.kvst.Overflows += d.Overflows - st0.Overflows
}
