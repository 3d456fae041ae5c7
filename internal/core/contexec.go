package core

// The runtime's initiator-side protocol, in continuation-passing style.
// This is its only implementation: a continuation-mode thread (RunCont)
// calls these methods directly, and a goroutine-mode thread's blocking
// methods (GetBulk, Barrier, Free, …) start them with the thread's wake
// callback and suspend its process, so both modes produce the same
// kernel event sequence — and therefore bit-identical RunStats — by
// construction.

import (
	"fmt"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/trace"
	"xlupc/internal/transport"
)

// ContBody is a continuation-mode program body: invoked once per UPC
// thread, written in continuation-passing style against the Thread's
// ...C methods, calling done exactly once when the thread's program is
// complete.
type ContBody func(t *Thread, done func())

// RunCont executes body once per UPC thread as continuation
// state-machines on the event heap — no coroutines, no per-thread
// stacks — driving the simulation to completion. It is the
// execution mode that makes 100k-thread sweeps feasible; bodies that
// need arbitrary Go control flow use Run instead. RunCont may be
// called once per Runtime and requires Config.Exec == ExecCont.
func (rt *Runtime) RunCont(body ContBody) (RunStats, error) {
	if rt.ran {
		return RunStats{}, fmt.Errorf("core: Runtime.RunCont called twice; build a fresh Runtime per run")
	}
	if rt.cfg.Exec != ExecCont {
		return RunStats{}, fmt.Errorf("core: Runtime.RunCont needs Config.Exec == ExecCont; use Run for goroutine mode")
	}
	rt.ran = true
	defer rt.K.Shutdown()
	rt.liveBodies = len(rt.threads)
	for _, th := range rt.threads {
		th := th
		rt.K.SpawnCIdx("upc", th.id, func(c *sim.Cont) {
			th.c = c
			body(th, func() {
				th.FenceC(func() { // drain outstanding PUTs before exiting
					c.Finish()
					rt.bodyDone()
				})
			})
		})
	}
	return rt.finishRun(rt.K.Run())
}

// ComputeC is Thread.Compute in continuation-passing style: acquire a
// core of the node, hold it for d, release it. The steps live in the
// thread's op state.
func (t *Thread) ComputeC(d sim.Duration, then func()) {
	if d <= 0 {
		then()
		return
	}
	t.rt.cfg.Trace.Begin(t.id, trace.StateCompute, t.Now())
	o := t.ops()
	o.cd, o.cthen = d, then
	t.ns.tn.CPU.AcquireCont(t.c, o.cFn)
}

// SleepC is Thread.Sleep in continuation-passing style.
func (t *Thread) SleepC(d sim.Duration, then func()) { t.c.Sleep(d, then) }

// FenceC is Thread.Fence in continuation-passing style: retire every
// split-phase handle, then wait for the outstanding PUT
// acknowledgements. The steps live in the thread's op state.
func (t *Thread) FenceC(then func()) {
	o := t.ops()
	o.fthen = then
	t.SyncAllC(o.fFn)
}

// localCBFast resolves the thread's own node's control block without
// blocking — the overwhelmingly common case, kept allocation-free.
func (t *Thread) localCBFast(a *SharedArray) (*svd.ControlBlock, bool) {
	cb, ok := t.ns.dir.LookupAny(a.h)
	if !ok {
		return nil, false
	}
	if cb.Freed {
		panic(fmt.Sprintf("core: thread %d: access to freed array %s", t.id, a.name))
	}
	return cb, true
}

// localCBC resolves the thread's own node's control block for an
// array, retrying every microsecond while the allocation notification
// is still in flight; the retry closure is only built then.
func (t *Thread) localCBC(a *SharedArray, then func(cb *svd.ControlBlock)) {
	if cb, ok := t.localCBFast(a); ok {
		then(cb)
		return
	}
	var try func()
	try = func() {
		if cb, ok := t.localCBFast(a); ok {
			then(cb)
			return
		}
		t.c.Sleep(1*sim.Us, try)
	}
	t.c.Sleep(1*sim.Us, try)
}

// --- Element accessors -------------------------------------------------

// GetC is Thread.Get in continuation-passing style.
func (t *Thread) GetC(r Ref, then func(data []byte)) {
	dst := make([]byte, r.A.l.ElemSize)
	t.GetBulkC(dst, r, func() { then(dst) })
}

// PutC is Thread.Put in continuation-passing style.
func (t *Thread) PutC(r Ref, data []byte, then func()) {
	if len(data) != r.A.l.ElemSize {
		panic(fmt.Sprintf("core: Put of %d bytes into %s with element size %d",
			len(data), r.A.name, r.A.l.ElemSize))
	}
	t.PutBulkC(r, data, then)
}

// GetUint64C is Thread.GetUint64 in continuation-passing style. The
// value callback parks in the thread's pre-bound op state, so the
// pointer-chase hot path builds no wrapper closure per element.
func (t *Thread) GetUint64C(r Ref, then func(v uint64)) {
	o := t.ops()
	o.xathen = then
	t.GetBulkC(t.w64[:], r, o.u64Fn)
}

// PutUint64C is Thread.PutUint64 in continuation-passing style.
func (t *Thread) PutUint64C(r Ref, v uint64, then func()) {
	byteOrder.PutUint64(t.w64[:], v)
	t.PutBulkC(r, t.w64[:], then)
}

// GetBulkC is Thread.GetBulk in continuation-passing style.
func (t *Thread) GetBulkC(dst []byte, r Ref, then func()) {
	es := int64(r.A.l.ElemSize)
	if int64(len(dst))%es != 0 {
		panic("core: GetBulk length not a multiple of element size")
	}
	n := int64(len(dst)) / es
	if n == 0 {
		then()
		return
	}
	r.A.check(r.Idx + n - 1)
	if r.A.l.ContigRun(r.Idx) >= n {
		// Single contiguous run — every element access and most bulk
		// transfers — skips the loop driver entirely.
		t.getRunC(r.A, r.Idx, dst, then)
		return
	}
	t.getBulkLoopC(dst, r, es, n, then)
}

// getBulkLoopC drives a multi-run GetBulkC. Outlined from GetBulkC so
// the loop closure's captures (which escape to the heap) are only
// allocated on the multi-run path — the single-run fast path above
// must stay allocation-free.
func (t *Thread) getBulkLoopC(dst []byte, r Ref, es, n int64, then func()) {
	idx, off := r.Idx, int64(0)
	sim.Loop(func(next func()) {
		if n == 0 {
			then()
			return
		}
		run := r.A.l.ContigRun(idx)
		if run > n {
			run = n
		}
		lo, hi, i0 := off*es, (off+run)*es, idx
		idx += run
		off += run
		n -= run
		t.getRunC(r.A, i0, dst[lo:hi], next)
	})
}

// PutBulkC is Thread.PutBulk in continuation-passing style.
func (t *Thread) PutBulkC(r Ref, src []byte, then func()) {
	es := int64(r.A.l.ElemSize)
	if int64(len(src))%es != 0 {
		panic("core: PutBulk length not a multiple of element size")
	}
	n := int64(len(src)) / es
	if n == 0 {
		then()
		return
	}
	r.A.check(r.Idx + n - 1)
	if r.A.l.ContigRun(r.Idx) >= n {
		t.putRunC(r.A, r.Idx, src, then)
		return
	}
	t.putBulkLoopC(r, src, es, n, then)
}

// putBulkLoopC is getBulkLoopC for PUTs: see there for why it is a
// separate method.
func (t *Thread) putBulkLoopC(r Ref, src []byte, es, n int64, then func()) {
	idx, off := r.Idx, int64(0)
	sim.Loop(func(next func()) {
		if n == 0 {
			then()
			return
		}
		run := r.A.l.ContigRun(idx)
		if run > n {
			run = n
		}
		lo, hi, i0 := off*es, (off+run)*es, idx
		idx += run
		off += run
		n -= run
		t.putRunC(r.A, i0, src[lo:hi], next)
	})
}

// --- GET/PUT runs -------------------------------------------------------

// localGetDoC performs a local GET against a resolved control block:
// the shared-memory access time, then the copy, on the thread's
// pre-bound op state.
func (t *Thread) localGetDoC(cb *svd.ControlBlock, a *SharedArray, idx int64, dst []byte, start sim.Time, then func()) {
	prof := t.rt.cfg.Profile
	span := t.rt.tel.StartSpan("get", t.id, t.ns.id, start)
	span.SetProto("local")
	span.SetBytes(len(dst))
	o := t.ops()
	o.x = nbSub{kind: nbGetEager, a: a, off: a.l.ChunkOffset(idx), buf: dst, span: span}
	o.xnb, o.xcb, o.xthen = false, cb, then
	o.xWait(prof.ShmLatency+sim.BytesTime(len(dst), prof.ShmByteTime), xsLocal)
}

// getRunC reads len(dst) bytes at element idx, which the caller
// guarantees is a single-affinity contiguous run: shared memory on the
// thread's own node; otherwise a cache lookup, the one-sided read on a
// hit, and the eager or rendezvous path (getSlowC) on a miss or NACK.
func (t *Thread) getRunC(a *SharedArray, idx int64, dst []byte, then func()) {
	prof := t.rt.cfg.Profile
	size := len(dst)
	rn := a.l.NodeOf(idx)
	start := t.Now()

	if rn == t.ns.id {
		if cb, ok := t.localCBFast(a); ok {
			t.localGetDoC(cb, a, idx, dst, start, then)
			return
		}
		t.localCBC(a, func(cb *svd.ControlBlock) { t.localGetDoC(cb, a, idx, dst, start, then) })
		return
	}

	off := a.l.ChunkOffset(idx)
	span := t.rt.tel.StartSpan("get", t.id, t.ns.id, start)
	span.SetBytes(size)
	t.rt.cfg.Trace.Begin(t.id, trace.StateGetWait, start)
	o := t.ops()
	o.x = nbSub{kind: nbGetEager, a: a, rn: int32(rn), off: off, buf: dst, span: span, start: start}
	o.xnb, o.xthen = false, then

	if t.ns.cache != nil {
		o.xt0 = t.Now()
		o.xWait(prof.CacheLookupCost, xsLookup)
		return
	}
	t.getSlowC()
}

// getSlowC is the GET in flight's path after the cache-hit attempt (or
// in its absence): eager always for small transfers and on transports
// without one-sided hardware, otherwise rendezvous — fetch the remote
// base address, then zero-copy RDMA.
func (t *Thread) getSlowC() {
	prof := t.rt.cfg.Profile
	o := t.ops()
	a, rn, off, dst, span := o.x.a, int(o.x.rn), o.x.off, o.x.buf, o.x.span
	size := len(dst)
	if size <= prof.EagerMax || !prof.SupportsRDMA {
		span.SetProto("eager")
		o.xstep = xsFinish
		t.eagerGetC(a, rn, off, dst, span, o.xStepFn)
		return
	}
	span.SetProto("rendezvous")
	t.rendezvousC(a, rn, size, span, func(res rtrResult) {
		if !res.ok {
			span.SetProto("eager")
			t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="pin_refused"`, 1)
			o.xstep = xsFinish
			t.eagerGetC(a, rn, off, dst, span, o.xStepFn)
			return
		}
		t.rt.M.RDMAGetSpanC(t.c, t.ns.id, rn, res.base, res.base+mem.Addr(off), dst, size, res.epoch, span,
			func(data []byte, nack transport.Nack, ok bool) {
				if ok {
					copy(dst, data)
					o.finish()
					return
				}
				fallback := func() {
					span.SetProto("eager")
					o.xstep = xsFinish
					t.eagerGetC(a, rn, off, dst, span, o.xStepFn)
				}
				if nack.Stale { // the target restarted between the RTR and the transfer
					t.healStaleC(rn, nack.Epoch, "get", span, func(cont bool) {
						if !cont {
							o.finish()
							return
						}
						t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="stale_epoch"`, 1)
						fallback()
					})
					return
				}
				if t.ns.cache != nil { // evicted between the RTR and the transfer
					t.ns.cache.Remove(cacheKey(a.h, rn))
				}
				t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="nack"`, 1)
				fallback()
			})
	})
}

// eagerGetC is the default, non-RDMA GET: a request AM, and the reply
// carries the data (and optionally the base address to cache). The
// leg runs on the thread's pre-bound request/reply state.
func (t *Thread) eagerGetC(a *SharedArray, rn int, off int64, dst []byte, span *telemetry.Span, then func()) {
	o := t.ops()
	done := sim.NewCompletion(t.rt.K, "get")
	o.rqmode, o.rqbuf, o.rqdone, o.rqthen = rqGet, dst, done, then
	t.rt.M.SendAMSpanC(t.c, t.ns.id, rn, hGetReq,
		&getReq{H: a.h, Off: off, Size: len(dst), WantAddr: t.ns.cache != nil, Done: done}, nil, 0, span, o.rqSentFn)
}

// rendezvousC fetches the remote base address for a large transfer:
// the target translates and pins, then answers with an rtr.
func (t *Thread) rendezvousC(a *SharedArray, rn int, size int, span *telemetry.Span, then func(res rtrResult)) {
	done := sim.NewCompletion(t.rt.K, "rts")
	t.rt.M.SendAMSpanC(t.c, t.ns.id, rn, hRTS, &rts{H: a.h, Size: size, Done: done}, nil, 0, span, func() {
		done.WaitC(t.c, func(v any) {
			res := v.(rtrResult)
			t.rt.K.Recycle(done)
			then(res)
		})
	})
}

// localPutDoC performs a local PUT against a resolved control block.
func (t *Thread) localPutDoC(cb *svd.ControlBlock, a *SharedArray, idx int64, src []byte, start sim.Time, then func()) {
	prof := t.rt.cfg.Profile
	span := t.rt.tel.StartSpan("put", t.id, t.ns.id, start)
	span.SetProto("local")
	span.SetBytes(len(src))
	o := t.ops()
	o.x = nbSub{kind: nbPut, a: a, off: a.l.ChunkOffset(idx), buf: src, span: span}
	o.xnb, o.xcb, o.xthen = false, cb, then
	o.xWait(prof.ShmLatency+sim.BytesTime(len(src), prof.ShmByteTime), xsLocal)
}

// putRunC writes src at element idx (a single-affinity contiguous
// run). Remote PUTs are asynchronous: they complete under the thread's
// fence, and then runs once the origin buffer is reusable. The PUT
// span ends there — the time the thread is actually blocked; the
// in-flight ACK's target-side phases keep accumulating and still count
// in attribution.
func (t *Thread) putRunC(a *SharedArray, idx int64, src []byte, then func()) {
	prof := t.rt.cfg.Profile
	size := len(src)
	rn := a.l.NodeOf(idx)
	start := t.Now()

	if rn == t.ns.id {
		if cb, ok := t.localCBFast(a); ok {
			t.localPutDoC(cb, a, idx, src, start, then)
			return
		}
		t.localCBC(a, func(cb *svd.ControlBlock) { t.localPutDoC(cb, a, idx, src, start, then) })
		return
	}

	off := a.l.ChunkOffset(idx)
	span := t.rt.tel.StartSpan("put", t.id, t.ns.id, start)
	span.SetBytes(size)
	t.rt.cfg.Trace.Begin(t.id, trace.StatePut, start)
	o := t.ops()
	o.x = nbSub{kind: nbPut, a: a, rn: int32(rn), off: off, buf: src, span: span, start: start}
	o.xnb, o.xthen = false, then

	if t.ns.cache != nil && t.rt.putCache {
		o.xt0 = t.Now()
		o.xWait(prof.CacheLookupCost, xsLookup)
		return
	}
	t.putSlowC()
}

// putEagerC copies the PUT in flight into a pre-registered bounce
// buffer, then fires and forgets it (putCopied) — under the fence, and
// for a split-phase PUT under its handle too.
func (t *Thread) putEagerC(wantAddr bool) {
	o := t.ops()
	o.x.span.SetProto("eager")
	o.xwant = wantAddr
	o.xt0 = t.Now()
	o.xWait(sim.BytesTime(len(o.x.buf), t.rt.cfg.Profile.CopyByteTime), xsPutCopied)
}

func (o *contOps) putCopied() {
	t, x := o.t, &o.x
	x.span.Phase(telemetry.PhaseCopy, o.xt0, t.Now())
	data := append([]byte(nil), x.buf...)
	t.fence.Add(1)
	req := &putReq{H: x.a.h, Off: x.off, WantAddr: o.xwant, Fence: t.fence, Done: x.done}
	if o.xnb {
		x.buf = data
		o.xstep = xsRecord
		t.rt.M.SendAMCoalescedC(t.c, t.ns.id, int(x.rn), hPutReq, req, data, 0, x.span, o.xStepFn)
		return
	}
	o.xstep = xsFinish
	t.rt.M.SendAMSpanC(t.c, t.ns.id, int(x.rn), hPutReq, req, data, 0, x.span, o.xStepFn)
}

// putSlowC is the PUT in flight's path after a failed (or absent)
// PUT-cache attempt: eager, or rendezvous then a zero-copy RDMA write.
func (t *Thread) putSlowC() {
	prof := t.rt.cfg.Profile
	o := t.ops()
	a, rn, off, src, span := o.x.a, int(o.x.rn), o.x.off, o.x.buf, o.x.span
	size := len(src)
	if size <= prof.EagerMax || !prof.SupportsRDMA {
		t.putEagerC(t.ns.cache != nil)
		return
	}
	span.SetProto("rendezvous")
	t.rendezvousC(a, rn, size, span, func(res rtrResult) {
		if !res.ok {
			t.rt.tel.Add("xlupc_put_fallbacks_total", `reason="pin_refused"`, 1)
			t.putEagerC(false)
			return
		}
		data := append([]byte(nil), src...)
		t.rt.M.RDMAPutSpanC(t.c, t.ns.id, rn, res.base, res.base+mem.Addr(off), data, res.epoch, span,
			func(remote *sim.Completion) {
				t.fence.Add(1)
				t.watchPut(remote, a, rn, off, data, span, nil)
				o.finish()
			})
	})
}

// healStaleC is the initiator-side recovery of a stale-epoch NACK:
// flush every cached address for the restarted node (each entry pays
// the lookup cost, attributed as the epoch_recovery phase) so the
// subsequent AM fallback re-populates from fresh piggybacked bases.
// then receives false under CrashFail, where the run is aborting and
// the caller must not retry.
func (t *Thread) healStaleC(rn int, ep uint32, op string, span *telemetry.Span, then func(ok bool)) {
	if t.rt.staleAbort(rn, ep, op, t.Now()) {
		then(false)
		return
	}
	t0 := t.Now()
	n := t.ns.cache.InvalidateNode(int32(rn))
	fin := func() {
		span.Phase(telemetry.PhaseEpochRecovery, t0, t.Now())
		t.rt.staleInvalidated += int64(n)
		t.rt.tel.Add("xlupc_stale_recoveries_total", `op="`+op+`"`, 1)
		t.rt.recordCacheInval(t.ns.id, rn, uint64(ep), n)
		then(true)
	}
	if n > 0 {
		t.c.Sleep(sim.Time(n)*t.rt.cfg.Profile.CacheLookupCost, fin)
		return
	}
	fin()
}

// --- Collective allocation ----------------------------------------------

// AllAllocC is Thread.AllAlloc in continuation-passing style.
func (t *Thread) AllAllocC(name string, numElems int64, elemSize int, block int64, then func(a *SharedArray)) {
	t.AllAllocKindC(svd.KindArray, name, numElems, elemSize, block, then)
}

// AllAllocKindC is Thread.AllAllocKind in continuation-passing style.
func (t *Thread) AllAllocKindC(kind svd.Kind, name string, numElems int64, elemSize int, block int64, then func(a *SharedArray)) {
	if numElems <= 0 || elemSize <= 0 {
		panic(fmt.Sprintf("core: AllAlloc(%s) with nonpositive size", name))
	}
	span := t.rt.tel.StartSpan("alloc", t.id, t.ns.id, t.Now())
	span.SetProto("collective")
	t.BarrierC(func() {
		ns := t.ns
		closing := func() {
			t.BarrierC(func() {
				a := ns.collective.(*SharedArray)
				span.Finish(t.Now())
				then(a)
			})
		}
		if t.isNodeRep() {
			l := t.rt.layout(elemSize, block, numElems)
			idx := ns.dir.NextIndex(svd.AllPartition)
			h := svd.Handle{Part: svd.AllPartition, Index: idx}
			t.ComputeC(allocCPUCost, func() {
				ns.installArray(h, kind, name, l)
				ns.collective = &SharedArray{rt: t.rt, h: h, l: l, name: name}
				closing()
			})
			return
		}
		closing()
	})
}

// FreeC is Thread.Free in continuation-passing style: fence, broadcast
// the free request, drop the local replica (cache invalidation, unpin,
// allocator free), then wait for every peer's acknowledgement.
func (t *Thread) FreeC(a *SharedArray, then func()) {
	t.FenceC(func() {
		span := t.rt.tel.StartSpan("free", t.id, t.ns.id, t.Now())
		acks := sim.NewCounter(t.rt.K, "free-acks", t.rt.cfg.Nodes-1)
		req := &freeReq{H: a.h, Acks: acks}
		n := 0
		sim.Loop(func(next func()) {
			for n < t.rt.cfg.Nodes && n == t.ns.id {
				n++
			}
			if n == t.rt.cfg.Nodes {
				t.ns.dropObjectC(t.c, a.h, func() {
					acks.WaitC(t.c, func() {
						span.Finish(t.Now())
						then()
					})
				})
				return
			}
			dst := n
			n++
			t.rt.M.SendAMSpanC(t.c, t.ns.id, dst, hFreeReq, req, nil, 0, nil, next)
		})
	})
}

// dropObjectC performs the local part of a free on node ns: drop the
// object's cached addresses, unpin and free its local piece, and mark
// the handle freed. Remote free requests arrive on the dispatcher
// processes and use the blocking wrapper, dropObject.
func (ns *nodeState) dropObjectC(ct *sim.Cont, h svd.Handle, then func()) {
	afterInval := func() {
		cb, ok := ns.dir.LookupAny(h)
		if !ok {
			panic(fmt.Sprintf("core: node %d freeing unknown object %v", ns.id, h))
		}
		finish := func() {
			ns.dir.MarkFreed(h)
			then()
		}
		if cb.HasLocal {
			cost := ns.tn.Pins.Unpin(cb.LocalBase, ns.rt.K.Now())
			ct.Sleep(cost, func() {
				ns.tn.Mem.Free(cb.LocalBase)
				finish()
			})
			return
		}
		finish()
	}
	if ns.cache != nil {
		n := ns.cache.InvalidateHandle(h.Key())
		ct.Sleep(sim.Time(n)*ns.rt.cfg.Profile.CacheLookupCost, func() {
			ns.rt.recordCacheInval(ns.id, -1, h.Key(), n)
			afterInval()
		})
		return
	}
	afterInval()
}
