package core

// Remote atomics (Active Access): data-centric read-modify-writes
// executed where the data lives, never staged through the initiator.
// On RDMA transports the hot path ships a NIC-executed descriptor —
// one message, no target-CPU round trip, indivisible at the target
// engine — through the same address cache, epoch guard and doorbell
// coalescing the one-sided GET/PUT paths use. The fallback (cache
// miss, stale epoch after a crash, deregistered region) is an active
// message whose handler performs the combine on the target CPU and
// piggybacks the fresh base address on the reply, so the next atomic
// to the same object goes back to the NIC path. Three combines exist:
// fetch-add, compare-swap, and accumulate (add with no result, the
// tightest-batching one-message-per-update primitive).

import (
	"fmt"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// atomicCPUCost models a CPU-side read-modify-write (the home-node
// fast path and the AM-fallback handler).
const atomicCPUCost = 200 * sim.Ns

// atomicReq asks the target to apply Op on the 8-byte word at (H, Off)
// and reply with the previous value — the AM fallback of the NIC path.
type atomicReq struct {
	H        svd.Handle
	Off      int64
	Op       transport.AtomicOp
	A, B     uint64          // delta, or (expected, replacement) for CAS
	WantAddr bool            // piggyback the base address on the reply
	Done     *sim.Completion // completes with the previous value (uint64)
}

// atomicRep carries the previous value plus the piggybacked base
// address back to the initiator, exactly like getRep.
type atomicRep struct {
	H     svd.Handle
	Base  mem.Addr
	Epoch uint32
	Old   uint64
	Done  *sim.Completion
	Pairs []addrPair
}

// checkAtomic validates the element for the 8-byte atomics.
func checkAtomic(r Ref) {
	if r.A.l.ElemSize != 8 {
		panic(fmt.Sprintf("core: atomic op on %s with element size %d (need 8)",
			r.A.name, r.A.l.ElemSize))
	}
	r.A.check(r.Idx)
}

// rmw applies op on the 8-byte word at addr on this node, indivisibly:
// the simulation kernel runs one process at a time, so the in-place
// update cannot interleave — exactly like a processor LL/SC pair.
func (ns *nodeState) rmw(addr mem.Addr, op transport.AtomicOp, a, b uint64) uint64 {
	var w [8]byte
	ns.tn.Mem.Read(w[:], addr)
	old := byteOrder.Uint64(w[:])
	byteOrder.PutUint64(w[:], op.Apply(old, a, b))
	ns.tn.Mem.Write(addr, w[:])
	return old
}

// --- Blocking API -------------------------------------------------------

// FetchAdd atomically adds delta to the 8-byte element at r and
// returns the element's previous value. Concurrent atomics from any
// threads never lose updates (unlike a Get/Put pair, which needs a
// Lock). On RDMA transports with a warm address cache this is one
// NIC-executed message.
func (t *Thread) FetchAdd(r Ref, delta uint64) uint64 {
	t.atomicRMWC(r, transport.AtomicFetchAdd, delta, 0, t.ops().u64ResFn)
	return t.u64Result()
}

// CompareSwap atomically installs swap in the 8-byte element at r iff
// it currently equals expect, returning the previous value and whether
// the swap happened.
func (t *Thread) CompareSwap(r Ref, expect, swap uint64) (old uint64, swapped bool) {
	t.atomicRMWC(r, transport.AtomicCompareSwap, expect, swap, t.ops().u64ResFn)
	old = t.u64Result()
	return old, old == expect
}

// Accumulate atomically adds delta to the 8-byte element at r without
// fetching the previous value — the response carries no data word, so
// accumulations batch tighter than FetchAdd.
func (t *Thread) Accumulate(r Ref, delta uint64) {
	t.atomicRMWC(r, transport.AtomicAccumulate, delta, 0, t.ops().u64ResFn)
	t.u64Result()
}

// AtomicAddU64 is the historical name of FetchAdd, kept for existing
// programs.
func (t *Thread) AtomicAddU64(r Ref, delta uint64) uint64 {
	return t.FetchAdd(r, delta)
}

// atomicFetchBuf is the posted 8-byte result buffer of a NIC atomic
// that completes before the thread moves on — the thread's staging
// word, so fetching atomics allocate nothing; accumulations post none.
func (t *Thread) atomicFetchBuf(op transport.AtomicOp) []byte {
	if op.ResultBytes() == 0 {
		return nil
	}
	return t.w64[:]
}

// --- Continuation-passing driver ---------------------------------------

// atomicRMWC is the remote-atomic driver: local fast path, cache-hit
// NIC descriptor, NACK healing, AM fallback — the same protocol ladder
// getRunC climbs. The hot paths (local, cache-hit NIC) run on the
// thread's pre-bound op state so they build no closures; the rare
// fallbacks may.
func (t *Thread) atomicRMWC(r Ref, op transport.AtomicOp, a1, a2 uint64, then func(old uint64)) {
	checkAtomic(r)
	a := r.A
	prof := t.rt.cfg.Profile
	rn := a.l.NodeOf(r.Idx)
	off := a.l.ChunkOffset(r.Idx)

	if rn == t.ns.id {
		if cb, ok := t.localCBFast(a); ok {
			t.localAtomicDoC(cb, off, op, a1, a2, then)
			return
		}
		t.localCBC(a, func(cb *svd.ControlBlock) { t.localAtomicDoC(cb, off, op, a1, a2, then) })
		return
	}

	start := t.Now()
	span := t.rt.tel.StartSpan("atomic", t.id, t.ns.id, start)
	span.SetBytes(op.OperandBytes())
	if t.rt.tel != nil {
		t.rt.tel.Add("xlupc_atomic_ops_total", `op="`+op.String()+`"`, 1)
	}
	o := t.ops()
	o.x = nbSub{kind: nbAtomicAM, a: a, rn: int32(rn), off: off, span: span, start: start, aop: op, a1: a1, a2: a2}
	o.xnb, o.xathen = false, then

	if t.ns.cache != nil {
		o.xt0 = t.Now()
		o.xWait(prof.CacheLookupCost, xsLookup)
		return
	}
	span.SetProto("am")
	t.amAtomicC(a, rn, off, op, a1, a2, span, o.xAtomicFn)
}

// localAtomicDoC performs a home-node atomic against a resolved control
// block — zero closures: the post-sleep step is pre-bound.
func (t *Thread) localAtomicDoC(cb *svd.ControlBlock, off int64, op transport.AtomicOp, a1, a2 uint64, then func(old uint64)) {
	prof := t.rt.cfg.Profile
	o := t.ops()
	o.x = nbSub{off: off, aop: op, a1: a1, a2: a2}
	o.xnb, o.xcb, o.xathen = false, cb, then
	o.xWait(prof.ShmLatency+atomicCPUCost, xsLocalAtomic)
}

// amAtomicC is the active-message atomic: the handler combines on the
// target CPU and replies with the previous value.
func (t *Thread) amAtomicC(a *SharedArray, rn int, off int64, op transport.AtomicOp, a1, a2 uint64, span *telemetry.Span, then func(old uint64)) {
	o := t.ops()
	done := sim.NewCompletion(t.rt.K, "atomic")
	o.rqmode, o.rqdone, o.rqatomic = rqAtomic, done, then
	t.rt.M.SendAMSpanC(t.c, t.ns.id, rn, hAtomic,
		&atomicReq{H: a.h, Off: off, Op: op, A: a1, B: a2, WantAddr: t.ns.cache != nil, Done: done},
		nil, op.OperandBytes(), span, o.rqSentFn)
}

// --- Split-phase atomics ------------------------------------------------

// NbFetchAdd starts a split-phase fetch-add on the 8-byte element at
// r: the previous value is stored into *out when the handle retires
// (Sync, a fence or a barrier). With coalescing enabled, batched
// atomics to one destination share a single doorbell frame.
func (t *Thread) NbFetchAdd(r Ref, delta uint64, out *uint64) Handle {
	t.nbAtomicC(r, transport.AtomicFetchAdd, delta, 0, out, t.ops().hResFn)
	return t.handleResult()
}

// NbAccumulate starts a split-phase accumulate (add, no result) on the
// 8-byte element at r — the one-message-per-update primitive of the
// RandomAccess/GUPS pattern.
func (t *Thread) NbAccumulate(r Ref, delta uint64) Handle {
	t.nbAtomicC(r, transport.AtomicAccumulate, delta, 0, nil, t.ops().hResFn)
	return t.handleResult()
}

func (t *Thread) nbAtomicC(r Ref, aop transport.AtomicOp, a1, a2 uint64, out *uint64, then func(h Handle)) {
	checkAtomic(r)
	nb := t.newNbOp()
	a := r.A
	rn := a.l.NodeOf(r.Idx)
	off := a.l.ChunkOffset(r.Idx)
	start := t.Now()
	if rn == t.ns.id {
		// Home node: the combine completes at issue.
		o := t.ops()
		o.nop, o.nthen, o.nout = nb, then, out
		if cb, ok := t.localCBFast(a); ok {
			t.localAtomicDoC(cb, off, aop, a1, a2, o.nLocalAtomicFn)
			return
		}
		t.localCBC(a, func(cb *svd.ControlBlock) { t.localAtomicDoC(cb, off, aop, a1, a2, o.nLocalAtomicFn) })
		return
	}
	span := t.rt.tel.StartSpan("atomic", t.id, t.ns.id, start)
	span.SetBytes(aop.OperandBytes())
	if t.rt.tel != nil {
		t.rt.tel.Add("xlupc_atomic_ops_total", `op="`+aop.String()+`"`, 1)
	}
	t.nbIssue(nb, nbSub{kind: nbAtomicAM, a: a, rn: int32(rn), off: off, span: span, start: start,
		aop: aop, a1: a1, a2: a2, out: out}, t.nbSingle(nb, then))
}

// --- Target-side handlers ----------------------------------------------

// handleAtomic mirrors handleGetReq: resolve, optionally pin and
// advertise, combine on the target CPU, and reply with the previous
// value plus the piggybacked base — so an AM-fallback atomic repairs
// the initiator's cache and later atomics return to the NIC path.
func (rt *Runtime) handleAtomic(hc *transport.HandlerCtx, msg *transport.Msg, done func()) {
	m := msg.Meta.(*atomicReq)
	rt.request(hc, msg, done, m.H, m.WantAddr)
}

// atomicServed runs once the combine cost elapsed: the cost is charged
// first and the update made in one indivisible step, so parallel
// handler contexts (LAPI) cannot interleave mid-RMW.
func (o *amOp) atomicServed() {
	m := o.msg.Meta.(*atomicReq)
	old := o.ns.rmw(o.cb.LocalBase+mem.Addr(m.Off), m.Op, m.A, m.B)
	pairs, extra := pairsFor(o.msg, m.H, o.base, o.epoch)
	o.replyTo(hAtomicRep, &atomicRep{H: m.H, Base: o.base, Epoch: o.epoch, Old: old, Done: m.Done, Pairs: pairs},
		nil, m.Op.ResultBytes()+extra)
}

func (rt *Runtime) handleAtomicRep(hc *transport.HandlerCtx, msg *transport.Msg, done func()) {
	m := msg.Meta.(*atomicRep)
	rt.reply(hc, msg, done, false, m.H, m.Base, m.Epoch, m.Pairs)
}
