package core

import (
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// Handle identifies one split-phase operation started with NbGet or
// NbPut. Sync retires it: for a GET, the destination buffer is valid
// only after Sync returns; for a PUT, the source data is captured at
// issue time, and Sync (or a fence/barrier, which retires every
// outstanding handle) guarantees target visibility. The zero Handle —
// returned for empty or fully local transfers whose work completed at
// issue — is valid and retires as a no-op.
type Handle struct {
	op  *nbOp
	gen uint32
}

// Valid reports whether the handle refers to a still-tracked operation.
// Handles to retired (and since recycled) operations report false.
func (h Handle) Valid() bool { return h.op != nil && h.op.gen == h.gen }

// nbOp is the per-handle state: one sub-operation per single-affinity
// run of the transfer, retired in issue order. Descriptors are recycled
// through the issuing thread's free list; gen is bumped on recycle so a
// stale Handle can never alias a newer operation.
type nbOp struct {
	subs    []*nbSub
	retired bool
	gen     uint32
}

// nbKind says how a sub-operation was issued, which decides its retire
// work.
type nbKind uint8

const (
	nbGetEager   nbKind = iota // GET request AM; the reply carries the data
	nbGetRDMA                  // one-sided read; NACKs fall back to eager
	nbPut                      // eager AM or RDMA write, completed by watchPut
	nbAtomicAM                 // atomic request AM; the reply carries the old value
	nbAtomicRDMA               // NIC atomic; NACKs fall back to the AM path
)

// nbSub is one remote run of a split-phase operation: the completion
// the issuing thread waits on at Sync, and what the retire work
// (copy-out, NACK fallback, span finish, counters) needs once it
// fires. Each is allocated when its sub-operation is on the wire and
// dropped at retire, so descriptors pooled for reuse stay small; issuing
// and retiring build no closures. The same record describes a blocking
// access in flight (contOps.x).
type nbSub struct {
	done   *sim.Completion
	a      *SharedArray
	span   *telemetry.Span
	start  sim.Time
	off    int64
	rn     int32
	kind   nbKind
	aop    transport.AtomicOp
	buf    []byte  // GET destination; PUT source (the captured copy once sent)
	a1, a2 uint64  // atomic operands
	out    *uint64 // fetched atomic result, when the caller wants it
}

// newNbOp takes a descriptor from the thread's free list (or allocates
// the first time); freeNbOp returns one after retire, bumping the
// generation so outstanding Handles to it turn invalid.
func (t *Thread) newNbOp() *nbOp {
	if n := len(t.nbPool); n > 0 {
		op := t.nbPool[n-1]
		t.nbPool[n-1] = nil
		t.nbPool = t.nbPool[:n-1]
		return op
	}
	return &nbOp{}
}

func (t *Thread) freeNbOp(op *nbOp) {
	op.gen++
	op.retired = false
	clear(op.subs)
	op.subs = op.subs[:0]
	t.nbPool = append(t.nbPool, op)
}

// NbGet starts a split-phase read of len(dst) bytes of consecutive
// elements at r (the non-blocking upc_memget). The transfer is split
// into per-affinity runs like GetBulk; local runs complete
// synchronously, remote ones are issued without waiting — small ones
// through the coalescing buffers when the runtime has them enabled.
// dst must not be read, and the array region not written, until Sync.
func (t *Thread) NbGet(dst []byte, r Ref) Handle {
	t.NbGetC(dst, r, t.ops().hResFn)
	return t.handleResult()
}

// NbPut starts a split-phase write of len(src) bytes of consecutive
// elements at r (the non-blocking upc_memput). src is captured at
// issue; Sync on the returned handle waits for target visibility,
// stronger than a blocking Put (which only waits for local completion
// and leaves visibility to the fence). Transfers above the eager limit
// keep the blocking rendezvous pipeline and retire under the fence.
func (t *Thread) NbPut(r Ref, src []byte) Handle {
	t.NbPutC(r, src, t.ops().hResFn)
	return t.handleResult()
}

// Sync blocks until the operation behind h has completed: the thread's
// node flushes its coalescing buffers (parked sub-messages must leave)
// and the handle's sub-operations are retired in issue order.
func (t *Thread) Sync(h Handle) {
	t.SyncC(h, t.wake)
	t.p.Suspend()
}

// SyncAll retires every outstanding split-phase handle of this thread,
// in issue order. Fences and barriers call it first, so the blocking
// memory-consistency points also cover split-phase traffic.
func (t *Thread) SyncAll() {
	t.SyncAllC(t.wake)
	t.p.Suspend()
}

// --- Issue ----------------------------------------------------------------

// NbGetC is NbGet in continuation-passing style.
func (t *Thread) NbGetC(dst []byte, r Ref, then func(h Handle)) {
	es := int64(r.A.l.ElemSize)
	if int64(len(dst))%es != 0 {
		panic("core: NbGet length not a multiple of element size")
	}
	n := int64(len(dst)) / es
	if n == 0 {
		then(Handle{})
		return
	}
	r.A.check(r.Idx + n - 1)
	op := t.newNbOp()
	if r.A.l.ContigRun(r.Idx) >= n {
		t.nbGetRunC(op, r.A, r.Idx, dst, t.nbSingle(op, then))
		return
	}
	idx, off := r.Idx, int64(0)
	sim.Loop(func(next func()) {
		if n == 0 {
			t.nbIssued(op, then)
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
		t.nbGetRunC(op, r.A, i0, dst[lo:hi], next)
	})
}

// NbPutC is NbPut in continuation-passing style.
func (t *Thread) NbPutC(r Ref, src []byte, then func(h Handle)) {
	es := int64(r.A.l.ElemSize)
	if int64(len(src))%es != 0 {
		panic("core: NbPut length not a multiple of element size")
	}
	n := int64(len(src)) / es
	if n == 0 {
		then(Handle{})
		return
	}
	r.A.check(r.Idx + n - 1)
	op := t.newNbOp()
	if r.A.l.ContigRun(r.Idx) >= n {
		t.nbPutRunC(op, r.A, r.Idx, src, t.nbSingle(op, then))
		return
	}
	idx, off := r.Idx, int64(0)
	sim.Loop(func(next func()) {
		if n == 0 {
			t.nbIssued(op, then)
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
		t.nbPutRunC(op, r.A, i0, src[lo:hi], next)
	})
}

// nbSingle parks a single-run issue's op and handle callback in the
// thread's op state and returns the pre-bound step that finishes it,
// so the common one-run transfer builds no closure.
func (t *Thread) nbSingle(op *nbOp, then func(h Handle)) func() {
	o := t.ops()
	o.nop, o.nthen = op, then
	return o.nIssuedFn
}

// nbIssued finishes a split-phase issue: hand out a live handle, or
// free the descriptor when every run completed locally (the data is
// already in place).
func (t *Thread) nbIssued(op *nbOp, then func(h Handle)) {
	if len(op.subs) == 0 {
		t.freeNbOp(op)
		then(Handle{})
		return
	}
	t.nbOut = append(t.nbOut, op)
	then(Handle{op: op, gen: op.gen})
}

// nbGetRunC issues one single-affinity run of a split-phase GET.
// Intra-node runs complete at issue (there is nothing to overlap) and
// rendezvous-sized ones run the blocking pipeline; the rest go
// one-sided on a cache hit, else as a (coalescable) request AM.
func (t *Thread) nbGetRunC(op *nbOp, a *SharedArray, idx int64, dst []byte, then func()) {
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
	if size > prof.EagerMax && prof.SupportsRDMA {
		t.getRunC(a, idx, dst, then)
		return
	}
	off := a.l.ChunkOffset(idx)
	span := t.rt.tel.StartSpan("get", t.id, t.ns.id, start)
	span.SetBytes(size)
	t.nbIssue(op, nbSub{kind: nbGetEager, a: a, rn: int32(rn), off: off, buf: dst, span: span, start: start}, then)
}

// nbPutRunC issues one single-affinity run of a split-phase PUT.
// Transfers above the eager limit keep the blocking rendezvous
// pipeline and retire under the fence.
func (t *Thread) nbPutRunC(op *nbOp, a *SharedArray, idx int64, src []byte, then func()) {
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
	if size > prof.EagerMax && prof.SupportsRDMA {
		t.putRunC(a, idx, src, then) // async under the fence, as always
		return
	}
	off := a.l.ChunkOffset(idx)
	span := t.rt.tel.StartSpan("put", t.id, t.ns.id, start)
	span.SetBytes(size)
	done := sim.NewCompletion(t.rt.K, "nb-put")
	t.nbIssue(op, nbSub{kind: nbPut, done: done, a: a, rn: int32(rn), off: off, buf: src, span: span, start: start}, then)
}

// nbIssue starts a remote sub-operation as the thread's access in
// flight: the cache lookup first when there is a cache to ask, then the
// one-sided or the active-message path. The sub is recorded on op once
// it is on the wire (or in a coalescing buffer), and then runs.
func (t *Thread) nbIssue(op *nbOp, sub nbSub, then func()) {
	o := t.ops()
	o.x, o.xnb, o.xop, o.xthen = sub, true, op, then
	if t.ns.cache != nil && (sub.kind != nbPut || t.rt.putCache) {
		o.xt0 = t.Now()
		o.xWait(t.rt.cfg.Profile.CacheLookupCost, xsLookup)
		return
	}
	o.nbIssueAM()
}

// nbIssueRDMA issues the sub one-sided after a cache hit.
func (o *contOps) nbIssueRDMA(base mem.Addr, ep uint32) {
	t, x := o.t, &o.x
	x.span.SetProto("rdma")
	raddr := base + mem.Addr(x.off)
	switch x.kind {
	case nbGetEager:
		x.kind = nbGetRDMA
		t.rt.M.RDMAGetStartC(t.c, t.ns.id, int(x.rn), base, raddr, x.buf, len(x.buf), ep, x.span, o.xResFn)
	case nbPut:
		x.buf = append([]byte(nil), x.buf...)
		t.rt.M.RDMAPutStartC(t.c, t.ns.id, int(x.rn), base, raddr, x.buf, ep, x.span, o.xResFn)
	case nbAtomicAM:
		x.kind = nbAtomicRDMA
		// Split-phase fetches need a result buffer that outlives the
		// issue; the thread's staging word would alias across
		// outstanding handles.
		var fetch []byte
		if x.aop.ResultBytes() > 0 {
			fetch = make([]byte, 8)
		}
		t.rt.M.RDMAAtomicStartC(t.c, t.ns.id, int(x.rn), base, raddr, x.aop, x.a1, x.a2, fetch, ep, x.span, o.xResFn)
	}
}

// nbIssueAM issues the sub as an active message through the
// coalescing buffers (or individually, with coalescing off).
func (o *contOps) nbIssueAM() {
	t, x := o.t, &o.x
	switch x.kind {
	case nbGetEager:
		x.span.SetProto("eager")
		x.done = sim.NewCompletion(t.rt.K, "get")
		o.xstep = xsRecord
		t.rt.M.SendAMCoalescedC(t.c, t.ns.id, int(x.rn), hGetReq,
			&getReq{H: x.a.h, Off: x.off, Size: len(x.buf), WantAddr: t.ns.cache != nil, Done: x.done}, nil, 0, x.span, o.xStepFn)
	case nbPut:
		t.putEagerC(t.ns.cache != nil)
	case nbAtomicAM:
		x.span.SetProto("am")
		x.done = sim.NewCompletion(t.rt.K, "atomic")
		o.xstep = xsRecord
		t.rt.M.SendAMCoalescedC(t.c, t.ns.id, int(x.rn), hAtomic,
			&atomicReq{H: x.a.h, Off: x.off, Op: x.aop, A: x.a1, B: x.a2, WantAddr: t.ns.cache != nil, Done: x.done},
			nil, x.aop.OperandBytes(), x.span, o.xStepFn)
	}
}

// nbStarted records a one-sided sub once the transport handed back its
// completion; a PUT goes under the fence and the handle's completion
// first (watchPut retries NACKs).
func (o *contOps) nbStarted(res *sim.Completion) {
	t, x := o.t, &o.x
	if x.kind == nbPut {
		t.fence.Add(1)
		t.watchPut(res, x.a, int(x.rn), x.off, x.buf, x.span, x.done)
	} else {
		x.done = res
	}
	o.nbRecord()
}

// nbRecord appends the issued sub to its op and continues the issue.
func (o *contOps) nbRecord() {
	op, then := o.xop, o.xthen
	sub := new(nbSub)
	*sub = o.x
	op.subs = append(op.subs, sub)
	o.x, o.xnb, o.xop, o.xthen = nbSub{}, false, nil, nil
	then()
}

// --- Retire ---------------------------------------------------------------

// SyncC is Sync in continuation-passing style.
func (t *Thread) SyncC(h Handle, then func()) {
	op := h.op
	if op == nil || op.gen != h.gen || op.retired {
		then()
		return
	}
	op.retired = true
	o := t.ops()
	o.rall, o.rop, o.ri, o.rthen = false, op, 0, then
	t.rt.M.FlushCoalescedC(t.c, t.ns.id, o.rFn)
}

// SyncAllC is SyncAll in continuation-passing style.
func (t *Thread) SyncAllC(then func()) {
	if len(t.nbOut) == 0 {
		then()
		return
	}
	o := t.ops()
	o.rall, o.rop, o.rthen = true, nil, then
	t.rt.M.FlushCoalescedC(t.c, t.ns.id, o.rFn)
}

// retireStep is rFn. Once the node's coalescing buffers are flushed it
// retires sub-operations in issue order — of the one op a Sync names,
// or of every outstanding op for SyncAll — waiting on each completion
// and running its retire work. Retire work that finishes synchronously
// continues the loop here instead of recursing.
func (o *contOps) retireStep() {
	if o.rsync {
		o.rresumed = true
		return
	}
	t := o.t
	for {
		op := o.rop
		if op == nil { // SyncAll: next outstanding op
			if t.nbHead == len(t.nbOut) {
				t.nbOut, t.nbHead = t.nbOut[:0], 0
				then := o.rthen
				o.rthen = nil
				then()
				return
			}
			op = t.nbOut[t.nbHead]
			t.nbOut[t.nbHead] = nil
			t.nbHead++
			if op.retired {
				t.freeNbOp(op)
				continue
			}
			op.retired = true
			o.rop, o.ri = op, 0
		}
		if o.ri == len(op.subs) {
			o.rop = nil
			if !o.rall {
				for i, x := range t.nbOut {
					if x == op {
						t.nbOut = append(t.nbOut[:i], t.nbOut[i+1:]...)
						break
					}
				}
			}
			t.freeNbOp(op)
			if !o.rall {
				then := o.rthen
				o.rthen = nil
				then()
				return
			}
			continue
		}
		sub := op.subs[o.ri]
		if sub.done != nil && !sub.done.Done() {
			sub.done.WaitFn(t.c, o.rFn)
			return
		}
		o.ri++
		o.rsync, o.rresumed = true, false
		t.retireSub(*sub, o.rFn)
		o.rsync = false
		if !o.rresumed {
			return // the retire work suspended; rFn resumes the loop
		}
	}
}

// retireSub runs the retire work of one sub whose completion fired.
func (t *Thread) retireSub(s nbSub, then func()) {
	switch s.kind {
	case nbGetEager:
		copy(s.buf, s.done.Bytes())
		t.rt.K.Recycle(s.done)
	case nbPut:
		t.rt.K.Recycle(s.done)
	case nbAtomicAM:
		if s.out != nil {
			*s.out = s.done.Value().(uint64)
		}
		t.rt.K.Recycle(s.done)
	case nbGetRDMA, nbAtomicRDMA:
		val, data := s.done.Value(), s.done.Bytes()
		t.rt.K.Recycle(s.done)
		if nk, nack := val.(transport.Nack); nack {
			t.nbFallback(s, nk, then)
			return
		}
		if s.kind == nbGetRDMA {
			copy(s.buf, data)
		} else if s.out != nil && data != nil {
			*s.out = byteOrder.Uint64(data)
		}
	}
	t.nbFinish(s)
	then()
}

// nbFallback redoes a NACKed one-sided sub over the active-message
// path — we are already inside Sync, so the retire work carries the
// continuation. A stale epoch (the target restarted) flushes the whole
// node from the cache first; a plain NACK (the target deregistered the
// region mid-flight) drops just the stale entry.
func (t *Thread) nbFallback(s nbSub, nk transport.Nack, then func()) {
	what, metric := "get", "xlupc_get_fallbacks_total"
	if s.kind == nbAtomicRDMA {
		what, metric = "atomic", "xlupc_atomic_fallbacks_total"
	}
	finish := func() {
		t.nbFinish(s)
		then()
	}
	retry := func() {
		if s.kind == nbGetRDMA {
			s.span.SetProto("eager")
			t.eagerGetC(s.a, int(s.rn), s.off, s.buf, s.span, finish)
			return
		}
		s.span.SetProto("am")
		t.amAtomicC(s.a, int(s.rn), s.off, s.aop, s.a1, s.a2, s.span, func(old uint64) {
			if s.out != nil {
				*s.out = old
			}
			finish()
		})
	}
	if nk.Stale {
		t.healStaleC(int(s.rn), nk.Epoch, what, s.span, func(cont bool) {
			if !cont {
				finish()
				return
			}
			t.rt.tel.Add(metric, `reason="stale_epoch"`, 1)
			retry()
		})
		return
	}
	t.ns.cache.Remove(cacheKey(s.a.h, int(s.rn)))
	t.rt.tel.Add(metric, `reason="nack"`, 1)
	retry()
}

// nbFinish closes a retired sub's span and counts it.
func (t *Thread) nbFinish(s nbSub) {
	now := t.Now()
	s.span.Finish(now)
	switch s.kind {
	case nbGetEager, nbGetRDMA:
		t.gets++
		t.getTime += now - s.start
	case nbPut:
		t.puts++
		t.putTime += now - s.start
	default:
		t.atomics++
		t.atomicTime += now - s.start
	}
}
