package core

// contOps is a thread's pre-bound operation state: the fields of the
// operations it has in flight plus step funcs bound once, on first
// use — so the hot paths (cached RDMA, local shared memory, split-phase
// issue and retire, fences, barriers) allocate no closures per
// operation. A thread is one sequential chain of continuations: it
// waits for each operation before starting the next (asynchronous PUT
// completion is watched elsewhere), so one record per thread suffices,
// and within each group below at most one step is pending at a time,
// which lets a group share a single step func that dispatches on a
// recorded state. In goroutine mode the record also holds the result
// slots the blocking methods read after suspending. The record lives
// as long as the thread, so its size is the per-thread memory the
// continuation implementation costs; keep it small.

import (
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/trace"
	"xlupc/internal/transport"
)

// xStep is where xStepFn resumes the access in flight.
type xStep uint8

const (
	xsLookup      xStep = iota // the cache-lookup cost elapsed
	xsLocal                    // the shared-memory access time elapsed
	xsLocalAtomic              // the home-node atomic time elapsed
	xsPutCopied                // an eager PUT's payload is in the bounce buffer
	xsFinish                   // a blocking GET or PUT is complete
	xsRecord                   // a split-phase sub is on the wire
)

// rqMode says what a request/reply leg delivers.
type rqMode uint8

const (
	rqGet    rqMode = iota // eager GET: copy the payload into rqbuf
	rqUser                 // user AM: copy the payload, finish rqspan, report its length
	rqAtomic               // AM atomic: report the previous value
)

type contOps struct {
	t *Thread

	// x is the thread's one access in flight: a blocking GET, PUT or
	// atomic, a local access, or the issue of one split-phase sub
	// (xnb).
	x      nbSub
	xcb    *svd.ControlBlock // local access: the resolved control block
	xt0    sim.Time
	xop    *nbOp            // split-phase: the op the sub is recorded on
	xthen  func()           // continuation of a GET, PUT, local access or issue
	xathen func(old uint64) // continuation of an atomic, or GetUint64C's value

	xStepFn   func()
	xDataFn   func(data []byte, nack transport.Nack, ok bool)
	xOldFn    func(old uint64, nack transport.Nack, ok bool)
	xResFn    func(res *sim.Completion)
	xAtomicFn func(old uint64)

	// The request/reply leg of an eager GET, a user AM or an AM atomic:
	// the slow path of an access, or a split-phase retire fallback.
	rqbuf     []byte
	rqdone    *sim.Completion
	rqspan    *telemetry.Span
	rqthen    func()
	rquser    func(n int)
	rqatomic  func(old uint64)
	rqSentFn  func()
	rqReplyFn func()

	u64Fn func() // GetUint64C: delivers the value to xathen

	// Split-phase single-run issue (nbio.go): the op and its handle
	// callback, and a home-node atomic's result pointer.
	nop            *nbOp
	nthen          func(h Handle)
	nout           *uint64
	nIssuedFn      func()
	nLocalAtomicFn func(old uint64)

	// Sync/SyncAll in progress (nbio.go).
	rop   *nbOp
	ri    int
	rthen func()
	rFn   func()

	// Barrier (barrier.go), compute and fence in progress.
	bthen func()
	bFn   func()
	cd    sim.Duration
	cthen func()
	cFn   func()
	fthen func()
	fFn   func()
	span  *telemetry.Span // the barrier's or the fence's (never both at once)

	// Blocking-call results (goroutine mode): each callback stores its
	// result and wakes the thread's process.
	resU64   uint64
	resH     Handle
	resN     int
	u64ResFn func(v uint64)
	hResFn   func(h Handle)
	nResFn   func(n int)

	// Small state, packed together.
	xnb      bool  // x is a split-phase issue (recorded on xop when sent)
	xwant    bool  // eager PUT: ask the target to piggyback its base address
	xstep    xStep // where xStepFn resumes x
	rqmode   rqMode
	rall     bool // SyncAll: retire every outstanding op
	rsync    bool // inside a synchronous retireSub call ...
	rresumed bool // ... which already continued
	bstep    barrierStep
	cheld    bool // compute: the core is held
	fwaiting bool // fence: waiting for PUT acknowledgements
}

// ops returns the thread's op state, building the pre-bound step funcs
// on first use (threads that never touch shared memory allocate none).
func (t *Thread) ops() *contOps {
	if t.cops == nil {
		o := &contOps{t: t}
		o.xStepFn = o.xResume
		o.xDataFn = o.getRDMADone
		o.xOldFn = o.atomicRDMADone
		o.xResFn = o.xStarted
		o.xAtomicFn = o.atomicFinish
		o.rqSentFn = o.rqSent
		o.rqReplyFn = o.rqReply
		o.u64Fn = o.u64Done
		o.nIssuedFn = o.nbSingleIssued
		o.nLocalAtomicFn = o.nbLocalAtomicDone
		o.rFn = o.retireStep
		o.bFn = o.barrierStep
		o.cFn = o.computeStep
		o.fFn = o.fenceStep
		if t.wake != nil {
			o.u64ResFn = func(v uint64) { o.resU64 = v; o.t.wake() }
			o.hResFn = func(h Handle) { o.resH = h; o.t.wake() }
			o.nResFn = func(n int) { o.resN = n; o.t.wake() }
		}
		t.cops = o
	}
	return t.cops
}

// xWait resumes the access in flight at step after d of virtual time.
func (o *contOps) xWait(d sim.Duration, step xStep) {
	o.xstep = step
	o.t.c.Sleep(d, o.xStepFn)
}

// xResume is xStepFn: continue the access in flight where it waited.
func (o *contOps) xResume() {
	switch o.xstep {
	case xsLookup:
		o.lookup()
	case xsLocal:
		o.localDone()
	case xsLocalAtomic:
		o.localAtomicDone()
	case xsPutCopied:
		o.putCopied()
	case xsFinish:
		o.finish()
	case xsRecord:
		o.nbRecord()
	}
}

// lookup runs after the cache-lookup cost: a hit goes one-sided, a
// miss falls through to the active-message path.
func (o *contOps) lookup() {
	t, x := o.t, &o.x
	x.span.Phase(telemetry.PhaseCacheLookup, o.xt0, t.Now())
	base, ep, hit := t.ns.cache.LookupEpoch(cacheKey(x.a.h, int(x.rn)))
	if o.xnb {
		if !hit {
			o.nbIssueAM()
			return
		}
		o.nbIssueRDMA(base, ep)
		return
	}
	switch x.kind {
	case nbGetEager:
		if hit {
			x.span.SetProto("rdma")
			t.rt.M.RDMAGetSpanC(t.c, t.ns.id, int(x.rn), base, base+mem.Addr(x.off), x.buf, len(x.buf), ep, x.span, o.xDataFn)
			return
		}
		t.getSlowC()
	case nbPut:
		if hit {
			x.span.SetProto("rdma")
			// The origin buffer must survive until the remote completion
			// (and a possible retry), so the PUT still captures src.
			x.buf = append([]byte(nil), x.buf...)
			t.rt.M.RDMAPutSpanC(t.c, t.ns.id, int(x.rn), base, base+mem.Addr(x.off), x.buf, ep, x.span, o.xResFn)
			return
		}
		t.putSlowC()
	default:
		if hit {
			x.span.SetProto("rdma")
			t.rt.M.RDMAAtomicSpanC(t.c, t.ns.id, int(x.rn), base, base+mem.Addr(x.off),
				x.aop, x.a1, x.a2, t.atomicFetchBuf(x.aop), ep, x.span, o.xOldFn)
			return
		}
		x.span.SetProto("am")
		t.amAtomicC(x.a, int(x.rn), x.off, x.aop, x.a1, x.a2, x.span, o.xAtomicFn)
	}
}

// xStarted is xResFn: a blocking PUT's origin buffer is reusable, or a
// split-phase sub was handed its completion.
func (o *contOps) xStarted(res *sim.Completion) {
	if o.xnb {
		o.nbStarted(res)
		return
	}
	t, x := o.t, &o.x
	t.fence.Add(1)
	t.watchPut(res, x.a, int(x.rn), x.off, x.buf, x.span, nil)
	o.finish()
}

// getRDMADone finishes a cache-hit one-sided read, or falls back on a
// NACK (the rare fallback paths may allocate; the hot success path
// does not).
func (o *contOps) getRDMADone(data []byte, nack transport.Nack, ok bool) {
	t, x := o.t, &o.x
	if ok {
		copy(x.buf, data)
		o.finish()
		return
	}
	if nack.Stale {
		t.healStaleC(int(x.rn), nack.Epoch, "get", x.span, func(cont bool) {
			if !cont {
				o.finish()
				return
			}
			t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="stale_epoch"`, 1)
			t.getSlowC()
		})
		return
	}
	t.ns.cache.Remove(cacheKey(x.a.h, int(x.rn)))
	t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="nack"`, 1)
	t.getSlowC()
}

// finish closes out a blocking GET or PUT: trace, span, counters, then
// the caller's continuation. The in-flight fields are consumed first
// so the continuation can immediately start another operation.
func (o *contOps) finish() {
	t := o.t
	x, then := o.x, o.xthen
	o.x, o.xthen = nbSub{}, nil
	now := t.Now()
	t.rt.cfg.Trace.End(t.id, now)
	x.span.Finish(now)
	if x.kind == nbPut {
		t.puts++
		t.putTime += now - x.start
	} else {
		t.gets++
		t.getTime += now - x.start
	}
	then()
}

// localDone completes a local GET or PUT once the shared-memory access
// time elapsed.
func (o *contOps) localDone() {
	t := o.t
	x, cb, then := o.x, o.xcb, o.xthen
	o.x, o.xcb, o.xthen = nbSub{}, nil, nil
	if x.kind == nbPut {
		t.ns.tn.Mem.Write(cb.LocalBase+mem.Addr(x.off), x.buf)
		t.localPuts++
	} else {
		t.ns.tn.Mem.Read(x.buf, cb.LocalBase+mem.Addr(x.off))
		t.localGets++
	}
	x.span.Finish(t.Now())
	then()
}

// --- Request/reply leg --------------------------------------------------

// rqSent runs once the request is on the wire: park on the reply.
func (o *contOps) rqSent() { o.rqdone.WaitFn(o.t.c, o.rqReplyFn) }

// rqReply delivers the reply and runs the leg's continuation.
func (o *contOps) rqReply() {
	t, done := o.t, o.rqdone
	mode, buf, span := o.rqmode, o.rqbuf, o.rqspan
	then, user, atomic := o.rqthen, o.rquser, o.rqatomic
	o.rqbuf, o.rqdone, o.rqspan, o.rqthen, o.rquser, o.rqatomic = nil, nil, nil, nil, nil, nil
	switch mode {
	case rqGet:
		copy(buf, done.Bytes())
		t.rt.K.Recycle(done) // handler's only reference died with the reply
		then()
	case rqUser:
		n := copy(buf, done.Bytes())
		t.rt.K.Recycle(done)
		span.Finish(t.Now())
		user(n)
	case rqAtomic:
		old := done.Value().(uint64)
		t.rt.K.Recycle(done)
		atomic(old)
	}
}

// --- GetUint64C ---------------------------------------------------------

func (o *contOps) u64Done() {
	then := o.xathen
	o.xathen = nil
	then(byteOrder.Uint64(o.t.w64[:]))
}

// --- Remote atomic (atomicRMWC in atomic.go) ---------------------------

// atomicRDMADone finishes a cache-hit NIC atomic, or falls back on a
// NACK to the AM path.
func (o *contOps) atomicRDMADone(old uint64, nack transport.Nack, ok bool) {
	t, x := o.t, &o.x
	if ok {
		o.atomicFinish(old)
		return
	}
	retry := func() {
		x.span.SetProto("am")
		t.amAtomicC(x.a, int(x.rn), x.off, x.aop, x.a1, x.a2, x.span, o.xAtomicFn)
	}
	if nack.Stale {
		t.healStaleC(int(x.rn), nack.Epoch, "atomic", x.span, func(cont bool) {
			if !cont {
				o.atomicFinish(0)
				return
			}
			t.rt.tel.Add("xlupc_atomic_fallbacks_total", `reason="stale_epoch"`, 1)
			retry()
		})
		return
	}
	t.ns.cache.Remove(cacheKey(x.a.h, int(x.rn)))
	t.rt.tel.Add("xlupc_atomic_fallbacks_total", `reason="nack"`, 1)
	retry()
}

// atomicFinish closes out the remote atomic: span, counters, then the
// caller's continuation.
func (o *contOps) atomicFinish(old uint64) {
	t := o.t
	x, then := o.x, o.xathen
	o.x, o.xathen = nbSub{}, nil
	x.span.Finish(t.Now())
	t.atomics++
	t.atomicTime += t.Now() - x.start
	then(old)
}

// localAtomicDone is the post-sleep step of a home-node atomic.
func (o *contOps) localAtomicDone() {
	t := o.t
	x, cb, then := o.x, o.xcb, o.xathen
	o.x, o.xcb, o.xathen = nbSub{}, nil, nil
	t.localAtomics++
	then(t.ns.rmw(cb.LocalBase+mem.Addr(x.off), x.aop, x.a1, x.a2))
}

// --- Split-phase single-run issue ---------------------------------------

func (o *contOps) nbSingleIssued() {
	op, then := o.nop, o.nthen
	o.nop, o.nthen = nil, nil
	o.t.nbIssued(op, then)
}

func (o *contOps) nbLocalAtomicDone(old uint64) {
	if o.nout != nil {
		*o.nout = old
		o.nout = nil
	}
	o.nbSingleIssued()
}

// --- Compute --------------------------------------------------------------

// computeStep is cFn: hold the acquired core for cd, then release it.
func (o *contOps) computeStep() {
	t := o.t
	if !o.cheld {
		o.cheld = true
		t.c.Sleep(o.cd, o.cFn)
		return
	}
	o.cheld = false
	t.ns.tn.CPU.Release()
	t.rt.cfg.Trace.End(t.id, t.Now())
	then := o.cthen
	o.cthen = nil
	then()
}

// --- Fence ----------------------------------------------------------------

// fenceStep is fFn: once every split-phase handle retired, wait for the
// PUT acknowledgements still outstanding, re-checking the count after
// each wake (arrivals may have been registered since).
func (o *contOps) fenceStep() {
	t := o.t
	if t.fence.Pending() > 0 {
		if !o.fwaiting {
			o.fwaiting = true
			o.span = t.rt.tel.StartSpan("fence", t.id, t.ns.id, t.Now())
			t.rt.cfg.Trace.Begin(t.id, trace.StateFenceWait, t.Now())
		}
		t.fence.WaitFn(t.c, o.fFn)
		return
	}
	if o.fwaiting {
		o.fwaiting = false
		t.rt.cfg.Trace.End(t.id, t.Now())
		o.span.Finish(t.Now())
		o.span = nil
	}
	then := o.fthen
	o.fthen = nil
	then()
}

// --- Blocking-call results ----------------------------------------------

// u64Result suspends the thread until its pending …C call delivered a
// value through u64ResFn, and returns it.
func (t *Thread) u64Result() uint64 {
	t.p.Suspend()
	return t.cops.resU64
}

// handleResult is u64Result for calls that deliver a Handle.
func (t *Thread) handleResult() Handle {
	t.p.Suspend()
	h := t.cops.resH
	t.cops.resH = Handle{}
	return h
}
