package core

// Target-side active messages. Every built-in handler runs as kernel
// callbacks on the handler context that took its message
// (transport.HandlerCtx): the per-message state lives in a pooled amOp
// record whose one pre-bound step func resumes it after each wait, so
// serving a message builds no closures and switches no coroutine. A
// user handler runs the same way, through its UserCtx (useram.go).
//
// A request handler resolves its handle in the node's SVD replica,
// optionally pins and advertises the chunk, does its own work and
// replies; a reply handler optionally copies its payload out, absorbs
// the piggybacked addresses into the address cache and completes the
// initiator's operation. Lock, allocation and free handlers do their
// one piece of work; the rest finish inline.

import (
	"fmt"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// amStep is where an amOp's step func resumes it.
type amStep uint8

const (
	asResolved   amStep = iota // the SVD lookup cost elapsed
	asPinned                   // the registration cost elapsed
	asServed                   // the handler's own work elapsed
	asUserLocal                // a user handler's local access cost elapsed
	asCopied                   // a reply's copy-out elapsed
	asInsertOwn                // the replier's own address insert cost elapsed
	asInsertPair               // a piggybacked pair's insert cost elapsed
)

// amOp is one message in service.
type amOp struct {
	rt   *Runtime
	ns   *nodeState
	hc   *transport.HandlerCtx
	msg  *transport.Msg
	done func()

	step  amStep
	want  bool // request: pin the chunk and advertise its base
	t0    sim.Time
	h     svd.Handle        // the handle a request resolves or a reply advertises
	cb    *svd.ControlBlock // request: the resolved control block
	base  mem.Addr          // the advertised base address; 0 when none
	epoch uint32
	pairs []addrPair // reply: extra piggybacked pairs
	ipos  int        // reply: the next pair to insert

	// User request: the handler's context, kept across reuse so a late
	// second Reply still finds its flag, and its reply payload.
	uctx *UserCtx
	rbuf [maxUserReply]byte
	rlen int

	stepFn   func()
	finishFn func()
}

func (rt *Runtime) newAMOp(hc *transport.HandlerCtx, msg *transport.Msg, done func()) *amOp {
	var o *amOp
	if n := len(rt.amOps); n > 0 {
		o = rt.amOps[n-1]
		rt.amOps = rt.amOps[:n-1]
	} else {
		o = &amOp{rt: rt}
		o.stepFn = o.resume
		o.finishFn = o.finish
	}
	o.ns, o.hc, o.msg, o.done = rt.nodes[hc.Node().ID], hc, msg, done
	return o
}

// finish returns the record to the pool, then tells the handler
// context the message is served.
func (o *amOp) finish() {
	done := o.done
	*o = amOp{rt: o.rt, stepFn: o.stepFn, finishFn: o.finishFn, uctx: o.uctx}
	o.rt.amOps = append(o.rt.amOps, o)
	done()
}

func (o *amOp) now() sim.Time            { return o.rt.K.Now() }
func (o *amOp) prof() *transport.Profile { return o.rt.cfg.Profile }

// wait resumes the message at step after d of virtual time.
func (o *amOp) wait(d sim.Duration, step amStep) {
	o.step = step
	o.hc.Cont().Sleep(d, o.stepFn)
}

// resume is stepFn: continue the message where it waited.
func (o *amOp) resume() {
	switch o.step {
	case asResolved:
		o.resolved()
	case asPinned:
		o.pinned()
	case asServed:
		o.served()
	case asUserLocal:
		o.uctx.accessed()
	case asCopied:
		o.msg.Span.Phase(telemetry.PhaseCopy, o.t0, o.now())
		o.insert()
	case asInsertOwn:
		o.insertOwn()
	case asInsertPair:
		o.insertPair()
	}
}

// request starts a request handler: resolve h, pin the chunk when want,
// then the handler's own work (serve).
func (rt *Runtime) request(hc *transport.HandlerCtx, msg *transport.Msg, done func(), h svd.Handle, want bool) {
	o := rt.newAMOp(hc, msg, done)
	o.h, o.want = h, want
	o.t0 = o.now()
	o.wait(rt.cfg.Profile.SVDLookupCost, asResolved)
}

// resolved looks the request's handle up in the node's SVD replica. If
// the handle is not yet known (its allocation notification is still in
// flight), the message is requeued rather than holding the context.
func (o *amOp) resolved() {
	ns := o.ns
	cb, ok := ns.dir.LookupAny(o.h)
	if !ok {
		o.rt.requeue(ns, o.msg)
		o.finish()
		return
	}
	if cb.Freed {
		panic(fmt.Sprintf("core: node %d: remote access to freed object %v (%s)", ns.id, o.h, cb.Name))
	}
	o.msg.Span.Phase(telemetry.PhaseSVDResolve, o.t0, o.now())
	o.cb = cb
	if !o.want {
		o.serve()
		return
	}
	o.pinChunk()
}

// requeue redelivers msg to node ns's AM queue after a short delay.
func (rt *Runtime) requeue(ns *nodeState, msg *transport.Msg) {
	port := rt.M.Fab.Port(ns.id)
	msg.Retain() // redelivered below; the context must not recycle it
	rt.K.After(200*sim.Ns, func() { port.AM.Push(msg) })
}

// pinChunk applies the greedy pin-everything policy on first remote
// access: the whole local chunk of the object is registered at once,
// and the (base address, incarnation epoch) pair to advertise — base 0
// if pinning failed (registration limits) — is recorded. The
// registration cost is charged to the handler context (the target CPU
// on non-overlapping transports).
func (o *amOp) pinChunk() {
	ns, cb := o.ns, o.cb
	if !cb.HasLocal {
		panic(fmt.Sprintf("core: node %d asked to pin %v, which it does not own", ns.id, cb.Handle))
	}
	o.t0 = o.now()
	cost, err := ns.tn.Pins.Pin(cb.LocalBase, cb.LocalSize, cb.Handle.Key(), o.t0)
	// Capture the advertised pair before sleeping the registration cost:
	// a crash mid-sleep relocates the chunk and bumps the epoch together,
	// so the initiator receives a coherent stale (base, epoch) — which
	// heals through a clean stale-NACK — never a fresh base under an old
	// epoch or vice versa.
	o.base, o.epoch = cb.LocalBase, ns.tn.Epoch
	if err != nil {
		o.base = 0
	}
	o.wait(cost, asPinned)
}

func (o *amOp) pinned() {
	o.msg.Span.Phase(telemetry.PhaseRegistration, o.t0, o.now())
	o.serve()
}

// serve starts a resolved request's own work.
func (o *amOp) serve() {
	prof := o.prof()
	switch o.msg.Handler {
	case hGetReq:
		// Eager reply: the data is copied into a (pre-registered) bounce
		// buffer before injection — the copy cost that RDMA avoids.
		o.t0 = o.now()
		o.wait(sim.BytesTime(o.msg.Meta.(*getReq).Size, prof.CopyByteTime), asServed)
	case hPutReq:
		// Copy from the receive bounce buffer into place.
		o.t0 = o.now()
		o.wait(sim.BytesTime(len(o.msg.Payload), prof.CopyByteTime), asServed)
	case hAtomic:
		o.wait(atomicCPUCost, asServed)
	case hUserReq:
		o.startUser()
	case hRTS:
		o.rtsServed()
	}
}

// served finishes the handler's own work, once its cost elapsed.
func (o *amOp) served() {
	switch o.msg.Handler {
	case hGetReq:
		o.getServed()
	case hPutReq:
		o.putServed()
	case hAtomic:
		o.atomicServed()
	case hUserReq:
		o.userServed()
	case hAllocNotify:
		o.allocServed()
	case hFreeReq:
		o.freeServed()
	case hLockReq:
		o.lockServed()
	case hLockTry:
		o.tryLockServed()
	case hUnlockReq:
		o.unlockServed()
	}
}

// replyTo answers the request in service with meta and payload, then
// finishes it.
func (o *amOp) replyTo(id transport.HandlerID, meta any, payload []byte, extra int) {
	o.rt.M.ReplyToSpanC(o.hc.Cont(), o.msg, id, meta, payload, extra, o.msg.Span, o.finishFn)
}

// sendFinish sends a control message from the serving node to dst,
// then finishes the message in service.
func (o *amOp) sendFinish(dst int, id transport.HandlerID, meta any) {
	o.rt.M.SendAMSpanC(o.hc.Cont(), o.ns.id, dst, id, meta, nil, 0, nil, o.finishFn)
}

// reply starts a reply handler: copy the payload out of the receive
// bounce buffer when copyOut, absorb the replier's piggybacked
// addresses (its own h → base plus pairs), then complete (inserted).
func (rt *Runtime) reply(hc *transport.HandlerCtx, msg *transport.Msg, done func(), copyOut bool, h svd.Handle, base mem.Addr, epoch uint32, pairs []addrPair) {
	o := rt.newAMOp(hc, msg, done)
	o.h, o.base, o.epoch, o.pairs = h, base, epoch, pairs
	if copyOut {
		o.t0 = o.now()
		o.wait(sim.BytesTime(len(msg.Payload), rt.cfg.Profile.CopyByteTime), asCopied)
		return
	}
	o.insert()
}

// insert fills the initiator's cache from a reply's piggybacked
// addresses: the replier's own (handle, base) plus any extra pairs
// accumulated across the sub-messages of a coalesced frame. Every new
// entry pays the insert cost; pairs already resident (an earlier reply
// of the same frame filled them) are skipped without charge.
func (o *amOp) insert() {
	if o.ns.cache == nil || (o.base == 0 && len(o.pairs) == 0) {
		o.inserted()
		return
	}
	o.t0 = o.now()
	if o.base != 0 {
		o.wait(o.prof().CacheInsertCost, asInsertOwn)
		return
	}
	o.insertNext()
}

func (o *amOp) insertOwn() {
	o.ns.cache.InsertEpoch(cacheKey(o.h, o.msg.Src), o.base, o.epoch)
	o.insertNext()
}

// insertNext charges the insert of the next pair not yet resident, or
// closes the cache_insert phase.
func (o *amOp) insertNext() {
	for ; o.ipos < len(o.pairs); o.ipos++ {
		pr := o.pairs[o.ipos]
		if pr.Base == 0 || pr.H == o.h || o.ns.cache.Contains(cacheKey(pr.H, o.msg.Src)) {
			continue
		}
		o.wait(o.prof().CacheInsertCost, asInsertPair)
		return
	}
	o.msg.Span.Phase(telemetry.PhaseCacheInsert, o.t0, o.now())
	o.inserted()
}

func (o *amOp) insertPair() {
	pr := o.pairs[o.ipos]
	o.ipos++
	o.ns.cache.InsertEpoch(cacheKey(pr.H, o.msg.Src), pr.Base, pr.Epoch)
	o.insertNext()
}

// inserted completes the initiator's operation.
func (o *amOp) inserted() {
	switch m := o.msg.Meta.(type) {
	case *getRep:
		m.Done.CompleteBytes(o.msg.Payload)
	case *userRep:
		m.Done.CompleteBytes(o.msg.Payload)
	case *putAck:
		m.Fence.Arrive()
		if m.Done != nil {
			m.Done.Complete(nil)
		}
	case *atomicRep:
		m.Done.Complete(m.Old)
	case *rtr:
		m.Done.Complete(rtrResult{base: m.Base, epoch: m.Epoch, ok: m.OK})
	}
	o.finish()
}
