package core

// User-level active messages: the registered-handler hook that lets a
// layer above the runtime (internal/kv) ship its own request/reply
// protocols over the same machinery the runtime's GET/PUT AMs use —
// SVD resolution with requeue-on-unknown, base-address piggybacking
// into the remote address cache, coalescing-aware reply framing and
// span phase attribution all come for free. A handler runs as kernel
// callbacks on the target node's AM handler context, like every
// built-in handler: it waits only through the UserCtx's …C primitives
// and ends with Reply. Request arguments travel as two uint64s in the
// envelope and the reply is at most one word; anything larger belongs
// in shared memory.

import (
	"fmt"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// UserHandlerID names one registered user-AM handler. IDs are a small
// fixed space: a subsystem claims its IDs at startup, before any
// traffic, and a clash panics loudly.
type UserHandlerID uint8

// maxUserHandlers bounds the user handler table.
const maxUserHandlers = 8

// maxUserReply bounds a user AM's reply payload: one word, so the reply
// record that carries it (userRep) fits a 64-byte allocation.
const maxUserReply = 8

// UserHandler executes one user AM at the target node. It must not
// block: each …C primitive of the UserCtx takes the rest of the handler
// as its callback. The handler ends by calling Reply exactly once.
type UserHandler func(c *UserCtx)

// userReq is the user-AM request envelope. A and B are the operation's
// arguments; H anchors SVD resolution and address piggybacking.
type userReq struct {
	ID       UserHandlerID
	H        svd.Handle
	A, B     uint64
	WantAddr bool            // piggyback the base address on the reply
	Done     *sim.Completion // initiator-side; completed by the reply
}

// userRep carries the piggybacked base address, exactly like getRep,
// and the storage of the handler's reply payload.
type userRep struct {
	H     svd.Handle
	Base  mem.Addr
	Epoch uint32
	Done  *sim.Completion
	Pairs []addrPair
	Data  [maxUserReply]byte
}

// HandleUser registers h under id for this run. Must be called before
// any traffic uses the id — from a thread body ahead of its first
// collective is early enough, since registration is host-side and
// costs no virtual time.
func (rt *Runtime) HandleUser(id UserHandlerID, h UserHandler) {
	if int(id) >= maxUserHandlers {
		panic(fmt.Sprintf("core: user handler id %d out of range (max %d)", id, maxUserHandlers-1))
	}
	if rt.userHandlers[id] != nil {
		panic(fmt.Sprintf("core: duplicate user handler registration for id %d", id))
	}
	rt.userHandlers[id] = h
}

// UserCtx is the execution context a UserHandler receives: the target
// node's state, the handler context's continuation, and the resolved
// control block of the request's anchor object. It lives on the
// request's pooled record.
type UserCtx struct {
	o       *amOp
	req     *userReq
	replied bool

	// The local access in flight: ReadLocalC/WriteLocalC touch memory
	// once its cost has elapsed, then run then.
	off   int64
	buf   []byte
	write bool
	then  func()
}

// Args returns the request's two argument words.
func (c *UserCtx) Args() (a, b uint64) { return c.req.A, c.req.B }

// SleepC runs then after d of virtual time (models handler compute).
func (c *UserCtx) SleepC(d sim.Duration, then func()) { c.o.hc.Cont().Sleep(d, then) }

// AcquireC takes r on the handler context, then runs then holding it.
func (c *UserCtx) AcquireC(r *sim.Resource, then func()) { r.AcquireCont(c.o.hc.Cont(), then) }

// checkLocal bounds-checks a local access against the anchor's chunk.
func (c *UserCtx) checkLocal(off int64, n int) {
	cb := c.o.cb
	if !cb.HasLocal {
		panic(fmt.Sprintf("core: user AM local access to %v on node %d, which owns no piece", cb.Handle, c.o.ns.id))
	}
	if off < 0 || off+int64(n) > int64(cb.LocalSize) {
		panic(fmt.Sprintf("core: user AM local access [%d,%d) outside %v chunk of %d bytes",
			off, off+int64(n), cb.Handle, cb.LocalSize))
	}
}

// ReadLocalC reads len(dst) bytes at byte offset off of the anchor
// object's local chunk, paying the same shared-memory cost a local
// thread access would, then runs then.
func (c *UserCtx) ReadLocalC(off int64, dst []byte, then func()) { c.local(off, dst, false, then) }

// WriteLocalC writes src at byte offset off of the anchor object's
// local chunk, then runs then. src must stay unchanged until then runs.
func (c *UserCtx) WriteLocalC(off int64, src []byte, then func()) { c.local(off, src, true, then) }

func (c *UserCtx) local(off int64, b []byte, write bool, then func()) {
	c.checkLocal(off, len(b))
	c.off, c.buf, c.write, c.then = off, b, write, then
	prof := c.o.prof()
	c.o.wait(prof.ShmLatency+sim.BytesTime(len(b), prof.ShmByteTime), asUserLocal)
}

// accessed touches memory once a local access's cost has elapsed. The
// address is taken now: a crash during the wait may relocate the chunk.
func (c *UserCtx) accessed() {
	at := c.o.cb.LocalBase + mem.Addr(c.off)
	b, then := c.buf, c.then
	c.buf, c.then = nil, nil
	if c.write {
		c.o.ns.tn.Mem.Write(at, b)
	} else {
		c.o.ns.tn.Mem.Read(b, at)
	}
	then()
}

// Reply ends the handler with payload p (at most maxUserReply bytes),
// copied into the request's pooled reply buffer, and continues the
// request: the reply pays its bounce-buffer copy and is sent. A handler
// that replies twice panics.
func (c *UserCtx) Reply(p []byte) {
	if c.replied {
		panic(fmt.Sprintf("core: user handler %d replied twice", c.req.ID))
	}
	if len(p) > maxUserReply {
		panic(fmt.Sprintf("core: user handler %d reply of %d bytes exceeds %d", c.req.ID, len(p), maxUserReply))
	}
	c.replied = true
	c.o.rlen = copy(c.o.rbuf[:], p)
	c.o.userRan()
}

// NodeLocal returns the node-scoped singleton under key, building it
// on first use — per-node locks and counters for user protocols.
func (c *UserCtx) NodeLocal(key string, build func(k *sim.Kernel) any) any {
	return c.o.ns.nodeLocal(key, build)
}

// ChunkOffset translates a global element index of the anchor object
// into a byte offset inside this node's chunk, for ReadLocalC and
// WriteLocalC. Handlers work in the same global indices initiators use;
// the layout arithmetic (block-cyclic distribution, per-thread regions)
// lives here.
func (c *UserCtx) ChunkOffset(idx int64) int64 {
	cfg, cb := c.o.rt.cfg, c.o.cb
	l := NewLayout(cfg.Threads, cfg.ThreadsPerNode(), cb.ElemSize, cb.Block, cb.NumElems)
	return l.ChunkOffset(idx)
}

func (ns *nodeState) nodeLocal(key string, build func(k *sim.Kernel) any) any {
	if ns.user == nil {
		ns.user = make(map[string]any)
	}
	v, ok := ns.user[key]
	if !ok {
		v = build(ns.rt.K)
		ns.user[key] = v
	}
	return v
}

// --- Target-side handlers ----------------------------------------------

// handleUserReq mirrors handleGetReq: resolve, optionally pin and
// advertise, run the user handler, and reply with its payload (paying
// the bounce-buffer copy cost the eager path always pays).
func (rt *Runtime) handleUserReq(hc *transport.HandlerCtx, msg *transport.Msg, done func()) {
	m := msg.Meta.(*userReq)
	rt.request(hc, msg, done, m.H, m.WantAddr)
}

// startUser runs the user handler on the record's UserCtx.
func (o *amOp) startUser() {
	m := o.msg.Meta.(*userReq)
	h := o.rt.userHandlers[m.ID]
	if h == nil {
		panic(fmt.Sprintf("core: user AM for unregistered handler id %d", m.ID))
	}
	if o.uctx == nil {
		o.uctx = &UserCtx{}
	}
	*o.uctx = UserCtx{o: o, req: m}
	h(o.uctx)
}

// userRan charges the reply's copy into the bounce buffer.
func (o *amOp) userRan() {
	o.t0 = o.now()
	o.wait(sim.BytesTime(o.rlen, o.prof().CopyByteTime), asServed)
}

// userServed sends the reply. The payload travels in the reply's own
// record, so the pooled buffer is free again at once.
func (o *amOp) userServed() {
	m := o.msg.Meta.(*userReq)
	o.msg.Span.Phase(telemetry.PhaseCopy, o.t0, o.now())
	pairs, extra := pairsFor(o.msg, m.H, o.base, o.epoch)
	rep := &userRep{H: m.H, Base: o.base, Epoch: o.epoch, Done: m.Done, Pairs: pairs, Data: o.rbuf}
	var payload []byte
	if o.rlen > 0 {
		payload = rep.Data[:o.rlen]
	}
	o.replyTo(hUserRep, rep, payload, extra)
}

// handleUserRep mirrors handleGetRep: copy out, absorb piggybacked
// addresses, complete the caller with the payload.
func (rt *Runtime) handleUserRep(hc *transport.HandlerCtx, msg *transport.Msg, done func()) {
	m := msg.Meta.(*userRep)
	rt.reply(hc, msg, done, true, m.H, m.Base, m.Epoch, m.Pairs)
}

// --- Initiator side ----------------------------------------------------

// CallAM sends a user AM anchored at array a to node rn and blocks
// until the reply arrives, copying its payload into reply and
// returning the payload length. extra models the wire bytes of the
// operation's arguments beyond the fixed envelope. op labels the span.
func (t *Thread) CallAM(a *SharedArray, rn int, id UserHandlerID, argA, argB uint64, extra int, reply []byte, op string) int {
	t.CallAMC(a, rn, id, argA, argB, extra, reply, op, t.ops().nResFn)
	t.p.Suspend()
	return t.cops.resN
}

// CallAMC is CallAM in continuation-passing style; the in-flight
// fields and both steps live in the thread's pre-bound op state.
func (t *Thread) CallAMC(a *SharedArray, rn int, id UserHandlerID, argA, argB uint64, extra int, reply []byte, op string, then func(n int)) {
	span := t.rt.tel.StartSpan(op, t.id, t.ns.id, t.Now())
	span.SetProto("am")
	o := t.ops()
	done := sim.NewCompletion(t.rt.K, op)
	o.rqmode, o.rqbuf, o.rqdone, o.rqspan, o.rquser = rqUser, reply, done, span, then
	t.rt.M.SendAMSpanC(t.c, t.ns.id, rn, hUserReq,
		&userReq{ID: id, H: a.h, A: argA, B: argB, WantAddr: t.ns.cache != nil, Done: done}, nil, extra, span, o.rqSentFn)
}

// NodeLocal returns this thread's node-scoped singleton under key,
// building it on first use (see UserCtx.NodeLocal).
func (t *Thread) NodeLocal(key string, build func(k *sim.Kernel) any) any {
	return t.ns.nodeLocal(key, build)
}

// Acquire takes r on the thread (goroutine mode).
func (t *Thread) Acquire(r *sim.Resource) { r.Acquire(t.p) }
