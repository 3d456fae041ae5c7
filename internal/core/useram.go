package core

// User-level active messages: the registered-handler hook that lets a
// layer above the runtime (internal/kv) ship its own request/reply
// protocols over the same machinery the runtime's GET/PUT AMs use —
// SVD resolution with requeue-on-unknown, base-address piggybacking
// into the remote address cache, coalescing-aware reply framing and
// span phase attribution all come for free. A handler runs on the
// target node's AM dispatcher (a simulation process in both execution
// modes, so handler-side Sleep and Resource.Acquire are parity-safe)
// and returns the reply payload; request arguments travel as two
// uint64s in the envelope, anything larger belongs in shared memory.

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

// UserHandler executes one user AM at the target node and returns the
// reply payload. The returned slice must be freshly allocated (or
// immutable): concurrent AMs at one node interleave at sleep points,
// so a shared scratch buffer would tear replies.
type UserHandler func(c *UserCtx) []byte

// userReq is the user-AM request envelope. A and B are the operation's
// arguments; H anchors SVD resolution and address piggybacking.
type userReq struct {
	ID       UserHandlerID
	H        svd.Handle
	A, B     uint64
	WantAddr bool            // piggyback the base address on the reply
	Done     *sim.Completion // initiator-side; completed by the reply
}

// userRep carries the handler's reply payload plus the piggybacked
// base address, exactly like getRep.
type userRep struct {
	H     svd.Handle
	Base  mem.Addr
	Epoch uint32
	Done  *sim.Completion
	Pairs []addrPair
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
// node's state, the dispatcher process, and the resolved control block
// of the request's anchor object.
type UserCtx struct {
	rt  *Runtime
	ns  *nodeState
	p   *sim.Proc
	msg *transport.Msg
	req *userReq
	cb  *svd.ControlBlock
}

// Node is the node the handler executes on.
func (c *UserCtx) Node() int { return c.ns.id }

// Src is the requesting node.
func (c *UserCtx) Src() int { return c.msg.Src }

// Args returns the request's two argument words.
func (c *UserCtx) Args() (a, b uint64) { return c.req.A, c.req.B }

// Now is the current virtual time.
func (c *UserCtx) Now() sim.Time { return c.p.Now() }

// Sleep advances the dispatcher (models handler compute).
func (c *UserCtx) Sleep(d sim.Duration) { c.p.Sleep(d) }

// Proc exposes the dispatcher process for blocking primitives
// (Resource.Acquire). Handlers run on the AM dispatcher in both
// execution modes, so blocking here is parity-safe by construction.
func (c *UserCtx) Proc() *sim.Proc { return c.p }

// Acquire takes r on the dispatcher process.
func (c *UserCtx) Acquire(r *sim.Resource) { r.Acquire(c.p) }

// checkLocal bounds-checks a local access against the anchor's chunk.
func (c *UserCtx) checkLocal(off int64, n int) {
	if !c.cb.HasLocal {
		panic(fmt.Sprintf("core: user AM local access to %v on node %d, which owns no piece", c.cb.Handle, c.ns.id))
	}
	if off < 0 || off+int64(n) > int64(c.cb.LocalSize) {
		panic(fmt.Sprintf("core: user AM local access [%d,%d) outside %v chunk of %d bytes",
			off, off+int64(n), c.cb.Handle, c.cb.LocalSize))
	}
}

// ReadLocal reads len(dst) bytes at byte offset off of the anchor
// object's local chunk, paying the same shared-memory cost a local
// thread access would.
func (c *UserCtx) ReadLocal(off int64, dst []byte) {
	c.checkLocal(off, len(dst))
	prof := c.rt.cfg.Profile
	c.p.Sleep(prof.ShmLatency + sim.BytesTime(len(dst), prof.ShmByteTime))
	c.ns.tn.Mem.Read(dst, c.cb.LocalBase+mem.Addr(off))
}

// WriteLocal writes src at byte offset off of the anchor object's
// local chunk.
func (c *UserCtx) WriteLocal(off int64, src []byte) {
	c.checkLocal(off, len(src))
	prof := c.rt.cfg.Profile
	c.p.Sleep(prof.ShmLatency + sim.BytesTime(len(src), prof.ShmByteTime))
	c.ns.tn.Mem.Write(c.cb.LocalBase+mem.Addr(off), src)
}

// NodeLocal returns the node-scoped singleton under key, building it
// on first use — per-node locks and counters for user protocols.
func (c *UserCtx) NodeLocal(key string, build func(k *sim.Kernel) any) any {
	return c.ns.nodeLocal(key, build)
}

// ChunkOffset translates a global element index of the anchor object
// into a byte offset inside this node's chunk, for ReadLocal/WriteLocal.
// Handlers work in the same global indices initiators use; the layout
// arithmetic (block-cyclic distribution, per-thread regions) lives here.
func (c *UserCtx) ChunkOffset(idx int64) int64 {
	l := NewLayout(c.rt.cfg.Threads, c.rt.cfg.ThreadsPerNode(), c.cb.ElemSize, c.cb.Block, c.cb.NumElems)
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
func (rt *Runtime) handleUserReq(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*userReq)
	t0 := p.Now()
	cb, requeued := ns.resolve(p, m.H, msg)
	if requeued {
		return
	}
	msg.Span.Phase(telemetry.PhaseSVDResolve, t0, p.Now())
	var base mem.Addr
	var epoch uint32
	if m.WantAddr {
		t0 = p.Now()
		base, epoch = ns.pinChunk(p, cb)
		msg.Span.Phase(telemetry.PhaseRegistration, t0, p.Now())
	}
	h := rt.userHandlers[m.ID]
	if h == nil {
		panic(fmt.Sprintf("core: user AM for unregistered handler id %d", m.ID))
	}
	ctx := UserCtx{rt: rt, ns: ns, p: p, msg: msg, req: m, cb: cb}
	reply := h(&ctx)
	t0 = p.Now()
	p.Sleep(sim.BytesTime(len(reply), rt.cfg.Profile.CopyByteTime))
	msg.Span.Phase(telemetry.PhaseCopy, t0, p.Now())
	pairs, extra := pairsFor(msg, m.H, base, epoch)
	rt.M.ReplyToSpan(p, msg, hUserRep,
		&userRep{H: m.H, Base: base, Epoch: epoch, Done: m.Done, Pairs: pairs}, reply, extra, msg.Span)
}

// handleUserRep mirrors handleGetRep: copy out, absorb piggybacked
// addresses, complete the caller with the payload.
func (rt *Runtime) handleUserRep(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*userRep)
	t0 := p.Now()
	p.Sleep(sim.BytesTime(len(msg.Payload), rt.cfg.Profile.CopyByteTime))
	msg.Span.Phase(telemetry.PhaseCopy, t0, p.Now())
	rt.insertPiggyback(p, ns, msg.Src, m.H, m.Base, m.Epoch, m.Pairs, msg.Span)
	m.Done.CompleteBytes(msg.Payload)
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

// AcquireC is Acquire in continuation-passing style.
func (t *Thread) AcquireC(r *sim.Resource, then func()) { r.AcquireCont(t.c, then) }
