package transport

import (
	"fmt"

	"xlupc/internal/fabric"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// HandlerCtx is one AM handler context of a node: a callback engine
// that serves the node's AM queue one message at a time. It waits on
// the queue, takes Comm — the compute CPU itself when the transport
// does not overlap computation and communication, so a busy CPU stalls
// remote requests (the effect behind the paper's Field analysis), or a
// dedicated engine when it does — charges the receive overhead, runs
// the message's handler, and on the handler's done releases Comm and
// serves the next message. Overlapping transports get one context per
// Comm slot; non-overlapping ones a single context (GM progress is
// single-threaded polling).
//
// Every step is a pre-bound func on the context, scheduling exactly the
// events a dispatcher process looping on the queue would, so handlers
// cost no coroutine switch. The context is a daemon continuation: no
// coroutine stands behind it, and its start event, which registers it
// on the queue, is a plain scheduled callback.
type HandlerCtx struct {
	m  *Machine
	nd *Node
	q  *sim.Queue[any]
	ct *sim.Cont

	// The individual message in service, or the coalesced frame and
	// the position reached in it.
	cur     *Msg
	batch   *batchMsg
	bi      int
	reply   *coalBuf
	scratch *BatchScratch
	acq     sim.Time
	recv    sim.Time
	t0      sim.Time

	// serving is set while next serves a message synchronously; a done
	// arriving inline meanwhile sets again instead of recursing, so a
	// backlog of inline-served messages runs in a loop.
	serving, again bool

	nextFn, acquiredFn, receivedFn, doneFn   func()
	batchAcquiredFn, batchNextFn, batchSubFn func()
	batchDoneFn, batchEndFn                  func()
}

func (m *Machine) startHandlerCtxs(nd *Node) {
	contexts := 1
	if m.Prof.CommOverlap && m.Prof.CommCapacity > 1 {
		contexts = m.Prof.CommCapacity
	}
	for c := 0; c < contexts; c++ {
		hc := &HandlerCtx{m: m, nd: nd, q: m.Fab.Port(nd.ID).AM}
		hc.nextFn = hc.next
		hc.acquiredFn = hc.acquired
		hc.receivedFn = hc.received
		hc.doneFn = hc.msgDone
		hc.batchAcquiredFn = hc.batchAcquired
		hc.batchNextFn = hc.batchNext
		hc.batchSubFn = hc.batchSub
		hc.batchDoneFn = hc.batchDone
		hc.batchEndFn = hc.batchEnd
		hc.ct = m.K.SpawnDaemon(fmt.Sprintf("node%d.amdisp%d", nd.ID, c), func(*sim.Cont) { hc.next() })
		nd.ctxs = append(nd.ctxs, hc)
	}
}

// Node is the node the context serves.
func (hc *HandlerCtx) Node() *Node { return hc.nd }

// Cont is the handle handlers pass to the …C primitives and sends.
func (hc *HandlerCtx) Cont() *sim.Cont { return hc.ct }

// next serves the next queued message, or waits for one. It is also
// the wait's retry: woken by a Push, the context may find the message
// taken by another context that got to it first, and re-registers.
func (hc *HandlerCtx) next() {
	if hc.serving {
		hc.again = true
		return
	}
	for {
		raw, ok := hc.q.PopC(hc.ct, hc.nextFn)
		if !ok {
			return
		}
		hc.serving, hc.again = true, false
		if b, isBatch := raw.(*batchMsg); isBatch {
			hc.serveBatch(b)
		} else {
			hc.serve(raw.(*Msg))
		}
		hc.serving = false
		if !hc.again {
			return
		}
	}
}

func (hc *HandlerCtx) handler(msg *Msg) Handler {
	h := hc.m.handlers[msg.Handler]
	if h == nil {
		panic(fmt.Sprintf("transport: node %d: no handler %d", hc.nd.ID, msg.Handler))
	}
	return h
}

func (hc *HandlerCtx) serve(msg *Msg) {
	hc.handler(msg)
	msg.Span.Phase(telemetry.PhaseWire, msg.sent, msg.arrived)
	hc.cur = msg
	hc.acq = hc.m.K.Now()
	hc.nd.Comm.AcquireCont(hc.ct, hc.acquiredFn)
}

func (hc *HandlerCtx) acquired() {
	// Everything between physical arrival and handler start is the
	// target being busy: queue residency behind earlier handlers plus
	// waiting for a CPU/comm context. On non-overlapping transports
	// this is the target CPU computing — the paper's §4.6 culprit.
	msg, now := hc.cur, hc.m.K.Now()
	msg.Span.Phase(telemetry.PhaseCPUWait, msg.arrived, hc.acq)
	msg.Span.Phase(telemetry.PhaseCPUWait, hc.acq, now)
	hc.recv = now
	hc.ct.Sleep(hc.m.Prof.RecvOverhead, hc.receivedFn)
}

func (hc *HandlerCtx) received() {
	msg := hc.cur
	msg.Span.Phase(telemetry.PhaseRecv, hc.recv, hc.m.K.Now())
	hc.handler(msg)(hc, msg, hc.doneFn)
}

// msgDone is the done of an individual message.
func (hc *HandlerCtx) msgDone() {
	msg := hc.cur
	hc.cur = nil
	hc.nd.Comm.Release()
	hc.recycle(msg)
	hc.next()
}

// recycle frees a served message unless its handler requeued it.
func (hc *HandlerCtx) recycle(msg *Msg) {
	if msg.retained {
		msg.retained = false // will recycle after redelivery
		return
	}
	hc.m.freeMsg(msg)
}

// serveBatch serves every sub-message of a coalesced frame under a
// single Comm acquisition: the frame pays the full receive overhead
// once, each sub-message only the smaller per-op entry cost. Replies
// the handlers issue toward the frame's origin coalesce into one reply
// frame, flushed when service ends.
func (hc *HandlerCtx) serveBatch(b *batchMsg) {
	if hc.m.coal == nil {
		panic(fmt.Sprintf("transport: node %d received a batch frame with coalescing off", hc.nd.ID))
	}
	hc.batch, hc.bi = b, 0
	hc.reply = &coalBuf{key: coalKey{src: hc.nd.ID, dst: b.Src, class: fabric.ClassAM}}
	hc.scratch = &BatchScratch{}
	hc.acq = hc.m.K.Now()
	hc.nd.Comm.AcquireCont(hc.ct, hc.batchAcquiredFn)
}

func (hc *HandlerCtx) batchAcquired() {
	hc.recv = hc.m.K.Now()
	hc.ct.Sleep(hc.m.Prof.RecvOverhead, hc.batchNextFn)
}

// batchNext starts the next sub-message's entry cost, or ends service.
func (hc *HandlerCtx) batchNext() {
	b := hc.batch
	if hc.bi == len(b.msgs) {
		hc.batchFlush()
		return
	}
	msg := b.msgs[hc.bi]
	hc.handler(msg)
	msg.Span.Phase(telemetry.PhaseWire, b.sent, b.arrived)
	msg.Span.Phase(telemetry.PhaseCPUWait, b.arrived, hc.acq)
	msg.Span.Phase(telemetry.PhaseCPUWait, hc.acq, hc.recv)
	hc.t0 = hc.m.K.Now()
	hc.ct.Sleep(hc.m.coal.cfg.SubRecvOverhead, hc.batchSubFn)
}

func (hc *HandlerCtx) batchSub() {
	b, msg := hc.batch, hc.batch.msgs[hc.bi]
	msg.Span.Phase(telemetry.PhaseRecv, hc.recv, hc.recv+hc.m.Prof.RecvOverhead)
	msg.Span.Phase(telemetry.PhaseRecv, hc.t0, hc.m.K.Now())
	msg.reply = hc.reply
	msg.Batch = hc.scratch
	msg.sent, msg.arrived = b.sent, b.arrived
	hc.handler(msg)(hc, msg, hc.batchDoneFn)
}

// batchDone is the done of a sub-message.
func (hc *HandlerCtx) batchDone() {
	msg := hc.batch.msgs[hc.bi]
	msg.reply = nil
	hc.recycle(msg)
	hc.bi++
	hc.batchNext()
}

func (hc *HandlerCtx) batchFlush() {
	if len(hc.reply.ops) > 0 {
		hc.m.coal.flushCont(hc.ct, hc.reply, "sync", hc.batchEndFn)
		return
	}
	hc.reply.closed = true
	hc.batchEnd()
}

func (hc *HandlerCtx) batchEnd() {
	hc.batch, hc.bi, hc.reply, hc.scratch = nil, 0, nil, nil
	hc.nd.Comm.Release()
	hc.next()
}
