package transport

import (
	"fmt"
	"slices"

	"xlupc/internal/fabric"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// The transport's initiator send paths, in continuation-passing style.
// This is their only implementation: the blocking forms (SendAMSpan,
// RDMAGetSpan, RDMAPutSpan) start these with the calling
// process's wake callback and suspend, so both execution modes produce
// the same kernel event stream by construction.

// procCall carries a blocking wrapper's results from the continuation
// that produced them back to the suspended process. Records are pooled
// per machine and their callbacks bound once, so a blocking call
// allocates nothing.
type procCall struct {
	m    *Machine
	p    *sim.Proc
	data []byte
	nack Nack
	ok   bool
	done *sim.Completion

	dataFn func(data []byte, nack Nack, ok bool)
	doneFn func(done *sim.Completion)
}

func (m *Machine) newCall(p *sim.Proc) *procCall {
	var c *procCall
	if n := len(m.pool.calls); n > 0 {
		c = m.pool.calls[n-1]
		m.pool.calls = m.pool.calls[:n-1]
	} else {
		c = &procCall{m: m}
		c.dataFn = func(data []byte, nack Nack, ok bool) {
			c.data, c.nack, c.ok = data, nack, ok
			c.p.WakeFn()()
		}
		c.doneFn = func(done *sim.Completion) {
			c.done = done
			c.p.WakeFn()()
		}
	}
	c.p = p
	return c
}

// Each result accessor suspends the process until the call's callback
// fired, copies the results out and returns the record to the pool.

func (c *procCall) dataResult() ([]byte, Nack, bool) {
	c.p.Suspend()
	data, nack, ok := c.data, c.nack, c.ok
	c.free()
	return data, nack, ok
}

func (c *procCall) doneResult() *sim.Completion {
	c.p.Suspend()
	done := c.done
	c.free()
	return done
}

func (c *procCall) free() {
	c.p, c.data, c.done = nil, nil, nil
	c.m.pool.calls = append(c.m.pool.calls, c)
}

// xferOp is the pooled state machine behind every initiator send: an
// active message (SendAMSpanC) or an RDMA descriptor (RDMAGetSpanC,
// RDMAPutSpanC, RDMAAtomicSpanC and the split-phase Start forms). The
// steps are software overhead or descriptor setup, TX acquisition,
// injection, and then whatever the operation waits for before its
// continuation runs. Fields live in a pooled record and each step is a
// func bound once, so sending builds no closures. The record holds no
// injected object at rest, so it pools safely even under the reliable
// layer.
type xferOp struct {
	m     *Machine
	ct    *sim.Cont
	src   int
	dst   int
	wire  int
	class fabric.Class
	obj   any // *Msg, or *dmaGet / *dmaPut / *dmaAtomic
	span  *telemetry.Span
	t0    sim.Time
	tx    *sim.Resource

	after    xferAfter
	done     *sim.Completion // the descriptor's completion: waited on, or handed out
	nackOp   string          // NACK counter label of a waited read
	then     func()
	thenRes  func(res *sim.Completion)
	thenData func(data []byte, nack Nack, ok bool)
	thenOld  func(old uint64, nack Nack, ok bool)

	acquireFn  func()
	injectFn   func()
	finishFn   func(arrive sim.Time)
	wokeFn     func()
	latFn      func()
	completeFn func()
}

// xferAfter is what an xferOp does once its object is on the wire.
type xferAfter uint8

const (
	afterSent    xferAfter = iota // then(): the AM is on the wire
	afterHandOut                  // thenRes(done): split-phase issue
	afterLatency                  // RDMA-mode extra latency, then thenRes(done): a PUT's origin buffer is reusable
	afterWait                     // wait for done, extra latency, then thenData/thenOld
)

func (m *Machine) newXfer(ct *sim.Cont, src, dst, wire int, class fabric.Class, obj any, span *telemetry.Span) *xferOp {
	var x *xferOp
	if n := len(m.pool.xfers); n > 0 {
		x = m.pool.xfers[n-1]
		m.pool.xfers = m.pool.xfers[:n-1]
	} else {
		x = &xferOp{m: m}
		x.acquireFn = x.acquire
		x.injectFn = x.inject
		x.finishFn = x.finish
		x.wokeFn = x.woke
		x.latFn = x.latencyDone
		x.completeFn = x.complete
	}
	x.ct, x.src, x.dst, x.wire, x.class, x.obj, x.span = ct, src, dst, wire, class, obj, span
	return x
}

// start charges the send overhead or setup cost, then acquires TX.
func (x *xferOp) start(cost sim.Time) {
	x.t0 = x.m.K.Now()
	x.ct.Sleep(cost, x.acquireFn)
}

func (x *xferOp) acquire() {
	x.tx = x.m.Fab.Port(x.src).TX
	x.tx.AcquireCont(x.ct, x.injectFn)
}

func (x *xferOp) inject() {
	m := x.m
	if m.rel != nil {
		m.rel.injectC(x.src, x.dst, x.wire, x.class, x.obj, x.span, x.finishFn)
		return
	}
	m.Fab.InjectC(x.src, x.dst, x.wire, x.class, x.obj, x.finishFn)
}

func (x *xferOp) finish(arrive sim.Time) {
	x.tx.Release()
	sent := x.m.K.Now()
	stampWire(x.obj, sent, arrive)
	phase := telemetry.PhaseRDMASetup
	if x.class == fabric.ClassAM {
		phase = telemetry.PhaseSend
	}
	x.span.Phase(phase, x.t0, sent)
	switch x.after {
	case afterWait:
		x.done.WaitFn(x.ct, x.wokeFn)
	case afterLatency:
		x.woke()
	default:
		x.complete()
	}
}

// woke charges the transport's RDMA-mode extra latency (the HPS trait)
// to the initiator without occupying any engine.
func (x *xferOp) woke() {
	x.t0 = x.m.K.Now()
	x.ct.Sleep(x.m.Prof.RDMAExtraLatency, x.latFn)
}

func (x *xferOp) latencyDone() {
	x.span.Phase(telemetry.PhaseRDMALatency, x.t0, x.m.K.Now())
	x.complete()
}

// complete returns the record to the pool, then runs the caller's
// continuation, so the continuation may send again at once.
func (x *xferOp) complete() {
	m := x.m
	after, done, nackOp := x.after, x.done, x.nackOp
	then, thenRes, thenData, thenOld := x.then, x.thenRes, x.thenData, x.thenOld
	x.ct, x.obj, x.span, x.tx, x.done = nil, nil, nil, nil, nil
	x.then, x.thenRes, x.thenData, x.thenOld = nil, nil, nil, nil
	x.after, x.nackOp = afterSent, ""
	m.pool.xfers = append(m.pool.xfers, x)
	switch after {
	case afterSent:
		then()
	case afterHandOut, afterLatency:
		thenRes(done)
	case afterWait:
		val, data := done.Value(), done.Bytes()
		m.K.Recycle(done) // fully consumed: no reference survives
		if nk, isNack := val.(Nack); isNack {
			m.noteNack(nackOp)
			if thenData != nil {
				thenData(nil, nk, false)
			} else {
				thenOld(0, nk, false)
			}
			return
		}
		if thenData != nil {
			thenData(data, Nack{}, true)
			return
		}
		var old uint64
		if data != nil {
			old = atomicOrder.Uint64(data)
		}
		thenOld(old, Nack{}, true)
	}
}

// SendAMSpanC is SendAMSpan in continuation-passing style: then runs
// once the message is on the wire.
func (m *Machine) SendAMSpanC(ct *sim.Cont, src, dst int, id HandlerID, meta any, payload []byte, extra int, span *telemetry.Span, then func()) {
	if src == dst {
		panic("transport: AM to self; intra-node traffic must use shared memory")
	}
	m.amCount++
	msg := m.newMsg()
	msg.Src, msg.Dst, msg.Handler, msg.Meta, msg.Payload = src, dst, id, meta, payload
	msg.wire = m.Prof.AMHeaderBytes + len(payload) + extra
	msg.Span = span
	x := m.newXfer(ct, src, dst, msg.wire, fabric.ClassAM, msg, span)
	x.then = then
	x.start(m.Prof.SendOverhead)
}

// RDMAGetSpanC is RDMAGetSpan in continuation-passing style: then
// runs with the data once the read completes (after the RDMA-mode
// extra latency), or with the Nack and ok=false when the target
// refused.
func (m *Machine) RDMAGetSpanC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, into []byte, size int, epoch uint32, span *telemetry.Span, then func(data []byte, nack Nack, ok bool)) {
	m.rdmaCount++
	done := sim.NewCompletion(m.K, "rdma-get")
	op := m.newDMAGet()
	*op = dmaGet{initiator: src, base: base, raddr: raddr, size: size, dst: into, epoch: epoch, done: done, span: span}
	x := m.newXfer(ct, src, dst, m.Prof.RDMADescBytes, fabric.ClassDMA, op, span)
	x.after, x.done, x.nackOp, x.thenData = afterWait, done, "get", then
	x.start(m.Prof.RDMASetup)
}

// RDMAPutSpanC is RDMAPutSpan in continuation-passing style: then
// runs once the origin buffer is reusable, with the completion that
// fires when the data is visible in target memory.
func (m *Machine) RDMAPutSpanC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, data []byte, epoch uint32, span *telemetry.Span, then func(done *sim.Completion)) {
	m.rdmaCount++
	done := sim.NewCompletion(m.K, "rdma-put")
	op := m.newDMAPut()
	*op = dmaPut{initiator: src, base: base, raddr: raddr, data: data, epoch: epoch, done: done, span: span}
	x := m.newXfer(ct, src, dst, m.Prof.RDMADescBytes+len(data), fabric.ClassDMA, op, span)
	x.after, x.done, x.thenRes = afterLatency, done, then
	x.start(m.Prof.RDMASetup)
}

// RDMAGetStartC issues a one-sided read split-phase: then runs once
// the descriptor is injected (or parked in the doorbell batch) with the
// completion that fires at the initiator with the data ([]byte) or a
// Nack, after the transport's RDMA-mode extra latency.
func (m *Machine) RDMAGetStartC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, into []byte, size int, epoch uint32, span *telemetry.Span, then func(res *sim.Completion)) {
	m.rdmaCount++
	done := sim.NewCompletion(m.K, "rdma-get")
	op := m.newDMAGet()
	*op = dmaGet{initiator: src, base: base, raddr: raddr, size: size, dst: into, epoch: epoch, done: done, split: "get", span: span}
	m.startDesc(ct, src, dst, m.Prof.RDMADescBytes, op, span, done, then)
}

// RDMAPutStartC issues a one-sided write split-phase, without holding
// the caller through the RDMA-mode completion latency: then runs once
// the descriptor (and payload) is injected or parked in the doorbell
// batch, with the completion that fires when the data is globally
// visible in target memory (or with a Nack); fences and split-phase
// handles wait on it.
func (m *Machine) RDMAPutStartC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, data []byte, epoch uint32, span *telemetry.Span, then func(done *sim.Completion)) {
	m.rdmaCount++
	done := sim.NewCompletion(m.K, "rdma-put")
	op := m.newDMAPut()
	*op = dmaPut{initiator: src, base: base, raddr: raddr, data: data, epoch: epoch, done: done, span: span}
	m.startDesc(ct, src, dst, m.Prof.RDMADescBytes+len(data), op, span, done, then)
}

// startDesc issues a split-phase descriptor of wire bytes toward dst
// and hands res to then once it is on the wire — or, with coalescing
// on, once it is parked in the (src,dst) doorbell batch instead of
// paying its own setup, TX arbitration and injection.
func (m *Machine) startDesc(ct *sim.Cont, src, dst, wire int, desc any, span *telemetry.Span, res *sim.Completion, then func(res *sim.Completion)) {
	x := m.newXfer(ct, src, dst, wire, fabric.ClassDMA, desc, span)
	x.after, x.done, x.thenRes = afterHandOut, res, then
	if c := m.coal; c != nil {
		c.appendCont(ct, coalKey{src: src, dst: dst, class: fabric.ClassDMA}, nil, desc, wire, span, x.completeFn)
		return
	}
	x.start(m.Prof.RDMASetup)
}

// stampWire records an injected operation's send and physical arrival
// times, the endpoints of its wire phase.
func stampWire(op any, sent, arrived sim.Time) {
	switch o := op.(type) {
	case *Msg:
		o.sent, o.arrived = sent, arrived
	case *dmaGet:
		o.sent, o.arrived = sent, arrived
	case *dmaPut:
		o.sent, o.arrived = sent, arrived
	case *dmaAtomic:
		o.sent, o.arrived = sent, arrived
	}
}

// appendCont parks one operation in its buffer, charging the (small)
// append cost to the calling thread, and flushes inline when a
// threshold trips; then runs afterwards. subwire is the operation's
// contribution to the frame. A non-nil reply is the reply buffer of a
// batch in service, which its handler context flushes when service
// ends: it has no timer and no thresholds.
func (c *coalescer) appendCont(ct *sim.Cont, key coalKey, reply *coalBuf, op any, subwire int, span *telemetry.Span, then func()) {
	if key.src == key.dst {
		panic(fmt.Sprintf("transport: node %d coalescing to itself", key.src))
	}
	var a *coalAppend
	if n := len(c.appends); n > 0 {
		a = c.appends[n-1]
		c.appends = c.appends[:n-1]
	} else {
		a = &coalAppend{c: c}
		a.stepFn = a.step
	}
	a.ct, a.key, a.reply, a.op, a.subwire, a.span, a.then = ct, key, reply, op, subwire, span, then
	ct.Sleep(c.cfg.AppendCost, a.stepFn)
}

// coalAppend is the pooled state of one appendCont across its
// append-cost sleep.
type coalAppend struct {
	c       *coalescer
	ct      *sim.Cont
	key     coalKey
	reply   *coalBuf
	op      any
	subwire int
	span    *telemetry.Span
	then    func()
	stepFn  func()
}

func (a *coalAppend) step() {
	c, ct, key, b, op, subwire, span, then := a.c, a.ct, a.key, a.reply, a.op, a.subwire, a.span, a.then
	a.ct, a.reply, a.op, a.span, a.then = nil, nil, nil, nil, nil
	c.appends = append(c.appends, a)
	reply := b != nil
	if !reply {
		b = c.buf(key)
		if len(b.ops) == 0 && c.cfg.FlushDelay > 0 {
			b.timer = c.m.K.AfterTimer(c.cfg.FlushDelay, func() { c.flushC(b) })
		}
	}
	b.ops = append(b.ops, op)
	b.spans = append(b.spans, span)
	b.queued = append(b.queued, c.m.K.Now())
	b.bytes += subwire
	c.stats.Msgs++
	c.m.Tel.Add("xlupc_coalesce_msgs_total", "", 1)
	if !reply && (len(b.ops) >= c.cfg.MaxOps || b.bytes >= c.cfg.MaxBytes) {
		c.flushCont(ct, b, "size", then)
		return
	}
	then()
}

// flushCont injects a buffer's frame on behalf of a thread: one send
// overhead, one TX acquisition, one serialization for the whole batch
// (the timer path, flushC, charges no send overhead).
func (c *coalescer) flushCont(ct *sim.Cont, b *coalBuf, reason string, then func()) {
	if !c.take(b) {
		then()
		return
	}
	c.noteFlush(reason)
	flushStart := c.m.K.Now()
	frame, wire := c.frame(b)
	ct.Sleep(c.m.Prof.SendOverhead, func() {
		tx := c.m.Fab.Port(b.key.src).TX
		tx.AcquireCont(ct, func() {
			finish := func(arrived sim.Time) {
				tx.Release()
				sent := c.m.K.Now()
				b.stamp(frame, flushStart, sent, arrived)
				phase := telemetry.PhaseSend
				if b.key.class == fabric.ClassDMA {
					phase = telemetry.PhaseRDMASetup
				}
				for _, span := range b.spans {
					span.Phase(phase, flushStart, sent)
				}
				then()
			}
			if rl := c.m.rel; rl != nil {
				rl.injectC(b.key.src, b.key.dst, wire, b.key.class, frame, nil, finish)
				return
			}
			c.m.Fab.InjectC(b.key.src, b.key.dst, wire, b.key.class, frame, finish)
		})
	})
}

// FlushCoalescedC flushes every buffer node src has open, in
// deterministic (dst, class) order, then runs then. Sync, fence and
// end-of-batch service call it; a machine without coalescing continues
// at once. Each flush may suspend the thread, and another
// thread of the same node may flush (and so remove) a buffer collected
// here meanwhile; such keys are skipped.
func (m *Machine) FlushCoalescedC(ct *sim.Cont, src int, then func()) {
	c := m.coal
	if c == nil {
		then()
		return
	}
	var f *flushAll
	if n := len(c.flushes); n > 0 {
		f = c.flushes[n-1]
		c.flushes = c.flushes[:n-1]
	} else {
		f = &flushAll{c: c}
		f.nextFn = f.next
	}
	for k, b := range c.bufs {
		if k.src == src && len(b.ops) > 0 {
			f.keys = append(f.keys, k)
		}
	}
	slices.SortFunc(f.keys, compareCoalKeys)
	f.ct, f.then = ct, then
	f.next()
}

func compareCoalKeys(a, b coalKey) int {
	if a.dst != b.dst {
		return a.dst - b.dst
	}
	return int(a.class) - int(b.class)
}

// flushAll is the pooled state of one FlushCoalescedC: the sorted keys
// and the position reached.
type flushAll struct {
	c      *coalescer
	ct     *sim.Cont
	keys   []coalKey
	i      int
	then   func()
	nextFn func()
}

func (f *flushAll) next() {
	for f.i < len(f.keys) {
		b := f.c.bufs[f.keys[f.i]]
		f.i++
		if b != nil {
			f.c.flushCont(f.ct, b, "sync", f.nextFn)
			return
		}
	}
	then := f.then
	f.ct, f.then, f.keys, f.i = nil, nil, f.keys[:0], 0
	f.c.flushes = append(f.c.flushes, f)
	then()
}

// SendAMCoalescedC queues an active message into the (src,dst)
// coalescing buffer, or falls back to an individual SendAMSpanC when
// coalescing is off; then runs once it is queued (or on the wire). The
// logical message keeps its own handler, meta, payload and span; only
// the wire framing is shared.
func (m *Machine) SendAMCoalescedC(ct *sim.Cont, src, dst int, id HandlerID, meta any, payload []byte, extra int, span *telemetry.Span, then func()) {
	c := m.coal
	if c == nil {
		m.SendAMSpanC(ct, src, dst, id, meta, payload, extra, span, then)
		return
	}
	if src == dst {
		panic("transport: AM to self; intra-node traffic must use shared memory")
	}
	m.amCount++
	sub := c.cfg.SubHeaderBytes + len(payload) + extra
	msg := m.newMsg()
	msg.Src, msg.Dst, msg.Handler, msg.Meta, msg.Payload = src, dst, id, meta, payload
	msg.wire = sub
	msg.Span = span
	c.appendCont(ct, coalKey{src: src, dst: dst, class: fabric.ClassAM}, nil, msg, sub, span, then)
}
