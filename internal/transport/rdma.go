package transport

import (
	"fmt"

	"xlupc/internal/fabric"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// dmaGet is an RDMA read descriptor serviced by the target's DMA
// engine: fetch size bytes at raddr and stream them back, no CPU.
type dmaGet struct {
	initiator int
	base      mem.Addr // pinned-region base, for the pin-table LRU
	raddr     mem.Addr
	size      int
	dst       []byte // posted receive buffer: the engine deposits the
	// data here directly (like a real NIC) instead of allocating a
	// bounce buffer per read; nil falls back to an allocated copy.
	epoch uint32          // target incarnation the initiator believes in
	done  *sim.Completion // completes at the initiator with []byte

	span    *telemetry.Span
	sent    sim.Time // injection time, start of the wire phase
	arrived sim.Time // physical delivery time at the target NIC
}

// dmaPut is an RDMA write descriptor: the payload travelled with the
// descriptor; the target engine deposits it at raddr.
type dmaPut struct {
	initiator int
	base      mem.Addr
	raddr     mem.Addr
	data      []byte
	epoch     uint32
	done      *sim.Completion // completes when the data is in target memory

	span    *telemetry.Span
	sent    sim.Time
	arrived sim.Time
}

// dmaResp carries an RDMA completion back to the initiator NIC. Data
// responses ride the typed data lane (no per-op interface boxing);
// NACKs use the any-valued one.
type dmaResp struct {
	done *sim.Completion
	val  any
	data []byte

	span    *telemetry.Span
	sent    sim.Time
	arrived sim.Time
}

// Nack is the completion value of an RDMA operation refused at the
// target. Two causes exist: the region was deregistered (evicted) under
// the limited-pinning policy — Stale is false and the initiator drops
// the one stale cache entry — or the descriptor carried a pre-crash
// incarnation epoch — Stale is true, Epoch is the target's current
// epoch, and the initiator must invalidate every cached address for
// that node before falling back to the active-message path. Under
// pin-everything with matching epochs a live cache entry always implies
// a pinned region, so a missing registration is a protocol bug and
// panics instead.
type Nack struct {
	Stale bool
	Epoch uint32 // target's current incarnation (stale NACKs only)
}

// RDMAGet performs a one-sided read of size bytes at raddr in dst's
// memory, blocking the calling process until the data arrives. ok is
// false when the target NACKed (deregistered region, or stale epoch);
// the caller must invalidate and fall back. The descriptor carries the
// target's live epoch, so this convenience form never goes stale —
// cached-address paths use RDMAGetSpan with the epoch they cached.
func (m *Machine) RDMAGet(p *sim.Proc, src, dst int, base, raddr mem.Addr, size int) (data []byte, ok bool) {
	data, _, ok = m.RDMAGetSpan(p, src, dst, base, raddr, nil, size, m.Nodes[dst].Epoch, nil)
	return data, ok
}

// RDMAGetSpan is RDMAGet carrying the initiator's believed target epoch
// and a telemetry span: descriptor setup and injection, target DMA
// service, completion and the RDMA-mode extra latency are attributed to
// it phase by phase. On failure the returned Nack tells the caller
// whether one entry went stale (deregistration) or the whole node did
// (crash), which decide between a single eviction and a node-wide flush.
// When into is non-nil it is the posted receive buffer (len(into) must
// equal size): the data lands there with no per-read allocation, and
// the returned data aliases it.
func (m *Machine) RDMAGetSpan(p *sim.Proc, src, dst int, base, raddr mem.Addr, into []byte, size int, epoch uint32, span *telemetry.Span) (data []byte, nack Nack, ok bool) {
	c := m.newCall(p)
	m.RDMAGetSpanC(p.Cont(), src, dst, base, raddr, into, size, epoch, span, c.dataFn)
	return c.dataResult()
}

// RDMAPut performs a one-sided write of data to raddr in dst's memory.
// It blocks the caller until the origin buffer is reusable — injection
// plus the transport's RDMA-mode completion latency (the HPS trait
// that makes small cached PUTs a net loss on LAPI) — and returns a
// completion that fires when the data is globally visible in target
// memory, which fences wait on.
func (m *Machine) RDMAPut(p *sim.Proc, src, dst int, base, raddr mem.Addr, data []byte) *sim.Completion {
	return m.RDMAPutSpan(p, src, dst, base, raddr, data, m.Nodes[dst].Epoch, nil)
}

// RDMAPutSpan is RDMAPut carrying the initiator's believed target epoch
// and a telemetry span.
func (m *Machine) RDMAPutSpan(p *sim.Proc, src, dst int, base, raddr mem.Addr, data []byte, epoch uint32, span *telemetry.Span) *sim.Completion {
	c := m.newCall(p)
	m.RDMAPutSpanC(p.Cont(), src, dst, base, raddr, data, epoch, span, c.doneFn)
	return c.doneResult()
}

// nbResult wraps a split-phase RDMA read's completion: the
// caller-visible completion fires only after the transport's RDMA-mode
// extra latency, and NACKs are counted when the initiator observes
// them, like a blocking read's.
func (m *Machine) nbResult(done *sim.Completion, opName string, span *telemetry.Span) *sim.Completion {
	res := sim.NewCompletion(m.K, "rdma-nb")
	done.Then(func(v any) {
		if _, nack := v.(Nack); nack {
			m.noteNack(opName)
		}
		data := done.Bytes()
		m.K.Recycle(done)
		if m.Prof.RDMAExtraLatency > 0 {
			lat := m.K.Now()
			m.K.After(m.Prof.RDMAExtraLatency, func() {
				span.Phase(telemetry.PhaseRDMALatency, lat, m.K.Now())
				if v != nil {
					res.Complete(v)
				} else {
					res.CompleteBytes(data)
				}
			})
			return
		}
		if v != nil {
			res.Complete(v)
		} else {
			res.CompleteBytes(data)
		}
	})
	return res
}

// noteNack counts an RDMA NACK observed by the initiator.
func (m *Machine) noteNack(op string) {
	m.nacks++
	m.Tel.Add("xlupc_rdma_nacks_total", `op="`+op+`"`, 1)
}

// recordNack flight-records an RDMA refusal at the target engine. For
// stale NACKs seq carries the descriptor's (pre-crash) epoch; for pin
// NACKs it carries the deregistered region's base address.
func (e *dmaEngine) recordNack(kind flight.Kind, initiator int, seq uint64) {
	e.m.FR.Record(e.nd.ID, flight.Event{
		T: e.m.K.Now(), Kind: kind, Class: flight.ClassDMA,
		Src: int32(initiator), Dst: int32(e.nd.ID), Seq: seq,
		Arg: int64(e.nd.Epoch),
	})
}

// dmaEngine is a node's NIC DMA engine: it services RDMA descriptors
// with no CPU involvement, one at a time, entirely as kernel callbacks
// rather than a dispatcher process. Descriptors wait in the port's DMA
// queue while the engine is busy, so queue telemetry keeps measuring
// real residency.
type dmaEngine struct {
	m    *Machine
	nd   *Node
	port *fabric.Port
	busy bool

	// pending holds the descriptors of an unpacked doorbell batch; they
	// are serviced in order before the engine pops the next wire frame.
	pending []any

	// The engine services one descriptor at a time, so its multi-event
	// service chains keep their in-flight state here and step through
	// pre-bound funcs (built once at engine construction) instead of
	// allocating a closure per event.
	curGet    *dmaGet
	curPut    *dmaPut
	curAtomic *dmaAtomic
	curResp   *dmaResp
	respDst   int
	respWire  int
	t0        sim.Time
	w64       [8]byte // atomic RMW staging word (one op in service at a time)

	serveNextFn   func()
	serveGetFn    func()
	servePutFn    func()
	serveAtomicFn func()
	serveRespFn   func()
	respDoneFn    func(arrive sim.Time)
	injectRespFn  func()
}

func (m *Machine) startDMAEngine(nd *Node) {
	e := &dmaEngine{m: m, nd: nd, port: m.Fab.Port(nd.ID)}
	e.serveNextFn = e.serveNext
	e.serveGetFn = e.serveGet2
	e.servePutFn = e.servePut2
	e.serveAtomicFn = e.serveAtomic2
	e.serveRespFn = e.serveResp2
	e.respDoneFn = e.respDone
	e.injectRespFn = e.injectResp
	e.port.DMA.Notify(e.kick)
}

// kick reacts to a descriptor arriving on the DMA queue. Service
// starts as a fresh kernel event at the current time — not inline in
// the delivery event — preserving the event interleaving (and thus TX
// arbitration order) of a process dispatcher woken by the push.
func (e *dmaEngine) kick() {
	if e.busy {
		return
	}
	e.busy = true
	e.m.K.After(0, e.serveNextFn)
}

// serveNext starts service of the oldest queued descriptor, or idles
// the engine when none is pending. Each service chain re-enters here
// when its descriptor is fully injected/completed.
func (e *dmaEngine) serveNext() {
	var raw any
	if len(e.pending) > 0 {
		raw = e.pending[0]
		e.pending = e.pending[1:]
	} else {
		var ok bool
		raw, ok = e.port.DMA.TryPop()
		if !ok {
			e.busy = false
			return
		}
	}
	switch op := raw.(type) {
	case *dmaFrame:
		// A doorbell batch: unpack and service its descriptors in order.
		// pending is necessarily empty here — frames are only popped off
		// the wire queue, never nested.
		e.pending = op.ops
		e.serveNext()
	case *dmaGet:
		e.serveGet(op)
	case *dmaPut:
		e.servePut(op)
	case *dmaAtomic:
		e.serveAtomic(op)
	case *dmaResp:
		e.serveResp(op)
	default:
		panic(fmt.Sprintf("transport: node %d: bad DMA op %T", e.nd.ID, raw))
	}
}

func (e *dmaEngine) serveGet(op *dmaGet) {
	op.span.Phase(telemetry.PhaseWire, op.sent, op.arrived)
	e.curGet = op
	e.t0 = e.m.K.Now()
	e.m.K.After(e.m.Prof.RDMATargetCost, e.serveGetFn)
}

// serveGet2 is the post-service-time step of a GET descriptor.
func (e *dmaEngine) serveGet2() {
	m, k := e.m, e.m.K
	op, t0 := e.curGet, e.t0
	e.curGet = nil
	// Queue residency behind earlier descriptors plus the engine's
	// service time — all DMA-engine occupancy, no CPU.
	op.span.Phase(telemetry.PhaseDMATarget, op.arrived, t0)
	op.span.Phase(telemetry.PhaseDMATarget, t0, k.Now())
	if op.epoch != e.nd.Epoch {
		// The descriptor was built against a previous incarnation:
		// its address describes the pre-crash layout and must not be
		// dereferenced. NACK with the current epoch so the initiator
		// can flush everything it cached for this node.
		m.noteStale("get")
		e.recordNack(flight.KindStaleNack, op.initiator, uint64(op.epoch))
		resp := m.newDMAResp()
		*resp = dmaResp{done: op.done, val: Nack{Stale: true, Epoch: e.nd.Epoch}, span: op.span}
		e.sendResp(op.initiator, m.Prof.RDMADescBytes, resp)
		m.freeDMAGet(op)
		return
	}
	m.noteRecovered(e.nd.ID)
	if !e.nd.Pins.TouchOK(op.base, k.Now()) {
		// A NACK under limited pinning, a crash under pin-everything
		// (where it can only be a runtime bug: the epoch matched, so
		// the registration cannot have been lost to a crash).
		if e.nd.Pins.Policy() != mem.PinLimited {
			panic(fmt.Sprintf("transport: node %d: RDMA access to unpinned region %#x under pin-all", e.nd.ID, op.base))
		}
		e.recordNack(flight.KindPinNack, op.initiator, uint64(op.base))
		resp := m.newDMAResp()
		*resp = dmaResp{done: op.done, val: Nack{}, span: op.span}
		e.sendResp(op.initiator, m.Prof.RDMADescBytes, resp)
		m.freeDMAGet(op)
		return
	}
	data := op.dst
	if data != nil {
		e.nd.Mem.Read(data, op.raddr)
	} else {
		data = e.nd.Mem.ReadAlloc(op.raddr, op.size)
	}
	resp := m.newDMAResp()
	*resp = dmaResp{done: op.done, data: data, span: op.span}
	e.sendResp(op.initiator, m.Prof.RDMADescBytes+op.size, resp)
	m.freeDMAGet(op)
}

// sendResp streams an RDMA completion back to the initiator: acquire
// the node's TX port (FIFO with every other sender on the node), hold
// it through serialization, then move on to the next descriptor. The
// in-flight response rides the engine's cur fields through the two
// pre-bound steps (the engine stays busy until the injection finishes,
// so there is never more than one).
func (e *dmaEngine) sendResp(dst int, wire int, resp *dmaResp) {
	e.curResp = resp
	e.respDst = dst
	e.respWire = wire
	e.port.TX.AcquireC(e.injectRespFn)
}

// injectResp runs holding the TX port: hand the response to the wire.
func (e *dmaEngine) injectResp() {
	resp := e.curResp
	if rl := e.m.rel; rl != nil {
		rl.injectC(e.nd.ID, e.respDst, e.respWire, fabric.ClassDMA, resp, resp.span, e.respDoneFn)
		return
	}
	e.m.Fab.InjectC(e.nd.ID, e.respDst, e.respWire, fabric.ClassDMA, resp, e.respDoneFn)
}

// respDone runs when the response is serialized onto the wire.
func (e *dmaEngine) respDone(arrive sim.Time) {
	resp := e.curResp
	e.curResp = nil
	resp.arrived = arrive
	e.port.TX.Release()
	resp.sent = e.m.K.Now()
	e.serveNext()
}

func (e *dmaEngine) servePut(op *dmaPut) {
	op.span.Phase(telemetry.PhaseWire, op.sent, op.arrived)
	e.curPut = op
	e.t0 = e.m.K.Now()
	e.m.K.After(e.m.Prof.RDMATargetCost, e.servePutFn)
}

// servePut2 is the post-service-time step of a PUT descriptor.
func (e *dmaEngine) servePut2() {
	m, k := e.m, e.m.K
	op, t0 := e.curPut, e.t0
	e.curPut = nil
	op.span.Phase(telemetry.PhaseDMATarget, op.arrived, t0)
	op.span.Phase(telemetry.PhaseDMATarget, t0, k.Now())
	if op.epoch != e.nd.Epoch {
		m.noteStale("put")
		e.recordNack(flight.KindStaleNack, op.initiator, uint64(op.epoch))
		done := op.done
		m.freeDMAPut(op)
		done.Complete(Nack{Stale: true, Epoch: e.nd.Epoch})
		e.serveNext()
		return
	}
	m.noteRecovered(e.nd.ID)
	if !e.nd.Pins.TouchOK(op.base, k.Now()) {
		if e.nd.Pins.Policy() != mem.PinLimited {
			panic(fmt.Sprintf("transport: node %d: RDMA write to unpinned region %#x under pin-all", e.nd.ID, op.base))
		}
		m.noteNack("put")
		e.recordNack(flight.KindPinNack, op.initiator, uint64(op.base))
		done := op.done
		m.freeDMAPut(op)
		done.Complete(Nack{})
		e.serveNext()
		return
	}
	e.nd.Mem.Write(op.raddr, op.data)
	done := op.done
	m.freeDMAPut(op)
	done.Complete(nil)
	e.serveNext()
}

func (e *dmaEngine) serveResp(op *dmaResp) {
	op.span.Phase(telemetry.PhaseWire, op.sent, op.arrived)
	e.curResp = op
	e.t0 = e.m.K.Now()
	e.m.K.After(e.m.Prof.RDMARecvCost, e.serveRespFn)
}

// serveResp2 is the post-receive-cost step of an inbound completion.
func (e *dmaEngine) serveResp2() {
	m, k := e.m, e.m.K
	op, t0 := e.curResp, e.t0
	e.curResp = nil
	// Queue residency at the initiator NIC plus the completion
	// service itself.
	op.span.Phase(telemetry.PhaseRDMARecv, op.arrived, t0)
	op.span.Phase(telemetry.PhaseRDMARecv, t0, k.Now())
	done, val, data := op.done, op.val, op.data
	m.freeDMAResp(op)
	if val != nil {
		done.Complete(val)
	} else {
		done.CompleteBytes(data)
	}
	e.serveNext()
}
