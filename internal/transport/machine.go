package transport

import (
	"fmt"

	"xlupc/internal/fabric"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// HandlerID names an active-message header handler. The UPC runtime
// registers its protocol handlers (GET request, PUT request, allocation
// notification, …) under stable ids.
type HandlerID uint8

// Handler serves one active message on one of the target node's
// handler contexts, as kernel callbacks: the context holds Comm and has
// charged the base RecvOverhead. It may sleep on, acquire from and
// send from hc.Cont(), and touch the node's memory and pin table; it
// never blocks. It must call done exactly once, as its last act, when
// the message is served; the context then releases Comm and serves its
// next message.
type Handler func(hc *HandlerCtx, m *Msg, done func())

// Msg is one active message.
type Msg struct {
	Src, Dst int
	Handler  HandlerID
	Meta     any    // protocol header (simulation passes pointers)
	Payload  []byte // data carried by eager transfers (may be nil)
	wire     int    // total wire size

	// Span is the telemetry span of the operation this message belongs
	// to, nil when telemetry is off or the message is uninstrumented
	// control traffic. It rides along so target-side layers attribute
	// their phases into the initiating operation. sent is the injection
	// time and arrived the physical delivery time: sent→arrived is pure
	// wire latency, while arrived→handler-start is the target being
	// busy (queue residency plus CPU acquisition).
	Span    *telemetry.Span
	sent    sim.Time
	arrived sim.Time

	// Batch is the per-frame scratch shared by every sub-message of one
	// coalesced frame (nil for individual messages); reply is the open
	// reply buffer while the message is served as part of a batch.
	Batch *BatchScratch
	reply *coalBuf

	// retained marks a message requeued by its handler (see Retain);
	// the handler context skips recycling it once, then clears the flag.
	retained bool
}

// WireSize reports the message's size on the wire.
func (m *Msg) WireSize() int { return m.wire }

// Machine is a simulated cluster: fabric plus per-node software state,
// the AM handler contexts and the NIC DMA engines.
type Machine struct {
	K        *sim.Kernel
	Prof     *Profile
	Fab      *fabric.Fabric
	Nodes    []*Node
	handlers [256]Handler

	amCount   int64 // active messages sent
	rdmaCount int64 // RDMA operations issued
	nacks     int64 // RDMA operations NACKed at the target

	// rel is the reliable-delivery layer; nil (the default) keeps the
	// original fire-and-forget wire with zero added events.
	rel *reliability

	// coal is the per-destination message coalescer; nil (the default)
	// keeps every send individual and the event stream bit-identical to
	// a build without coalescing.
	coal *coalescer

	// crash is the crash/restart bookkeeping; nil (the default) means no
	// node ever crashes and every epoch check trivially passes.
	crash *crashState

	// Tel is the run's telemetry hub; nil disables all recording at
	// zero virtual-time cost (phase recording never sleeps).
	Tel *telemetry.Telemetry

	// FR is the run's flight recorder; nil (the default) disables
	// recording at the cost of a pointer check per site.
	FR *flight.Recorder

	// pool holds the descriptor free-lists (see pool.go); active only
	// while rel is nil.
	pool pools
}

// SetFlightRecorder attaches fr to the machine and every layer that
// records into it: the fabric (wire events) and each node's pin table
// (evictions). Call before the simulation starts; nil detaches.
func (m *Machine) SetFlightRecorder(fr *flight.Recorder) {
	m.FR = fr
	m.Fab.SetFlightRecorder(fr)
	for _, nd := range m.Nodes {
		nd.Pins.SetFlightRecorder(fr)
	}
}

// Node is one cluster node as the transport sees it.
type Node struct {
	ID   int
	M    *Machine
	Mem  *mem.Space
	Pins *mem.PinTable

	// Epoch is the node's incarnation number, bumped on every crash.
	// RDMA descriptors carry the epoch the initiator believes the target
	// is in; a mismatch at the target NACKs the operation, which is what
	// turns a silently stale cached address into a recoverable event.
	Epoch uint32

	// CPU is the pool of compute cores. Comm is the resource AM
	// handlers execute on: the same resource as CPU when the
	// transport has no computation/communication overlap (GM), a
	// dedicated engine otherwise (LAPI).
	CPU  *sim.Resource
	Comm *sim.Resource

	// ctxs are the node's AM handler contexts (see engine.go).
	ctxs []*HandlerCtx
}

// NewMachine builds a cluster of n nodes over the profile's topology
// and wire model and starts each node's AM handler contexts and DMA
// engine.
func NewMachine(k *sim.Kernel, prof *Profile, n int) *Machine {
	m := &Machine{
		K:    k,
		Prof: prof,
		Fab:  fabric.New(k, prof.NewTopo(n), prof.Wire),
	}
	m.Nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		nd := &Node{
			ID:   i,
			M:    m,
			Mem:  mem.NewSpace(i),
			Pins: mem.NewPinTable(i, prof.Reg, prof.PinPolicy),
			CPU:  sim.NewResource(k, fmt.Sprintf("node%d.cpu", i), prof.Cores),
		}
		if prof.PinEvictor != mem.EvictLRU {
			nd.Pins.SetEvictor(prof.PinEvictor.New(prof.Reg))
		}
		if prof.PinLazy != nil {
			nd.Pins.SetLazyUnpin(prof.PinLazy)
		}
		if prof.CommOverlap {
			cap := prof.CommCapacity
			if cap <= 0 {
				cap = 1
			}
			nd.Comm = sim.NewResource(k, fmt.Sprintf("node%d.comm", i), cap)
		} else {
			nd.Comm = nd.CPU
		}
		m.Nodes[i] = nd
		m.startHandlerCtxs(nd)
		m.startDMAEngine(nd)
	}
	return m
}

// Handle registers the handler for id. Registration happens before the
// simulation starts; re-registration panics.
func (m *Machine) Handle(id HandlerID, h Handler) {
	if m.handlers[id] != nil {
		panic(fmt.Sprintf("transport: duplicate handler %d", id))
	}
	m.handlers[id] = h
}

// AMCount, RDMACount and NackCount report operation totals.
func (m *Machine) AMCount() int64   { return m.amCount }
func (m *Machine) RDMACount() int64 { return m.rdmaCount }
func (m *Machine) NackCount() int64 { return m.nacks }

// CrashStats counts crash/restart activity at the transport layer.
type CrashStats struct {
	Crashes      int64    // nodes taken down
	StaleNacks   int64    // RDMA ops NACKed for a stale target epoch
	Recovered    int64    // restarts confirmed by a post-restart RDMA op
	RecoveryTime sim.Time // sum over Recovered of (first RDMA op) - BackAt
}

// crashState is the machine's crash bookkeeping, allocated on first
// CrashNode so crash-free runs carry a single nil check.
type crashState struct {
	// recovery maps a node still awaiting its first successful inbound
	// RDMA op since restart to its BackAt time.
	recovery map[int]sim.Time
	stats    CrashStats
}

// CrashStats reports crash activity (zero when no crash ever happened).
func (m *Machine) CrashStats() CrashStats {
	if m.crash == nil {
		return CrashStats{}
	}
	return m.crash.stats
}

// CrashNode takes node down at the current time until backAt: its
// incarnation epoch is bumped, its NIC drops arrivals until backAt, and
// the reliable layer (when present) resets the per-peer sequence state
// senders hold toward it. The caller (the runtime's crash orchestrator)
// is responsible for wiping the node's pin table and re-seeding its
// allocator — the transport only owns the wire-visible state. Returns
// the new epoch.
func (m *Machine) CrashNode(node int, backAt sim.Time) uint32 {
	if m.crash == nil {
		m.crash = &crashState{recovery: make(map[int]sim.Time)}
	}
	nd := m.Nodes[node]
	nd.Epoch++
	m.crash.stats.Crashes++
	m.crash.recovery[node] = backAt
	m.Fab.SetDown(node, backAt)
	if m.rel != nil {
		m.rel.peerReset(node)
	}
	m.Tel.Add("xlupc_crash_total", fmt.Sprintf(`node="%d"`, node), 1)
	m.FR.Record(node, flight.Event{
		T: m.K.Now(), Kind: flight.KindCrash,
		Src: int32(node), Dst: -1, Seq: uint64(nd.Epoch), Arg: int64(backAt),
	})
	return nd.Epoch
}

// noteStale counts an RDMA operation NACKed at the target because its
// descriptor carried a pre-crash epoch.
func (m *Machine) noteStale(op string) {
	if m.crash == nil {
		return
	}
	m.crash.stats.StaleNacks++
	if m.Tel != nil {
		m.Tel.Add("xlupc_stale_nacks_total", `op="`+op+`"`, 1)
	}
}

// noteRecovered marks a restarted node as fully recovered the first
// time an inbound RDMA op passes its epoch check, accruing the restart
// -> first-op gap as the observable recovery time.
func (m *Machine) noteRecovered(node int) {
	if m.crash == nil {
		return
	}
	backAt, ok := m.crash.recovery[node]
	if !ok {
		return
	}
	delete(m.crash.recovery, node)
	m.crash.stats.Recovered++
	m.crash.stats.RecoveryTime += m.K.Now() - backAt
	m.FR.Record(node, flight.Event{
		T: m.K.Now(), Kind: flight.KindRestart,
		Src: int32(node), Dst: -1, Seq: uint64(m.Nodes[node].Epoch),
		Arg: int64(m.K.Now() - backAt),
	})
}

// SendAM injects an active message from node src toward dst, charging
// the initiator's CPU send overhead and NIC injection. It returns once
// the message is on the wire; delivery and handling are asynchronous.
// extra widens the wire size beyond header+payload (piggybacked data).
func (m *Machine) SendAM(p *sim.Proc, src, dst int, id HandlerID, meta any, payload []byte, extra int) {
	m.SendAMSpan(p, src, dst, id, meta, payload, extra, nil)
}

// SendAMSpan is SendAM carrying a telemetry span: the initiator's send
// phase (software overhead plus NIC injection) is attributed to it, and
// the span rides with the message so the target's handler context and
// handler attribute their phases into the same operation.
func (m *Machine) SendAMSpan(p *sim.Proc, src, dst int, id HandlerID, meta any, payload []byte, extra int, span *telemetry.Span) {
	m.SendAMSpanC(p.Cont(), src, dst, id, meta, payload, extra, span, p.WakeFn())
	p.Suspend()
}
