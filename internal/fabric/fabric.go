package fabric

import (
	"fmt"

	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
)

// WireModel carries the interconnect timing parameters.
type WireModel struct {
	BaseLatency sim.Time // fixed per-message wire latency
	HopLatency  sim.Time // additional latency per switch hop
	ByteTime    sim.Time // serialization cost, ps per byte
}

// Latency is the route latency between two nodes for the given
// topology (excluding serialization, which is charged at injection).
func (w WireModel) Latency(topo Topology, src, dst int) sim.Time {
	return w.BaseLatency + sim.Time(topo.Hops(src, dst))*w.HopLatency
}

// Serialize is the injection time of n bytes.
func (w WireModel) Serialize(n int) sim.Time { return sim.BytesTime(n, w.ByteTime) }

// Class separates the two arrival paths at a node: messages that need
// software handling (active messages) and descriptors the NIC's DMA
// engine services without CPU involvement (RDMA).
type Class int

const (
	ClassAM Class = iota
	ClassDMA
)

// Port is one node's attachment to the fabric.
type Port struct {
	// TX is the NIC injection port: a single engine all senders on
	// the node share. This is where the paper's "four threads
	// competing for the same network device" contention appears.
	TX *sim.Resource
	// AM is the arrival queue for active messages (serviced by a
	// software dispatcher that needs a CPU).
	AM *sim.Queue[any]
	// DMA is the arrival queue for RDMA descriptors (serviced by the
	// NIC's DMA engine with no CPU involvement).
	DMA *sim.Queue[any]
}

// Corrupted wraps a payload whose integrity check fails at the
// receiving NIC. The delivery hook (or handler) is expected to discard
// it; with no reliable-delivery layer installed a corrupted packet
// would wedge the run, so corruption requires one.
type Corrupted struct{ Inner any }

// FaultStats counts the hazards the injector actually applied.
type FaultStats struct {
	Drops      int64 // packets vanished on the wire
	Corrupts   int64 // packets delivered with a failing checksum
	Dups       int64 // packets delivered twice
	Delayed    int64 // packets given extra wire latency
	Stalled    int64 // arrivals held by a NIC-stall window
	CrashDrops int64 // arrivals dropped into a node's crash/restart window
}

// Fabric is the simulated interconnect instance.
type Fabric struct {
	k     *sim.Kernel
	topo  Topology
	wire  WireModel
	ports []*Port

	// Fault injection (nil = perfectly reliable wire).
	inj *fault.Injector
	// Delivery hook: when set, arrivals are handed to it instead of
	// being pushed onto the destination port's queues (the reliable
	// transport interposes here for seq/ACK/dedup handling).
	hook func(dst int, class Class, m any)

	// down[n], when the slice exists, is the end of node n's current
	// crash/restart window: packets arriving before it are dropped at
	// the dead NIC. Lazily allocated by SetDown so crash-free runs keep
	// a nil check as their only overhead.
	down []sim.Time

	// Flight recorder (nil = off; every site is a nil-checked Record).
	fr *flight.Recorder

	// Accounting.
	messages int64
	bytes    int64
	faults   FaultStats

	// Free lists for the per-packet event records (see arrival/txSer):
	// the wire's two scheduled events per packet — serialization and
	// delivery — run pre-bound funcs on pooled records instead of
	// allocating closures, so the fabric adds no per-packet garbage.
	apool []*arrival
	spool []*txSer
}

// New builds a fabric over the given topology and wire model.
func New(k *sim.Kernel, topo Topology, wire WireModel) *Fabric {
	f := &Fabric{k: k, topo: topo, wire: wire}
	f.ports = make([]*Port, topo.Nodes())
	for i := range f.ports {
		f.ports[i] = &Port{
			TX:  sim.NewResource(k, fmt.Sprintf("nic%d.tx", i), 1),
			AM:  sim.NewQueue[any](k, fmt.Sprintf("nic%d.am", i)),
			DMA: sim.NewQueue[any](k, fmt.Sprintf("nic%d.dma", i)),
		}
	}
	return f
}

// Kernel returns the simulation kernel.
func (f *Fabric) Kernel() *sim.Kernel { return f.k }

// Topology returns the topology.
func (f *Fabric) Topology() Topology { return f.topo }

// Wire returns the wire model.
func (f *Fabric) Wire() WireModel { return f.wire }

// Nodes is the number of nodes.
func (f *Fabric) Nodes() int { return f.topo.Nodes() }

// Port returns node n's attachment.
func (f *Fabric) Port(n int) *Port { return f.ports[n] }

// Messages and Bytes report traffic totals.
func (f *Fabric) Messages() int64 { return f.messages }
func (f *Fabric) Bytes() int64    { return f.bytes }

// SetInjector installs (or, with nil, removes) a fault injector.
// Packets are keyed by their injection ordinal — the value of the
// fabric's message counter at Inject time — so retransmissions face
// independent hazards, like fresh packets on a real lossy wire.
func (f *Fabric) SetInjector(inj *fault.Injector) { f.inj = inj }

// SetDeliveryHook routes every arrival through fn instead of the
// destination port's AM/DMA queues. The reliable transport installs
// its seq/ACK/dedup handling here; fn runs in kernel context at the
// arrival time and must not block.
func (f *Fabric) SetDeliveryHook(fn func(dst int, class Class, m any)) { f.hook = fn }

// FaultStats reports the hazards applied so far.
func (f *Fabric) FaultStats() FaultStats { return f.faults }

// SetFlightRecorder attaches (or, with nil, detaches) a flight
// recorder. Recording is host-side only: it costs no virtual time and
// never changes delivery behaviour.
func (f *Fabric) SetFlightRecorder(fr *flight.Recorder) { f.fr = fr }

// fclass maps the fabric arrival class onto the recorder's tag.
func fclass(c Class) flight.Class {
	if c == ClassDMA {
		return flight.ClassDMA
	}
	return flight.ClassAM
}

// SetDown marks node n's NIC unreachable until the given time: every
// packet arriving before it is dropped (the node is mid-restart). The
// crash orchestrator calls this at each crash instant.
func (f *Fabric) SetDown(n int, until sim.Time) {
	if f.down == nil {
		f.down = make([]sim.Time, len(f.ports))
	}
	f.down[n] = until
}

// DownUntil reports the end of node n's current down window (0, i.e.
// the past, when the node was never crashed). The reliable layer
// consults it to park retransmits toward a dead peer.
func (f *Fabric) DownUntil(n int) sim.Time {
	if f.down == nil {
		return 0
	}
	return f.down[n]
}

// dropDown drops an arrival landing inside dst's down window. It runs
// at arrival time — a packet can be sent before a crash and arrive
// mid-restart — so the check lives in the delivery callback.
func (f *Fabric) dropDown(dst int) bool {
	if f.down == nil || f.k.Now() >= f.down[dst] {
		return false
	}
	f.faults.CrashDrops++
	return true
}

// Inject sends a message of size wire bytes from src to dst, arriving
// on dst's queue for the given class. The calling process must already
// hold src's TX port; Inject charges the serialization time (the
// caller keeps holding TX through it), then schedules delivery after
// the route latency. It returns the arrival time.
//
// Sending to the local node is a protocol bug — co-located threads
// communicate through shared memory, never the NIC — and panics.
func (f *Fabric) Inject(p *sim.Proc, src, dst int, size int, class Class, m any) sim.Time {
	var arrive sim.Time
	wake := p.WakeFn()
	f.InjectC(src, dst, size, class, m, func(at sim.Time) {
		arrive = at
		wake()
	})
	p.Suspend()
	return arrive
}

// InjectC is Inject in continuation-passing style, for kernel
// callbacks and continuation-mode senders: serialization is modelled
// by scheduling done after the serialize time. The caller must hold
// src's TX through done, which receives the arrival time.
func (f *Fabric) InjectC(src, dst int, size int, class Class, m any, done func(arrive sim.Time)) {
	if src == dst {
		panic(fmt.Sprintf("fabric: node %d sending to itself", src))
	}
	f.messages++
	f.bytes += int64(size)
	seq := uint64(f.messages)
	if f.fr != nil {
		f.fr.Record(src, flight.Event{
			T: f.k.Now(), Kind: flight.KindSend, Class: fclass(class),
			Src: int32(src), Dst: int32(dst), Seq: seq, Arg: int64(size),
		})
	}
	ser := f.wire.Serialize(size)
	if ser <= 0 { // zero-width message: no serialization event
		done(f.deliver(seq, src, dst, size, class, m))
		return
	}
	s := f.newTxSer()
	s.seq, s.src, s.dst, s.size, s.class, s.m, s.done = seq, src, dst, size, class, m, done
	f.k.After(ser, s.run)
}

// txSer is a pooled serialization-in-progress record: the event
// scheduled at injection runs its pre-bound run func, which hands the
// packet to deliver and invokes the sender's done callback — the
// closure-free form of InjectC's serialization step.
type txSer struct {
	f     *Fabric
	seq   uint64
	src   int
	dst   int
	size  int
	class Class
	m     any
	done  func(arrive sim.Time)
	run   func() // pre-bound to this record, built once per record
}

func (f *Fabric) newTxSer() *txSer {
	if n := len(f.spool); n > 0 {
		s := f.spool[n-1]
		f.spool = f.spool[:n-1]
		return s
	}
	s := &txSer{f: f}
	s.run = s.fire
	return s
}

func (s *txSer) fire() {
	f := s.f
	seq, src, dst, size, class, m, done := s.seq, s.src, s.dst, s.size, s.class, s.m, s.done
	s.m, s.done = nil, nil
	f.spool = append(f.spool, s)
	done(f.deliver(seq, src, dst, size, class, m))
}

// deliver applies any configured hazards to the packet and schedules
// its arrival at dst after the route latency. It returns the nominal
// (hazard-free) arrival time: senders pace themselves by it, and a
// real sender cannot observe a drop or delay downstream of its NIC.
func (f *Fabric) deliver(seq uint64, src, dst, size int, class Class, m any) sim.Time {
	arrive := f.k.Now() + f.wire.Latency(f.topo, src, dst)
	if f.inj == nil {
		f.arriveAt(arrive, seq, src, dst, size, class, m)
		return arrive
	}
	d := f.inj.Decide(seq)
	if d.Drop {
		f.faults.Drops++
		f.fr.Record(dst, flight.Event{
			T: f.k.Now(), Kind: flight.KindDrop, Class: fclass(class),
			Src: int32(src), Dst: int32(dst), Seq: seq, Arg: int64(size),
		})
		return arrive
	}
	at := arrive
	if d.Delay > 0 {
		f.faults.Delayed++
		at += d.Delay
		f.fr.Record(dst, flight.Event{
			T: f.k.Now(), Kind: flight.KindDelay, Class: fclass(class),
			Src: int32(src), Dst: int32(dst), Seq: seq, Arg: int64(d.Delay),
		})
	}
	if clear := f.inj.StallClear(dst, at); clear > at {
		f.faults.Stalled++
		f.fr.Record(dst, flight.Event{
			T: f.k.Now(), Kind: flight.KindStall, Class: fclass(class),
			Src: int32(src), Dst: int32(dst), Seq: seq, Arg: int64(clear - at),
		})
		at = clear
	}
	pkt := m
	if d.Corrupt {
		f.faults.Corrupts++
		f.fr.Record(dst, flight.Event{
			T: f.k.Now(), Kind: flight.KindCorrupt, Class: fclass(class),
			Src: int32(src), Dst: int32(dst), Seq: seq, Arg: int64(size),
		})
		pkt = Corrupted{Inner: m}
	}
	f.arriveAt(at, seq, src, dst, size, class, pkt)
	if d.Duplicate {
		f.faults.Dups++
		f.fr.Record(dst, flight.Event{
			T: f.k.Now(), Kind: flight.KindDuplicate, Class: fclass(class),
			Src: int32(src), Dst: int32(dst), Seq: seq, Arg: int64(size),
		})
		f.arriveAt(at+d.DupDelay, seq, src, dst, size, class, pkt)
	}
	return arrive
}

// arriveAt schedules one physical arrival of m at dst, on a pooled
// record so a delivery costs no closure allocation. A duplicated
// packet gets two records (two independent arrival events), exactly
// like the two closures it used to get.
func (f *Fabric) arriveAt(at sim.Time, seq uint64, src, dst, size int, class Class, m any) {
	a := f.newArrival()
	a.seq, a.src, a.dst, a.size, a.class, a.m = seq, src, dst, size, class, m
	f.k.At(at, a.run)
}

// arrival is a pooled in-flight packet delivery record.
type arrival struct {
	f     *Fabric
	seq   uint64
	src   int
	dst   int
	size  int
	class Class
	m     any
	run   func() // pre-bound to this record, built once per record
}

func (f *Fabric) newArrival() *arrival {
	if n := len(f.apool); n > 0 {
		a := f.apool[n-1]
		f.apool = f.apool[:n-1]
		return a
	}
	a := &arrival{f: f}
	a.run = a.deliverNow
	return a
}

// deliverNow runs at the packet's physical arrival time. The record is
// recycled before the queue push/hook, so a handler that injects again
// inline can reuse it.
func (a *arrival) deliverNow() {
	f := a.f
	seq, src, dst, size, class, m := a.seq, a.src, a.dst, a.size, a.class, a.m
	a.m = nil
	f.apool = append(f.apool, a)
	if f.dropDown(dst) {
		f.recordCrashDrop(seq, src, dst, class)
		return
	}
	f.recordRecv(seq, src, dst, size, class)
	if hook := f.hook; hook != nil {
		hook(dst, class, m)
		return
	}
	switch class {
	case ClassDMA:
		f.ports[dst].DMA.Push(m)
	default:
		f.ports[dst].AM.Push(m)
	}
}

func (f *Fabric) recordRecv(seq uint64, src, dst, size int, class Class) {
	if f.fr == nil {
		return
	}
	f.fr.Record(dst, flight.Event{
		T: f.k.Now(), Kind: flight.KindRecv, Class: fclass(class),
		Src: int32(src), Dst: int32(dst), Seq: seq, Arg: int64(size),
	})
}

func (f *Fabric) recordCrashDrop(seq uint64, src, dst int, class Class) {
	if f.fr == nil {
		return
	}
	f.fr.Record(dst, flight.Event{
		T: f.k.Now(), Kind: flight.KindCrashDrop, Class: fclass(class),
		Src: int32(src), Dst: int32(dst), Seq: seq,
	})
}
