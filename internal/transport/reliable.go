package transport

import (
	"fmt"

	"xlupc/internal/fabric"
	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// RelConfig tunes the reliable-delivery layer: sequence numbers and
// ACKs on every AM and RDMA injection, virtual-time retransmit timers
// with exponential backoff, and a retry budget whose exhaustion
// surfaces as a TransportError instead of a silent deadlock.
type RelConfig struct {
	// RTO is the initial retransmit timeout; it doubles per attempt.
	RTO sim.Time
	// MaxRetries bounds the retransmissions of one packet. Exceeding it
	// fails the run fast with a TransportError.
	MaxRetries int
	// HeaderBytes is the wire overhead of the seq/ACK framing added to
	// every packet.
	HeaderBytes int
}

// DefaultRelConfig returns the reliability parameters used by the
// chaos tooling: an RTO comfortably above any profile's clean
// roundtrip, and a budget deep enough that only a truly dead link
// exhausts it (8 doublings of 40 µs ≈ 10 ms of patience).
func DefaultRelConfig() RelConfig {
	return RelConfig{RTO: 40 * sim.Us, MaxRetries: 8, HeaderBytes: 8}
}

// TransportError is the typed failure of the reliable-delivery layer:
// one packet exhausted its retry budget. core.Runtime.Run converts it
// into a clean abort of the whole run.
type TransportError struct {
	Class    string   // "am" or "dma"
	Src, Dst int      // endpoints of the dead channel
	Seq      uint64   // channel sequence number of the abandoned packet
	Attempts int      // transmissions attempted (1 original + retries)
	At       sim.Time // virtual time the budget ran out
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("transport: %s packet %d->%d seq=%d undeliverable after %d attempts at %v",
		e.Class, e.Src, e.Dst, e.Seq, e.Attempts, e.At)
}

// envelope frames one reliable packet: the inner transport message
// plus the sequence header the receiver ACKs and dedups on. The header
// carries the sender's incarnation epoch: a restarted node's sequence
// numbers start over at a new epoch, so they can never collide with
// packets (or receiver-side dedup state) of its previous life.
type envelope struct {
	src, dst int32
	seq      uint64 // per-(src,dst) channel sequence
	epoch    uint32 // sender incarnation the sequence belongs to
	class    fabric.Class
	wire     int // framed wire size (inner + header)
	inner    any
	span     *telemetry.Span
}

// relAck acknowledges receipt of (src,dst,seq,epoch) back to the sender.
type relAck struct {
	src, dst int32
	seq      uint64
	epoch    uint32
}

// relKey identifies one packet across the cluster.
type relKey struct {
	src, dst int32
	seq      uint64
	epoch    uint32
}

// relChan is one sender incarnation's channel: (src, dst, epoch).
type relChan struct {
	src, dst int32
	epoch    uint32
}

// dedupWin is a channel's receiver-side delivery record: every seq
// below floor has been delivered, and above holds the delivered seqs
// past it (arrivals that overtook a lost or delayed packet). Its size
// follows the channel's reordering, not its traffic.
type dedupWin struct {
	floor uint64
	above map[uint64]struct{}
}

// first records the delivery of seq, reporting false for a replay.
func (d *dedupWin) first(seq uint64) bool {
	if _, dup := d.above[seq]; dup || seq < d.floor {
		return false
	}
	if d.above == nil {
		d.above = make(map[uint64]struct{})
	}
	for d.above[seq] = struct{}{}; ; d.floor++ {
		if _, ok := d.above[d.floor]; !ok {
			return true
		}
		delete(d.above, d.floor)
	}
}

// relPacket is the sender-side retransmission state of one in-flight
// packet.
type relPacket struct {
	env     *envelope
	timer   *sim.Timer
	rto     sim.Time // current timeout (doubles per retry)
	attempt int      // retransmissions performed so far
	lastTx  sim.Time // when the latest copy went on the wire
}

// RelStats counts the reliable layer's work.
type RelStats struct {
	Retransmits   int64 // timer-driven re-injections
	DupSuppressed int64 // replayed packets discarded at the target
	Acks          int64 // acknowledgements sent
	CorruptDrops  int64 // arrivals discarded by the integrity check
	Parked        int64 // expiries deferred against a peer's restart timer
}

// reliability is the machine-wide reliable-delivery state. The
// simulation kernel serializes all access, so no locking is needed.
type reliability struct {
	m   *Machine
	cfg RelConfig

	nextSeq  map[uint64]uint64 // channel (src<<32|dst) -> next seq
	inflight map[relKey]*relPacket
	seen     map[relChan]*dedupWin // receiver-side dedup

	stats  RelStats
	failed *TransportError // first exhausted budget; ends the run
}

// EnableChaos installs the reliable-delivery layer and, when inj is
// non-nil, the fault injector. Every AM and RDMA injection is framed
// with a sequence number, ACKed by the receiver, deduplicated on
// replay, and retransmitted with exponential backoff per rc. Must be
// called before the simulation starts.
func (m *Machine) EnableChaos(inj *fault.Injector, rc RelConfig) {
	rl := &reliability{
		m:        m,
		cfg:      rc,
		nextSeq:  make(map[uint64]uint64),
		inflight: make(map[relKey]*relPacket),
		seen:     make(map[relChan]*dedupWin),
	}
	m.rel = rl
	if inj != nil {
		m.Fab.SetInjector(inj)
	}
	m.Fab.SetDeliveryHook(rl.deliver)
}

// RelStats reports the reliable layer's counters (zero when disabled).
func (m *Machine) RelStats() RelStats {
	if m.rel == nil {
		return RelStats{}
	}
	return m.rel.stats
}

// FatalError returns the transport failure that ended the run, if any.
func (m *Machine) FatalError() *TransportError {
	if m.rel == nil {
		return nil
	}
	return m.rel.failed
}

func classLabel(c fabric.Class) string {
	if c == fabric.ClassDMA {
		return "dma"
	}
	return "am"
}

// flclass maps the fabric arrival class onto the flight recorder's tag.
func flclass(c fabric.Class) flight.Class {
	if c == fabric.ClassDMA {
		return flight.ClassDMA
	}
	return flight.ClassAM
}

// wrap frames inner as the next packet of the (src,dst) channel, under
// the sender's current incarnation epoch.
func (rl *reliability) wrap(src, dst int, wire int, class fabric.Class, inner any, span *telemetry.Span) *envelope {
	ch := uint64(src)<<32 | uint64(uint32(dst))
	seq := rl.nextSeq[ch]
	rl.nextSeq[ch] = seq + 1
	return &envelope{
		src: int32(src), dst: int32(dst), seq: seq,
		epoch: rl.m.Nodes[src].Epoch,
		class: class, wire: wire + rl.cfg.HeaderBytes,
		inner: inner, span: span,
	}
}

// peerReset handles a node crash: the node's NIC lost its sender-side
// sequence counters, so every channel it originates restarts at seq 0 —
// in its new epoch, which keeps the restarted stream disjoint from the
// old one at every receiver. In-flight packets FROM the node and
// receiver-side dedup state of the old incarnation are kept: the
// simulated runtime's compute state survives the crash (a warm restart
// from checkpoint), so its outstanding operations must still complete.
func (rl *reliability) peerReset(node int) {
	for ch := range rl.nextSeq {
		if int(ch>>32) == node {
			delete(rl.nextSeq, ch)
		}
	}
}

// injectC is the kernel-callback send path (fabric.InjectC semantics:
// the caller holds src's TX through done).
func (rl *reliability) injectC(src, dst int, wire int, class fabric.Class, inner any, span *telemetry.Span, done func(arrive sim.Time)) {
	env := rl.wrap(src, dst, wire, class, inner, span)
	rl.m.Fab.InjectC(src, dst, env.wire, class, env, func(arrive sim.Time) {
		rl.track(env)
		done(arrive)
	})
}

// track registers the packet for retransmission and arms its timer.
func (rl *reliability) track(env *envelope) {
	pk := &relPacket{env: env, rto: rl.cfg.RTO, lastTx: rl.m.K.Now()}
	rl.inflight[relKey{env.src, env.dst, env.seq, env.epoch}] = pk
	rl.arm(pk)
}

func (rl *reliability) arm(pk *relPacket) {
	pk.timer = rl.m.K.AfterTimer(pk.rto, func() { rl.expire(pk) })
}

// expire handles a retransmit timeout: re-inject with doubled RTO, or
// fail the run once the budget is gone.
func (rl *reliability) expire(pk *relPacket) {
	if rl.failed != nil {
		return // the run is already aborting
	}
	m, env := rl.m, pk.env
	if du := m.Fab.DownUntil(int(env.dst)); du > m.K.Now() {
		// The peer is mid-restart: a retransmit now is guaranteed to be
		// dropped at its dead NIC, so burning retry budget on it would
		// turn every crash into a spurious TransportError. Park the
		// packet against the restart timer instead — attempt count and
		// RTO are untouched, and the real retransmit happens (and
		// records its retry phase) once the peer is back.
		rl.stats.Parked++
		if m.Tel != nil {
			m.Tel.Add("xlupc_transport_parked_total", `class="`+classLabel(env.class)+`"`, 1)
		}
		m.FR.Record(int(env.src), flight.Event{
			T: m.K.Now(), Kind: flight.KindPark, Class: flclass(env.class),
			Src: env.src, Dst: env.dst, Seq: env.seq, Arg: int64(du),
		})
		pk.timer = m.K.AfterTimer(du-m.K.Now(), func() { rl.expire(pk) })
		return
	}
	if pk.attempt >= rl.cfg.MaxRetries {
		rl.failed = &TransportError{
			Class: classLabel(env.class),
			Src:   int(env.src), Dst: int(env.dst), Seq: env.seq,
			Attempts: pk.attempt + 1, At: m.K.Now(),
		}
		if m.Tel != nil {
			m.Tel.Add("xlupc_transport_failures_total", `class="`+rl.failed.Class+`"`, 1)
		}
		m.FR.Record(int(env.src), flight.Event{
			T: m.K.Now(), Kind: flight.KindRetryFail, Class: flclass(env.class),
			Src: env.src, Dst: env.dst, Seq: env.seq, Arg: int64(pk.attempt + 1),
		})
		m.K.Stop()
		return
	}
	pk.attempt++
	pk.rto *= 2
	rl.stats.Retransmits++
	if m.Tel != nil {
		m.Tel.Add("xlupc_transport_retransmits_total", `class="`+classLabel(env.class)+`"`, 1)
	}
	m.FR.Record(int(env.src), flight.Event{
		T: m.K.Now(), Kind: flight.KindRetransmit, Class: flclass(env.class),
		Src: env.src, Dst: env.dst, Seq: env.seq, Arg: int64(pk.attempt),
	})
	env.span.Phase(telemetry.PhaseRetry, pk.lastTx, m.K.Now())
	tx := m.Fab.Port(int(env.src)).TX
	tx.AcquireC(func() {
		m.Fab.InjectC(int(env.src), int(env.dst), env.wire, env.class, env, func(sim.Time) {
			tx.Release()
			pk.lastTx = m.K.Now()
			rl.arm(pk)
		})
	})
}

// deliver is the fabric delivery hook: every physical arrival in the
// cluster lands here, in kernel context, at its arrival time.
func (rl *reliability) deliver(dst int, class fabric.Class, raw any) {
	switch v := raw.(type) {
	case fabric.Corrupted:
		// Integrity check failed: discard without ACK; the sender's
		// timer retransmits. Applies to data and ACKs alike.
		rl.stats.CorruptDrops++
		rl.m.Tel.Add("xlupc_transport_corrupt_drops_total", "", 1)
		if env, ok := v.Inner.(*envelope); ok {
			rl.m.FR.Record(dst, flight.Event{
				T: rl.m.K.Now(), Kind: flight.KindCorruptDrop, Class: flclass(env.class),
				Src: env.src, Dst: env.dst, Seq: env.seq,
			})
		} else {
			rl.m.FR.Record(dst, flight.Event{
				T: rl.m.K.Now(), Kind: flight.KindCorruptDrop,
				Src: -1, Dst: int32(dst),
			})
		}
	case *relAck:
		key := relKey{v.src, v.dst, v.seq, v.epoch}
		if pk, ok := rl.inflight[key]; ok {
			pk.timer.Cancel()
			delete(rl.inflight, key)
		} // else: duplicate or late ACK, harmless
	case *envelope:
		// Always ACK — a replay means the first ACK was lost, and only
		// a fresh one stops the sender's timer.
		rl.sendAck(v)
		ch := relChan{v.src, v.dst, v.epoch}
		d := rl.seen[ch]
		if d == nil {
			d = &dedupWin{}
			rl.seen[ch] = d
		}
		if !d.first(v.seq) {
			rl.stats.DupSuppressed++
			if rl.m.Tel != nil {
				rl.m.Tel.Add("xlupc_transport_dup_suppressed_total", `class="`+classLabel(v.class)+`"`, 1)
			}
			rl.m.FR.Record(dst, flight.Event{
				T: rl.m.K.Now(), Kind: flight.KindDupSuppress, Class: flclass(v.class),
				Src: v.src, Dst: v.dst, Seq: v.seq,
			})
			return
		}
		port := rl.m.Fab.Port(dst)
		if v.class == fabric.ClassDMA {
			port.DMA.Push(v.inner)
		} else {
			port.AM.Push(v.inner)
		}
	default:
		panic(fmt.Sprintf("transport: node %d: unframed arrival %T under reliable delivery", dst, raw))
	}
}

// sendAck returns an acknowledgement for env to its sender, competing
// for the receiving node's TX port like any other injection. The ACK
// itself crosses the faulty fabric (droppable, corruptible); a lost
// ACK costs one retransmission, which dedup absorbs.
func (rl *reliability) sendAck(env *envelope) {
	rl.stats.Acks++
	ack := &relAck{src: env.src, dst: env.dst, seq: env.seq, epoch: env.epoch}
	m := rl.m
	m.FR.Record(int(env.dst), flight.Event{
		T: m.K.Now(), Kind: flight.KindAck, Class: flclass(env.class),
		Src: env.src, Dst: env.dst, Seq: env.seq,
	})
	tx := m.Fab.Port(int(env.dst)).TX
	tx.AcquireC(func() {
		m.Fab.InjectC(int(env.dst), int(env.src), m.Prof.AckBytes, fabric.ClassDMA, ack, func(sim.Time) {
			tx.Release()
		})
	})
}
