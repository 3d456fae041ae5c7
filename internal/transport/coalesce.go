package transport

import (
	"fmt"

	"xlupc/internal/fabric"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// CoalConfig parameterizes per-destination small-message coalescing:
// instead of paying a full header, injection and doorbell per eager AM
// or RDMA descriptor, outgoing operations park in a per-(src,dst)
// buffer and travel in one wire frame — the paper's §6 "per-message
// software overhead" left on the table, and the doorbell batching that
// makes small RDMA ops cheap on modern NICs.
type CoalConfig struct {
	// MaxOps flushes a buffer once it holds this many operations.
	MaxOps int
	// MaxBytes flushes once the buffered sub-frames reach this size.
	MaxBytes int
	// FlushDelay bounds the time an operation may sit in a buffer: a
	// cancellable virtual-time timer flushes whatever accumulated. Zero
	// disables the timer (explicit sync/fence flushes only).
	FlushDelay sim.Time
	// SubHeaderBytes is the per-operation framing inside a batch frame,
	// replacing the full AMHeaderBytes each message would have paid.
	SubHeaderBytes int
	// AppendCost is the initiator CPU time to append one operation to a
	// buffer (descriptor build into the staged doorbell write).
	AppendCost sim.Time
	// SubRecvOverhead is the target-side handler entry cost per
	// sub-message of a batch; the full RecvOverhead is paid once per
	// frame.
	SubRecvOverhead sim.Time
}

// DefaultCoalConfig returns the deployed coalescing parameters.
func DefaultCoalConfig() CoalConfig {
	return CoalConfig{
		MaxOps:          16,
		MaxBytes:        4096,
		FlushDelay:      3 * sim.Us,
		SubHeaderBytes:  16,
		AppendCost:      150 * sim.Ns,
		SubRecvOverhead: 300 * sim.Ns,
	}
}

// withDefaults fills unset fields from DefaultCoalConfig.
func (c CoalConfig) withDefaults() CoalConfig {
	d := DefaultCoalConfig()
	if c.MaxOps <= 0 {
		c.MaxOps = d.MaxOps
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = d.MaxBytes
	}
	if c.SubHeaderBytes <= 0 {
		c.SubHeaderBytes = d.SubHeaderBytes
	}
	return c
}

// CoalStats counts the coalescer's work.
type CoalStats struct {
	Msgs         int64 // operations routed through the coalescer
	Frames       int64 // wire frames injected
	SizeFlushes  int64 // flushes forced by MaxOps/MaxBytes
	TimerFlushes int64 // flushes by the virtual-time backstop
	SyncFlushes  int64 // explicit flushes (Sync, fence, end of batch service)
	SavedBytes   int64 // header bytes the batching kept off the wire
}

// batchMsg is one coalesced active-message frame: several logical AMs
// sharing a single header, injection and delivery event.
type batchMsg struct {
	Src, Dst int
	msgs     []*Msg
	wire     int
	sent     sim.Time
	arrived  sim.Time
}

// dmaFrame is one coalesced doorbell write: several RDMA descriptors
// delivered to the target DMA engine as a single arrival.
type dmaFrame struct {
	ops  []any // *dmaGet / *dmaPut / *dmaAtomic
	wire int
}

// BatchScratch is per-batch shared state the target-side handlers of
// one frame's sub-messages may accumulate into (the runtime uses it to
// collect (handle, base) pairs so one reply pre-populates several
// address-cache entries).
type BatchScratch struct{ Val any }

type coalKey struct {
	src, dst int
	class    fabric.Class
}

// coalBuf is one (src,dst,class) coalescing buffer.
type coalBuf struct {
	key    coalKey
	ops    []any // *Msg for AM, *dmaGet/*dmaPut for DMA
	spans  []*telemetry.Span
	queued []sim.Time
	bytes  int // accumulated sub-frame wire bytes
	timer  *sim.Timer
	closed bool // flushed; late appends must go direct
}

// coalescer owns every buffer of a machine plus the reply batch open
// during batch service.
type coalescer struct {
	m     *Machine
	cfg   CoalConfig
	bufs  map[coalKey]*coalBuf
	stats CoalStats

	// Pooled appendCont and FlushCoalescedC states.
	appends []*coalAppend
	flushes []*flushAll
}

// EnableCoalescing turns on per-destination message coalescing. Must be
// called before the simulation starts; when never called the machine's
// event stream is bit-identical to a build without this file.
func (m *Machine) EnableCoalescing(cfg CoalConfig) {
	if m.coal != nil {
		panic("transport: EnableCoalescing called twice")
	}
	m.coal = &coalescer{m: m, cfg: cfg.withDefaults(), bufs: make(map[coalKey]*coalBuf)}
}

// CoalesceEnabled reports whether the machine coalesces small messages.
func (m *Machine) CoalesceEnabled() bool { return m.coal != nil }

// CoalStats reports the coalescer's counters (zero value when off).
func (m *Machine) CoalStats() CoalStats {
	if m.coal == nil {
		return CoalStats{}
	}
	return m.coal.stats
}

// buf returns (creating if needed) the buffer for key, arming the
// flush-timer backstop on first use.
func (c *coalescer) buf(key coalKey) *coalBuf {
	b, ok := c.bufs[key]
	if !ok {
		b = &coalBuf{key: key}
		c.bufs[key] = b
	}
	return b
}

// take detaches a buffer for flushing: cancels its timer, removes it
// from the map and marks it closed so a reference kept by a requeued
// message falls back to the direct path.
func (c *coalescer) take(b *coalBuf) bool {
	if b.closed || len(b.ops) == 0 {
		return false
	}
	if b.timer != nil {
		b.timer.Cancel()
		b.timer = nil
	}
	b.closed = true
	if c.bufs[b.key] == b { // reply buffers never enter the map
		delete(c.bufs, b.key)
	}
	return true
}

// frame assembles the detached buffer's wire frame and accounts for the
// header bytes batching saved versus individual sends.
func (c *coalescer) frame(b *coalBuf) (any, int) {
	n := len(b.ops)
	var frame any
	var wire, unbatched int
	if b.key.class == fabric.ClassAM {
		msgs := make([]*Msg, n)
		for i, op := range b.ops {
			msgs[i] = op.(*Msg)
		}
		wire = c.m.Prof.AMHeaderBytes + b.bytes
		// Each sub-frame replaced a full AM header with SubHeaderBytes.
		unbatched = wire + n*(c.m.Prof.AMHeaderBytes-c.cfg.SubHeaderBytes) - c.m.Prof.AMHeaderBytes
		frame = &batchMsg{Src: b.key.src, Dst: b.key.dst, msgs: msgs, wire: wire}
	} else {
		// A doorbell batch: descriptors share one frame and one arrival;
		// the bytes are the descriptors themselves.
		wire = b.bytes
		unbatched = wire
		frame = &dmaFrame{ops: b.ops, wire: wire}
	}
	c.stats.Frames++
	c.stats.SavedBytes += int64(unbatched - wire)
	c.m.Tel.Add("xlupc_coalesce_frames_total", "", 1)
	c.m.Tel.Add("xlupc_coalesce_saved_bytes_total", "", int64(unbatched-wire))
	c.m.FR.Record(b.key.src, flight.Event{
		T: c.m.K.Now(), Kind: flight.KindCoalFlush, Class: flclass(b.key.class),
		Src: int32(b.key.src), Dst: int32(b.key.dst),
		Seq: uint64(c.stats.Frames), Arg: int64(n),
	})
	return frame, wire
}

// noteFlush records one flush under its trigger.
func (c *coalescer) noteFlush(reason string) {
	switch reason {
	case "size":
		c.stats.SizeFlushes++
	case "timer":
		c.stats.TimerFlushes++
	default:
		c.stats.SyncFlushes++
	}
	c.m.Tel.Add("xlupc_coalesce_flushes_total", `reason="`+reason+`"`, 1)
}

// stamp records the coalesce-flush phase (buffer residency) and the
// injection times on the frame and every sub-operation of a flushed
// buffer.
func (b *coalBuf) stamp(frame any, flushStart, sent, arrived sim.Time) {
	if bm, ok := frame.(*batchMsg); ok {
		bm.sent, bm.arrived = sent, arrived
	}
	for i, span := range b.spans {
		span.Phase(telemetry.PhaseCoalFlush, b.queued[i], flushStart)
	}
	for _, op := range b.ops {
		stampWire(op, sent, arrived)
	}
}

// flushC is the timer-fired flush: kernel context, no process to
// charge — the NIC fires the staged doorbell itself.
func (c *coalescer) flushC(b *coalBuf) {
	if !c.take(b) {
		return
	}
	c.noteFlush("timer")
	flushStart := c.m.K.Now()
	frame, wire := c.frame(b)
	tx := c.m.Fab.Port(b.key.src).TX
	tx.AcquireC(func() {
		finish := func(arrived sim.Time) {
			tx.Release()
			b.stamp(frame, flushStart, c.m.K.Now(), arrived)
		}
		if rl := c.m.rel; rl != nil {
			rl.injectC(b.key.src, b.key.dst, wire, b.key.class, frame, nil, finish)
			return
		}
		c.m.Fab.InjectC(b.key.src, b.key.dst, wire, b.key.class, frame, finish)
	})
}

// ReplyToSpan replies to req from inside its handler. While req is
// being served as part of a batch frame, the reply joins the batch's
// reply buffer — the target answers a coalesced frame with one
// coalesced frame — and otherwise (or with coalescing off) it is an
// ordinary reply.
func (m *Machine) ReplyToSpan(p *sim.Proc, req *Msg, id HandlerID, meta any, payload []byte, extra int, span *telemetry.Span) {
	c := m.coal
	if c == nil || req.reply == nil || req.reply.closed {
		m.SendAMSpan(p, req.Dst, req.Src, id, meta, payload, extra, span)
		return
	}
	b := req.reply
	m.amCount++
	sub := c.cfg.SubHeaderBytes + len(payload) + extra
	msg := m.newMsg()
	msg.Src, msg.Dst, msg.Handler, msg.Meta, msg.Payload = b.key.src, b.key.dst, id, meta, payload
	msg.wire = sub
	msg.Span = span
	// No timer on reply buffers: the dispatcher flushes when the batch
	// is fully served, so replies never linger.
	p.Sleep(c.cfg.AppendCost)
	b.ops = append(b.ops, msg)
	b.spans = append(b.spans, span)
	b.queued = append(b.queued, p.Now())
	b.bytes += sub
	c.stats.Msgs++
	m.Tel.Add("xlupc_coalesce_msgs_total", "", 1)
}

// serveBatch dispatches every sub-message of a coalesced frame under a
// single Comm acquisition: the frame pays the full receive overhead
// once, each sub-message only the smaller per-op entry cost. Replies
// the handlers issue toward the frame's origin coalesce into one reply
// frame, flushed when service ends.
func (m *Machine) serveBatch(p *sim.Proc, nd *Node, b *batchMsg) {
	c := m.coal
	if c == nil {
		panic(fmt.Sprintf("transport: node %d received a batch frame with coalescing off", nd.ID))
	}
	reply := &coalBuf{key: coalKey{src: nd.ID, dst: b.Src, class: fabric.ClassAM}}
	scratch := &BatchScratch{}
	acq := p.Now()
	nd.Comm.Acquire(p)
	recv := p.Now()
	p.Sleep(m.Prof.RecvOverhead)
	for _, msg := range b.msgs {
		h := m.handlers[msg.Handler]
		if h == nil {
			panic(fmt.Sprintf("transport: node %d: no handler %d", nd.ID, msg.Handler))
		}
		msg.Span.Phase(telemetry.PhaseWire, b.sent, b.arrived)
		msg.Span.Phase(telemetry.PhaseCPUWait, b.arrived, acq)
		msg.Span.Phase(telemetry.PhaseCPUWait, acq, recv)
		t0 := p.Now()
		p.Sleep(c.cfg.SubRecvOverhead)
		msg.Span.Phase(telemetry.PhaseRecv, recv, recv+m.Prof.RecvOverhead)
		msg.Span.Phase(telemetry.PhaseRecv, t0, p.Now())
		msg.reply = reply
		msg.Batch = scratch
		msg.sent, msg.arrived = b.sent, b.arrived
		h(p, nd, msg)
		msg.reply = nil
		if msg.retained {
			msg.retained = false // will recycle after redelivery
		} else {
			m.freeMsg(msg)
		}
	}
	if len(reply.ops) > 0 {
		c.flushCont(p.Cont(), reply, "sync", p.WakeFn())
		p.Suspend()
	} else {
		reply.closed = true
	}
	nd.Comm.Release()
}
