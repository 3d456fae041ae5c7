package transport

// Free-lists for the per-operation descriptor structs on the hot
// paths: active messages and RDMA descriptors. Pooling is enabled only
// while the reliable-delivery layer is off (m.rel == nil): the
// reliable layer retains injected envelopes for retransmission and its
// fault injector can deliver the same pointer twice, so a descriptor's
// lifetime is unbounded there. Without it every injected object is
// delivered exactly once and consumed by exactly one service chain,
// whose end is the single safe recycling point. The gate is checked on
// both alloc and free, so enabling chaos mid-setup simply strands the
// pool (never corrupts it) — EnableChaos must in any case run before
// traffic starts.
type pools struct {
	msgs    []*Msg
	gets    []*dmaGet
	puts    []*dmaPut
	atomics []*dmaAtomic
	resps   []*dmaResp

	// Initiator state machines and blocking-call result records (see
	// cont.go). These hold no injected object, so they are safe to pool
	// even under the reliable layer.
	xfers []*xferOp
	calls []*procCall
}

// Retain marks the message as requeued by its handler: the dispatcher
// must not recycle it after the handler returns, because the handler
// scheduled it for redelivery (the SVD-miss retry path). The flag is
// consumed by the dispatcher, so the message is again eligible for
// recycling after its next service.
func (m *Msg) Retain() { m.retained = true }

func (m *Machine) newMsg() *Msg {
	if m.rel == nil {
		if n := len(m.pool.msgs); n > 0 {
			msg := m.pool.msgs[n-1]
			m.pool.msgs = m.pool.msgs[:n-1]
			return msg
		}
	}
	return &Msg{}
}

// freeMsg recycles a fully served message. Payload and Meta escape into
// completion values and handler state routinely; only the Msg struct
// itself is pooled, so those references stay valid.
func (m *Machine) freeMsg(msg *Msg) {
	if m.rel != nil {
		return
	}
	*msg = Msg{}
	m.pool.msgs = append(m.pool.msgs, msg)
}

func (m *Machine) newDMAGet() *dmaGet {
	if m.rel == nil {
		if n := len(m.pool.gets); n > 0 {
			op := m.pool.gets[n-1]
			m.pool.gets = m.pool.gets[:n-1]
			return op
		}
	}
	return &dmaGet{}
}

func (m *Machine) freeDMAGet(op *dmaGet) {
	if m.rel != nil {
		return
	}
	*op = dmaGet{}
	m.pool.gets = append(m.pool.gets, op)
}

func (m *Machine) newDMAPut() *dmaPut {
	if m.rel == nil {
		if n := len(m.pool.puts); n > 0 {
			op := m.pool.puts[n-1]
			m.pool.puts = m.pool.puts[:n-1]
			return op
		}
	}
	return &dmaPut{}
}

func (m *Machine) freeDMAPut(op *dmaPut) {
	if m.rel != nil {
		return
	}
	*op = dmaPut{}
	m.pool.puts = append(m.pool.puts, op)
}

func (m *Machine) newDMAResp() *dmaResp {
	if m.rel == nil {
		if n := len(m.pool.resps); n > 0 {
			op := m.pool.resps[n-1]
			m.pool.resps = m.pool.resps[:n-1]
			return op
		}
	}
	return &dmaResp{}
}

func (m *Machine) freeDMAResp(op *dmaResp) {
	if m.rel != nil {
		return
	}
	*op = dmaResp{}
	m.pool.resps = append(m.pool.resps, op)
}
