package core

import (
	"fmt"

	"xlupc/internal/addrcache"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// cacheKey builds the address-cache key for an object on a node.
func cacheKey(h svd.Handle, node int) addrcache.Key {
	return addrcache.Key{Handle: h.Key(), Node: int32(node)}
}

// piggybackBytes is the wire cost of carrying a remote base address on
// a reply or ACK.
const piggybackBytes = 8

// maxPiggybackPairs caps how many extra (handle, base) pairs one reply
// of a coalesced frame may carry beyond its own, bounding the
// piggyback bytes a batch of misses adds to the wire.
const maxPiggybackPairs = 4

// addrPair is one piggybacked (handle, base) correlation, stamped with
// the advertising node's incarnation epoch. Replies serviced from the
// same coalesced frame share the pairs they pinned, so a single batch
// of misses pre-populates several cache entries at the initiator. The
// epoch rides inside the existing piggybackBytes wire accounting (a
// simulation fiction: a real header would pack it into the address's
// spare bits), so enabling the crash machinery changes no wire sizes.
type addrPair struct {
	H     svd.Handle
	Base  mem.Addr
	Epoch uint32
}

// pairsFor shares a freshly advertised (handle, base, epoch) pair with
// the other replies of the same coalesced frame and collects the pairs
// this reply should carry (its own base travels in the reply header,
// not here). extra is the total piggyback wire cost. For individual
// messages (no frame scratch) it degenerates to the original
// single-address accounting.
func pairsFor(msg *transport.Msg, h svd.Handle, base mem.Addr, epoch uint32) (pairs []addrPair, extra int) {
	if base != 0 {
		extra = piggybackBytes
	}
	if msg.Batch == nil {
		return nil, extra
	}
	if msg.Batch.Val == nil {
		msg.Batch.Val = &[]addrPair{}
	}
	acc := msg.Batch.Val.(*[]addrPair)
	if base != 0 {
		known := false
		for _, pr := range *acc {
			if pr.H == h {
				known = true
				break
			}
		}
		if !known && len(*acc) < maxPiggybackPairs {
			*acc = append(*acc, addrPair{H: h, Base: base, Epoch: epoch})
		}
	}
	for _, pr := range *acc {
		if pr.H == h {
			continue
		}
		pairs = append(pairs, pr)
		extra += piggybackBytes
	}
	return pairs, extra
}

// --- Protocol message headers ------------------------------------------

// getReq asks the target to read Size bytes at chunk offset Off of H
// and reply with the data (the default, non-RDMA GET of Figure 3a/5).
type getReq struct {
	H        svd.Handle
	Off      int64
	Size     int
	WantAddr bool            // piggyback the base address on the reply
	Done     *sim.Completion // initiator-side; completed by the reply
}

// getRep carries the data (as payload) and optionally the base address
// back to the initiator.
type getRep struct {
	H     svd.Handle
	Base  mem.Addr // 0: not piggybacked (pin failed or WantAddr false)
	Epoch uint32   // target incarnation that advertised Base
	Done  *sim.Completion
	Pairs []addrPair // extra piggybacked addresses from the same frame
}

// putReq carries PUT data (as payload) to the target.
type putReq struct {
	H        svd.Handle
	Off      int64
	WantAddr bool
	Fence    *sim.Counter    // initiator thread's fence; Arrives on ACK
	Done     *sim.Completion // split-phase handle; nil for blocking PUTs
}

// putAck acknowledges a PUT, optionally piggybacking the base address
// (the paper populates the cache "either on the data stream or on the
// ACK message").
type putAck struct {
	H     svd.Handle
	Base  mem.Addr
	Epoch uint32
	Fence *sim.Counter
	Done  *sim.Completion
	Pairs []addrPair
}

// rts is the rendezvous request-to-send for large transfers: the
// target translates and pins, then answers with an rtr carrying the
// base address so the transfer itself is zero-copy RDMA.
type rts struct {
	H    svd.Handle
	Size int
	Done *sim.Completion // completed with rtrResult at the initiator
}

type rtr struct {
	H     svd.Handle
	Base  mem.Addr
	Epoch uint32
	OK    bool // pinning succeeded; false forces the eager fallback
	Done  *sim.Completion
}

type rtrResult struct {
	base  mem.Addr
	epoch uint32
	ok    bool
}

// --- Target-side handlers ----------------------------------------------

// pinChunk applies the greedy pin-everything policy on first remote
// access: the whole local chunk of the object is registered at once.
// It returns the (base address, incarnation epoch) pair to advertise —
// base 0 if pinning failed (registration limits) — and charges the
// registration cost to the dispatcher (the target CPU on
// non-overlapping transports).
func (ns *nodeState) pinChunk(p *sim.Proc, cb *svd.ControlBlock) (mem.Addr, uint32) {
	if !cb.HasLocal {
		panic(fmt.Sprintf("core: node %d asked to pin %v, which it does not own", ns.id, cb.Handle))
	}
	cost, err := ns.tn.Pins.Pin(cb.LocalBase, cb.LocalSize, cb.Handle.Key(), p.Now())
	// Capture the advertised pair before sleeping the registration cost:
	// a crash mid-sleep relocates the chunk and bumps the epoch together,
	// so the initiator receives a coherent stale (base, epoch) — which
	// heals through a clean stale-NACK — never a fresh base under an old
	// epoch or vice versa.
	base, epoch := cb.LocalBase, ns.tn.Epoch
	if cost > 0 {
		p.Sleep(cost)
	}
	if err != nil {
		return 0, epoch
	}
	return base, epoch
}

func (rt *Runtime) handleGetReq(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*getReq)
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
	// Eager reply: the data is copied into a (pre-registered) bounce
	// buffer before injection — the copy cost that RDMA avoids.
	t0 = p.Now()
	p.Sleep(sim.BytesTime(m.Size, rt.cfg.Profile.CopyByteTime))
	msg.Span.Phase(telemetry.PhaseCopy, t0, p.Now())
	data := n.Mem.ReadAlloc(cb.LocalBase+mem.Addr(m.Off), m.Size)
	pairs, extra := pairsFor(msg, m.H, base, epoch)
	rt.M.ReplyToSpan(p, msg, hGetRep, &getRep{H: m.H, Base: base, Epoch: epoch, Done: m.Done, Pairs: pairs}, data, extra, msg.Span)
}

func (rt *Runtime) handleGetRep(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*getRep)
	// Copy out of the receive bounce buffer.
	t0 := p.Now()
	p.Sleep(sim.BytesTime(len(msg.Payload), rt.cfg.Profile.CopyByteTime))
	msg.Span.Phase(telemetry.PhaseCopy, t0, p.Now())
	rt.insertPiggyback(p, ns, msg.Src, m.H, m.Base, m.Epoch, m.Pairs, msg.Span)
	m.Done.CompleteBytes(msg.Payload)
}

// insertPiggyback fills the initiator's cache from a reply's
// piggybacked addresses: the replier's own (handle, base), exactly as
// the blocking protocol always has, plus any extra pairs accumulated
// across the sub-messages of a coalesced frame. Every new entry pays
// the insert cost; pairs already resident (an earlier reply of the same
// frame filled them) are skipped without charge.
func (rt *Runtime) insertPiggyback(p *sim.Proc, ns *nodeState, src int, own svd.Handle, base mem.Addr, epoch uint32, pairs []addrPair, span *telemetry.Span) {
	if ns.cache == nil || (base == 0 && len(pairs) == 0) {
		return
	}
	t0 := p.Now()
	if base != 0 {
		p.Sleep(rt.cfg.Profile.CacheInsertCost)
		ns.cache.InsertEpoch(cacheKey(own, src), base, epoch)
	}
	for _, pr := range pairs {
		if pr.Base == 0 || pr.H == own {
			continue
		}
		k := cacheKey(pr.H, src)
		if ns.cache.Contains(k) {
			continue
		}
		p.Sleep(rt.cfg.Profile.CacheInsertCost)
		ns.cache.InsertEpoch(k, pr.Base, pr.Epoch)
	}
	span.Phase(telemetry.PhaseCacheInsert, t0, p.Now())
}

func (rt *Runtime) handlePutReq(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*putReq)
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
	// Copy from the receive bounce buffer into place.
	t0 = p.Now()
	p.Sleep(sim.BytesTime(len(msg.Payload), rt.cfg.Profile.CopyByteTime))
	msg.Span.Phase(telemetry.PhaseCopy, t0, p.Now())
	n.Mem.Write(cb.LocalBase+mem.Addr(m.Off), msg.Payload)
	pairs, extra := pairsFor(msg, m.H, base, epoch)
	rt.M.ReplyToSpan(p, msg, hPutAck,
		&putAck{H: m.H, Base: base, Epoch: epoch, Fence: m.Fence, Done: m.Done, Pairs: pairs}, nil, extra, msg.Span)
}

func (rt *Runtime) handlePutAck(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*putAck)
	rt.insertPiggyback(p, ns, msg.Src, m.H, m.Base, m.Epoch, m.Pairs, msg.Span)
	m.Fence.Arrive()
	if m.Done != nil {
		m.Done.Complete(nil)
	}
}

func (rt *Runtime) handleRTS(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*rts)
	t0 := p.Now()
	cb, requeued := ns.resolve(p, m.H, msg)
	if requeued {
		return
	}
	msg.Span.Phase(telemetry.PhaseSVDResolve, t0, p.Now())
	t0 = p.Now()
	base, epoch := ns.pinChunk(p, cb) // rendezvous always registers
	msg.Span.Phase(telemetry.PhaseRegistration, t0, p.Now())
	rt.M.ReplyAMSpan(p, n.ID, msg.Src, hRTR,
		&rtr{H: m.H, Base: base, Epoch: epoch, OK: base != 0, Done: m.Done}, nil, piggybackBytes, msg.Span)
}

func (rt *Runtime) handleRTR(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*rtr)
	if m.OK && ns.cache != nil {
		t0 := p.Now()
		p.Sleep(rt.cfg.Profile.CacheInsertCost)
		ns.cache.InsertEpoch(cacheKey(m.H, msg.Src), m.Base, m.Epoch)
		msg.Span.Phase(telemetry.PhaseCacheInsert, t0, p.Now())
	}
	m.Done.Complete(rtrResult{base: m.Base, epoch: m.Epoch, ok: m.OK})
}

// watchPut completes an asynchronous RDMA PUT under the thread's
// fence (and, for split-phase PUTs, under the handle's completion). A
// NACK (the limited-pinning policy deregistered the region mid-flight)
// drops the stale cache entry and reissues the write over the
// active-message path from a helper process; neither the fence nor the
// handle releases until the retry's ACK lands, so fence semantics
// survive eviction races. A stale-epoch NACK (the target restarted)
// first flushes every cached address for the node, then retries with
// WantAddr so the ACK re-piggybacks the fresh base — or aborts the run
// under CrashFail.
func (t *Thread) watchPut(remote *sim.Completion, a *SharedArray, rn int, off int64, data []byte, span *telemetry.Span, done *sim.Completion) {
	f := t.fence
	remote.Then(func(v any) {
		nk, isNack := v.(transport.Nack)
		if !isNack {
			f.Arrive()
			if done != nil {
				done.Complete(nil)
			}
			return
		}
		prof := t.rt.cfg.Profile
		if nk.Stale {
			// Runs in kernel-callback context: the invalidation sweep and
			// its cost move into the helper process.
			if t.rt.staleAbort(rn, nk.Epoch, "put", t.rt.K.Now()) {
				return
			}
			t.rt.tel.Add("xlupc_put_retries_total", `reason="stale_epoch"`, 1)
			t.rt.K.Spawn(fmt.Sprintf("put-stale-retry %d", t.id), func(p *sim.Proc) {
				t0 := p.Now()
				n := t.ns.cache.InvalidateNode(int32(rn))
				if n > 0 {
					p.Sleep(sim.Time(n) * prof.CacheLookupCost)
				}
				span.Phase(telemetry.PhaseEpochRecovery, t0, p.Now())
				t.rt.staleInvalidated += int64(n)
				t.rt.tel.Add("xlupc_stale_recoveries_total", `op="put"`, 1)
				t.rt.recordCacheInval(t.ns.id, rn, uint64(nk.Epoch), n)
				p.Sleep(sim.BytesTime(len(data), prof.CopyByteTime))
				t.rt.M.SendAMSpan(p, t.ns.id, rn, hPutReq,
					&putReq{H: a.h, Off: off, WantAddr: t.ns.cache != nil, Fence: f, Done: done}, data, 0, span)
			})
			return
		}
		if t.ns.cache != nil {
			t.ns.cache.Remove(cacheKey(a.h, rn))
		}
		t.rt.tel.Add("xlupc_put_retries_total", `reason="nack"`, 1)
		t.rt.K.Spawn(fmt.Sprintf("put-retry %d", t.id), func(p *sim.Proc) {
			p.Sleep(sim.BytesTime(len(data), prof.CopyByteTime))
			t.rt.M.SendAMSpan(p, t.ns.id, rn, hPutReq,
				&putReq{H: a.h, Off: off, WantAddr: false, Fence: f, Done: done}, data, 0, span)
		})
	})
}
