package core

import (
	"fmt"

	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/transport"
)

// allocCPUCost models the local bookkeeping of creating a shared
// object: SVD update plus heap allocation.
const allocCPUCost = 2 * sim.Us

// allocNotify is broadcast when a thread allocates non-collectively:
// every replica registers the control block and allocates its piece
// (paper §2.1: "each thread updates its own partition, and sends
// notifications to other threads").
type allocNotify struct {
	H        svd.Handle
	Kind     svd.Kind
	Name     string
	ElemSize int
	Block    int64
	NumElems int64
	Home     int // -1: block-cyclic; otherwise upc_alloc home thread
}

// freeReq asks a node to drop an object: eagerly invalidate its
// address-cache entries, deregister and free the local piece, and mark
// the handle freed.
type freeReq struct {
	H    svd.Handle
	Acks *sim.Counter
}

type freeAck struct {
	Acks *sim.Counter
}

// installArray registers the control block for layout l on node ns and
// allocates the node's chunk if it owns part of the object.
func (ns *nodeState) installArray(h svd.Handle, kind svd.Kind, name string, l Layout) *svd.ControlBlock {
	cb := &svd.ControlBlock{
		Handle:   h,
		Kind:     kind,
		Name:     name,
		ElemSize: l.ElemSize,
		Block:    l.Block,
		NumElems: l.NumElems,
	}
	if size := l.NodeChunkBytes(ns.id); size > 0 {
		cb.HasLocal = true
		cb.LocalSize = int(size)
		cb.LocalBase = ns.tn.Mem.Alloc(int(size))
	}
	ns.dir.Register(cb)
	return cb
}

// AllAlloc is upc_all_alloc: a collective allocation of a shared array
// of numElems elements of elemSize bytes, distributed block-cyclically
// with the given block size (elements per block; <=0 means indefinite,
// everything affine to thread 0). All threads must call it with the
// same arguments; all receive the same array.
func (t *Thread) AllAlloc(name string, numElems int64, elemSize int, block int64) *SharedArray {
	return t.AllAllocKind(svd.KindArray, name, numElems, elemSize, block)
}

// AllAllocKind is AllAlloc with an explicit SVD object kind, so layers
// above the runtime (internal/kv) can label their segments distinctly
// in every replica's directory.
func (t *Thread) AllAllocKind(kind svd.Kind, name string, numElems int64, elemSize int, block int64) *SharedArray {
	var a *SharedArray
	t.AllAllocKindC(kind, name, numElems, elemSize, block, func(r *SharedArray) {
		a = r
		t.wake()
	})
	t.p.Suspend()
	return a
}

// GlobalAlloc is upc_global_alloc: a single thread allocates a
// distributed shared array; the handle lands in the caller's SVD
// partition and allocation notifications fan out asynchronously. As in
// UPC, other threads may only use the result after synchronization
// (the runtime tolerates in-flight notifications by retrying, but the
// program should synchronize).
func (t *Thread) GlobalAlloc(name string, numElems int64, elemSize int, block int64) *SharedArray {
	if numElems <= 0 || elemSize <= 0 {
		panic(fmt.Sprintf("core: GlobalAlloc(%s) with nonpositive size", name))
	}
	span := t.rt.tel.StartSpan("alloc", t.id, t.ns.id, t.p.Now())
	span.SetProto("global")
	defer func() { span.Finish(t.p.Now()) }()
	l := t.rt.layout(elemSize, block, numElems)
	h := svd.Handle{Part: int32(t.id), Index: t.ns.dir.NextIndex(int32(t.id))}
	t.Compute(allocCPUCost)
	t.ns.installArray(h, svd.KindArray, name, l)
	a := &SharedArray{rt: t.rt, h: h, l: l, name: name}
	note := &allocNotify{H: h, Kind: svd.KindArray, Name: name,
		ElemSize: elemSize, Block: a.l.Block, NumElems: numElems, Home: -1}
	for n := 0; n < t.rt.cfg.Nodes; n++ {
		if n != t.ns.id {
			t.rt.M.SendAM(t.p, t.ns.id, n, hAllocNotify, note, nil, 32)
		}
	}
	return a
}

// LocalAlloc is upc_alloc: shared space with affinity entirely to the
// calling thread. Remote threads can access it through the SVD like
// any shared object.
func (t *Thread) LocalAlloc(name string, numElems int64, elemSize int) *SharedArray {
	if numElems <= 0 || elemSize <= 0 {
		panic(fmt.Sprintf("core: LocalAlloc(%s) with nonpositive size", name))
	}
	span := t.rt.tel.StartSpan("alloc", t.id, t.ns.id, t.p.Now())
	span.SetProto("local")
	defer func() { span.Finish(t.p.Now()) }()
	l := t.rt.layout(elemSize, numElems, numElems)
	l.Home = t.id
	h := svd.Handle{Part: int32(t.id), Index: t.ns.dir.NextIndex(int32(t.id))}
	t.Compute(allocCPUCost)
	t.ns.installArray(h, svd.KindArray, name, l)
	a := &SharedArray{rt: t.rt, h: h, l: l, name: name}
	note := &allocNotify{H: h, Kind: svd.KindArray, Name: name,
		ElemSize: elemSize, Block: l.Block, NumElems: numElems, Home: t.id}
	for n := 0; n < t.rt.cfg.Nodes; n++ {
		if n != t.ns.id {
			t.rt.M.SendAM(t.p, t.ns.id, n, hAllocNotify, note, nil, 32)
		}
	}
	return a
}

// layout builds the run's layout for an allocation request.
func (rt *Runtime) layout(elemSize int, block, numElems int64) Layout {
	return NewLayout(rt.cfg.Threads, rt.cfg.ThreadsPerNode(), elemSize, block, numElems)
}

// Free is upc_free: deallocates a shared object. The paper's protocol
// is eager — before memory is released and may be reused, every node
// drops its address-cache entries for the object and deregisters its
// piece; the caller blocks until all nodes acknowledge, so no stale
// RDMA can land in recycled memory. The program must quiesce accesses
// to the object first (fence + barrier), as UPC requires.
func (t *Thread) Free(a *SharedArray) {
	t.FreeC(a, t.wake)
	t.p.Suspend()
}

// dropObject performs the local part of a free on node ns, from the
// process p (a dispatcher serving a remote free request).
func (ns *nodeState) dropObject(p *sim.Proc, h svd.Handle) {
	ns.dropObjectC(p.Cont(), h, p.WakeFn())
	p.Suspend()
}

func (rt *Runtime) handleAllocNotify(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*allocNotify)
	l := rt.layout(m.ElemSize, m.Block, m.NumElems)
	l.Home = m.Home
	p.Sleep(allocCPUCost)
	ns.installArray(m.H, m.Kind, m.Name, l)
}

func (rt *Runtime) handleFreeReq(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	ns := rt.nodes[n.ID]
	m := msg.Meta.(*freeReq)
	if _, ok := ns.dir.LookupAny(m.H); !ok {
		// Allocation notify still in flight; retry shortly.
		port := rt.M.Fab.Port(ns.id)
		msg.Retain() // redelivered below; the dispatcher must not recycle it
		rt.K.After(200*sim.Ns, func() { port.AM.Push(msg) })
		return
	}
	ns.dropObject(p, m.H)
	rt.M.ReplyAM(p, n.ID, msg.Src, hFreeAck, &freeAck{Acks: m.Acks}, nil, 0)
}

func (rt *Runtime) handleFreeAck(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	msg.Meta.(*freeAck).Acks.Arrive()
}

// isNodeRep reports whether this thread is its node's representative
// (the lowest thread id on the node).
func (t *Thread) isNodeRep() bool {
	return t.id%t.rt.cfg.ThreadsPerNode() == 0
}
