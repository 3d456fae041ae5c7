package core

import (
	"xlupc/internal/sim"
	"xlupc/internal/trace"
	"xlupc/internal/transport"
)

// The runtime's barrier is hierarchical, matching the hybrid design:
// threads of a node combine in shared memory first, then one
// representative per node runs a dissemination barrier (ceil(log2 n)
// rounds of point-to-point messages) across nodes, and finally the
// representative releases its co-located threads. Dissemination keeps
// the critical path logarithmic — a flat master/slave barrier is kept
// as an ablation (see Config in internal/bench).

// barrierMsg is one barrier notification: a dissemination round, or an
// arrive/release message of the flat (master/slave) ablation variant.
type barrierMsg struct {
	Epoch int64
	Round int // dissemination distance; flatArrive/flatRelease otherwise
}

// Sentinel rounds for the flat barrier.
const (
	flatArrive  = -1
	flatRelease = -2
)

type dissKey struct {
	epoch int64
	round int
}

// nodeBarrier is a node's barrier state.
type nodeBarrier struct {
	rt *Runtime
	ns *nodeState

	epoch   int64
	arrived int
	release *sim.Completion

	recv    map[dissKey]bool
	waiters map[dissKey]*sim.Completion

	// Flat-barrier master state (node 0 only).
	flatCount     map[int64]int
	flatWait      *sim.Completion
	flatWaitEpoch int64
	flatTarget    int

	// The representative's dissemination in progress: one per node at
	// a time, since the next epoch's representative only arrives after
	// this one released the node. The steps are bound once.
	dct     *sim.Cont
	depoch  int64
	ddist   int
	dthen   func()
	dSentFn func()
	dRound  func()
}

func newNodeBarrier(rt *Runtime, ns *nodeState) *nodeBarrier {
	nb := &nodeBarrier{
		rt:        rt,
		ns:        ns,
		recv:      make(map[dissKey]bool),
		waiters:   make(map[dissKey]*sim.Completion),
		flatCount: make(map[int64]int),
	}
	nb.dSentFn = nb.disseminateSent
	nb.dRound = nb.disseminateRound
	return nb
}

// localBarrierCost models the shared-memory combine per thread.
const localBarrierCost = 150 * sim.Ns

// Barrier is upc_barrier: it implies a fence, combines intra-node, and
// disseminates across nodes.
func (t *Thread) Barrier() {
	t.BarrierC(t.wake)
	t.p.Suspend()
}

// BarrierC is Barrier in continuation-passing style. The steps live in
// the thread's op state.
func (t *Thread) BarrierC(then func()) {
	o := t.ops()
	o.bstep, o.bthen = bsFenced, then
	t.FenceC(o.bFn)
}

// barrierStep is where bFn resumes a barrier.
type barrierStep uint8

const (
	bsFenced  barrierStep = iota // the implied fence completed
	bsArrived                    // the shared-memory combine cost elapsed
	bsNodes                      // every node arrived (representative only)
	bsDone                       // released
)

// barrierStep is bFn: fence, combine in shared memory, then either run
// the inter-node phase (the node's last arriver is its representative)
// or wait for the representative's release.
func (o *contOps) barrierStep() {
	t := o.t
	nb := t.ns.barrier
	switch o.bstep {
	case bsFenced:
		o.span = t.rt.tel.StartSpan("barrier", t.id, t.ns.id, t.Now())
		t.rt.cfg.Trace.Begin(t.id, trace.StateBarrier, t.Now())
		o.bstep = bsArrived
		t.c.Sleep(localBarrierCost, o.bFn)
	case bsArrived:
		nb.arrived++
		if nb.arrived < t.rt.cfg.ThreadsPerNode() {
			if nb.release == nil {
				nb.release = sim.NewCompletion(t.rt.K, "barrier-release")
			}
			o.bstep = bsDone
			nb.release.WaitFn(t.c, o.bFn)
			return
		}
		o.bstep = bsNodes
		if t.rt.cfg.FlatBarrier {
			nb.flatC(t.c, nb.epoch, o.bFn)
		} else {
			nb.disseminateC(t.c, nb.epoch, o.bFn)
		}
	case bsNodes:
		rel := nb.release
		nb.release = nil
		nb.arrived = 0
		nb.epoch++
		if rel != nil {
			rel.Complete(nil)
		}
		o.bstep = bsDone
		o.barrierStep()
	case bsDone:
		t.rt.cfg.Trace.End(t.id, t.Now())
		o.span.Finish(t.Now())
		then := o.bthen
		o.span, o.bthen = nil, nil
		then()
	}
}

// disseminateC runs the representative's rounds for one epoch:
// ceil(log2 n) rounds, each a message to the node dist away and a wait
// for the one from dist behind.
func (nb *nodeBarrier) disseminateC(ct *sim.Cont, epoch int64, then func()) {
	nb.dct, nb.depoch, nb.ddist, nb.dthen = ct, epoch, 1, then
	nb.disseminateNext()
}

func (nb *nodeBarrier) disseminateNext() {
	n := nb.rt.cfg.Nodes
	if nb.ddist >= n {
		then := nb.dthen
		nb.dct, nb.dthen = nil, nil
		then()
		return
	}
	partner := (nb.ns.id + nb.ddist) % n
	nb.rt.M.SendAMSpanC(nb.dct, nb.ns.id, partner, hBarrier,
		&barrierMsg{Epoch: nb.depoch, Round: nb.ddist}, nil, 0, nil, nb.dSentFn)
}

func (nb *nodeBarrier) disseminateSent() {
	key := dissKey{epoch: nb.depoch, round: nb.ddist}
	if nb.recv[key] {
		delete(nb.recv, key)
		nb.ddist *= 2
		nb.disseminateNext()
		return
	}
	c := sim.NewCompletion(nb.rt.K, "barrier-round")
	nb.waiters[key] = c
	c.WaitFn(nb.dct, nb.dRound)
}

func (nb *nodeBarrier) disseminateRound() {
	delete(nb.waiters, dissKey{epoch: nb.depoch, round: nb.ddist})
	nb.ddist *= 2
	nb.disseminateNext()
}

// flatC is the master/slave barrier ablation: every representative
// reports to node 0, which releases everyone once all have arrived.
// O(n) messages serialized through one node — the scalability
// bottleneck the dissemination design avoids.
func (nb *nodeBarrier) flatC(ct *sim.Cont, epoch int64, then func()) {
	n := nb.rt.cfg.Nodes
	if nb.ns.id != 0 {
		nb.rt.M.SendAMSpanC(ct, nb.ns.id, 0, hBarrier,
			&barrierMsg{Epoch: epoch, Round: flatArrive}, nil, 0, nil, func() {
				nb.awaitC(ct, dissKey{epoch: epoch, round: flatRelease}, then)
			})
		return
	}
	// Master: collect n-1 arrivals, then release everyone.
	need := n - 1
	release := func() {
		delete(nb.flatCount, epoch)
		dst := 1
		sim.Loop(func(next func()) {
			if dst >= n {
				then()
				return
			}
			d := dst
			dst++
			nb.rt.M.SendAMSpanC(ct, 0, d, hBarrier,
				&barrierMsg{Epoch: epoch, Round: flatRelease}, nil, 0, nil, next)
		})
	}
	if nb.flatCount[epoch] < need {
		c := sim.NewCompletion(nb.rt.K, "flat-barrier")
		nb.flatWait = c
		nb.flatWaitEpoch = epoch
		nb.flatTarget = need
		c.WaitC(ct, func(any) { release() })
		return
	}
	release()
}

// awaitC continues once the barrier message for key arrives (buffered
// or future).
func (nb *nodeBarrier) awaitC(ct *sim.Cont, key dissKey, then func()) {
	if nb.recv[key] {
		delete(nb.recv, key)
		then()
		return
	}
	c := sim.NewCompletion(nb.rt.K, "barrier-round")
	nb.waiters[key] = c
	c.WaitC(ct, func(any) {
		delete(nb.waiters, key)
		then()
	})
}

func (rt *Runtime) handleBarrier(p *sim.Proc, n *transport.Node, msg *transport.Msg) {
	nb := rt.nodes[n.ID].barrier
	m := msg.Meta.(*barrierMsg)
	if m.Round == flatArrive {
		nb.flatCount[m.Epoch]++
		if nb.flatWait != nil && nb.flatWaitEpoch == m.Epoch && nb.flatCount[m.Epoch] >= nb.flatTarget {
			c := nb.flatWait
			nb.flatWait = nil
			c.Complete(nil)
		}
		return
	}
	key := dissKey{epoch: m.Epoch, round: m.Round}
	if c, ok := nb.waiters[key]; ok {
		c.Complete(nil)
		return
	}
	nb.recv[key] = true
}
