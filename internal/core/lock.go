package core

import (
	"fmt"

	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// Lock is a UPC shared lock. Its queue lives on its home node; remote
// threads acquire and release it with active messages, co-located ones
// directly. Grants are FIFO.
type Lock struct {
	rt   *Runtime
	h    svd.Handle
	home int // home node
	name string
}

// Handle returns the lock's SVD handle.
func (l *Lock) Handle() svd.Handle { return l.h }

// lockHome is the home node's state for one lock.
type lockHome struct {
	held  bool
	queue []*lockWaiter
}

type lockWaiter struct {
	node int
	done *sim.Completion
}

type lockReq struct {
	H    svd.Handle
	Done *sim.Completion
}

type lockGrant struct {
	Done *sim.Completion
}

type unlockReq struct {
	H svd.Handle
}

// lockCPUCost models the home-side queue manipulation.
const lockCPUCost = 120 * sim.Ns

// AllLockAlloc collectively creates a shared lock whose home is thread
// 0's node (upc_all_lock_alloc). All threads receive the same lock.
func (t *Thread) AllLockAlloc(name string) *Lock {
	t.Barrier()
	ns := t.ns
	if t.isNodeRep() {
		idx := ns.dir.NextIndex(svd.AllPartition)
		h := svd.Handle{Part: svd.AllPartition, Index: idx}
		ns.dir.Register(&svd.ControlBlock{Handle: h, Kind: svd.KindLock, Name: name})
		if ns.id == 0 {
			ns.locks[h] = &lockHome{}
		}
		ns.collective = &Lock{rt: t.rt, h: h, home: 0, name: name}
	}
	t.Barrier()
	return ns.collective.(*Lock)
}

func (ns *nodeState) lockState(h svd.Handle) *lockHome {
	lh, ok := ns.locks[h]
	if !ok {
		panic(fmt.Sprintf("core: node %d has no home state for lock %v", ns.id, h))
	}
	return lh
}

// Lock acquires l (upc_lock), blocking until granted.
func (t *Thread) Lock(l *Lock) {
	span := t.rt.tel.StartSpan("lock", t.id, t.ns.id, t.p.Now())
	span.SetState(telemetry.StateLockWait)
	defer func() { span.Finish(t.p.Now()) }()
	if t.ns.id == l.home {
		t.p.Sleep(lockCPUCost)
		lh := t.ns.lockState(l.h)
		if !lh.held {
			lh.held = true
			return
		}
		done := sim.NewCompletion(t.rt.K, "lock "+l.name)
		lh.queue = append(lh.queue, &lockWaiter{node: t.ns.id, done: done})
		t.p.Wait(done)
		return
	}
	done := sim.NewCompletion(t.rt.K, "lock "+l.name)
	t.rt.M.SendAM(t.p, t.ns.id, l.home, hLockReq, &lockReq{H: l.h, Done: done}, nil, 0)
	t.p.Wait(done)
}

// TryLock attempts to acquire l without blocking (upc_lock_attempt):
// it reports whether the lock was acquired. Remote attempts still pay
// one message round trip to the home node, as the real runtime's do.
func (t *Thread) TryLock(l *Lock) bool {
	if t.ns.id == l.home {
		t.p.Sleep(lockCPUCost)
		lh := t.ns.lockState(l.h)
		if lh.held {
			return false
		}
		lh.held = true
		return true
	}
	done := sim.NewCompletion(t.rt.K, "trylock "+l.name)
	t.rt.M.SendAM(t.p, t.ns.id, l.home, hLockTry, &lockReq{H: l.h, Done: done}, nil, 0)
	t.p.Wait(done)
	v := done.Value().(bool)
	t.rt.K.Recycle(done)
	return v
}

// Unlock releases l (upc_unlock). The next waiter, if any, is granted
// in FIFO order.
func (t *Thread) Unlock(l *Lock) {
	if t.ns.id == l.home {
		t.p.Sleep(lockCPUCost)
		t.rt.homeUnlockC(t.c, t.rt.nodes[l.home], l.h, t.wake)
		t.p.Suspend()
		return
	}
	t.rt.M.SendAM(t.p, t.ns.id, l.home, hUnlockReq, &unlockReq{H: l.h}, nil, 0)
}

// homeUnlockC passes the lock to the next waiter or releases it, then
// runs then. It runs on the home node (thread or handler context).
func (rt *Runtime) homeUnlockC(ct *sim.Cont, home *nodeState, h svd.Handle, then func()) {
	lh := home.lockState(h)
	if !lh.held {
		panic(fmt.Sprintf("core: unlock of unheld lock %v", h))
	}
	if len(lh.queue) == 0 {
		lh.held = false
		then()
		return
	}
	w := lh.queue[0]
	lh.queue = lh.queue[1:]
	if w.node == home.id {
		w.done.Complete(nil)
		then()
		return
	}
	rt.M.SendAMSpanC(ct, home.id, w.node, hLockGrant, &lockGrant{Done: w.done}, nil, 0, nil, then)
}

// The lock request, attempt and unlock handlers charge the home-side
// queue work, then act on the lock's home state.

func (rt *Runtime) handleLockReq(hc *transport.HandlerCtx, msg *transport.Msg, done func()) {
	rt.newAMOp(hc, msg, done).wait(lockCPUCost, asServed)
}

func (o *amOp) lockServed() {
	m := o.msg.Meta.(*lockReq)
	lh := o.ns.lockState(m.H)
	if !lh.held {
		lh.held = true
		o.sendFinish(o.msg.Src, hLockGrant, &lockGrant{Done: m.Done})
		return
	}
	lh.queue = append(lh.queue, &lockWaiter{node: o.msg.Src, done: m.Done})
	o.finish()
}

func (rt *Runtime) handleLockGrant(hc *transport.HandlerCtx, msg *transport.Msg, done func()) {
	msg.Meta.(*lockGrant).Done.Complete(nil)
	done()
}

// tryResult carries a TryLock outcome back to the initiator.
type tryResult struct {
	OK   bool
	Done *sim.Completion
}

func (rt *Runtime) handleLockTry(hc *transport.HandlerCtx, msg *transport.Msg, done func()) {
	rt.newAMOp(hc, msg, done).wait(lockCPUCost, asServed)
}

func (o *amOp) tryLockServed() {
	m := o.msg.Meta.(*lockReq)
	lh := o.ns.lockState(m.H)
	ok := !lh.held
	if ok {
		lh.held = true
	}
	o.sendFinish(o.msg.Src, hLockTryRep, &tryResult{OK: ok, Done: m.Done})
}

func (rt *Runtime) handleLockTryRep(hc *transport.HandlerCtx, msg *transport.Msg, done func()) {
	m := msg.Meta.(*tryResult)
	m.Done.Complete(m.OK)
	done()
}

func (rt *Runtime) handleUnlockReq(hc *transport.HandlerCtx, msg *transport.Msg, done func()) {
	rt.newAMOp(hc, msg, done).wait(lockCPUCost, asServed)
}

func (o *amOp) unlockServed() {
	o.rt.homeUnlockC(o.hc.Cont(), o.ns, o.msg.Meta.(*unlockReq).H, o.finishFn)
}
