package sim

import (
	"fmt"
	"strconv"
)

// Completion is a one-shot future: processes Wait on it, and some other
// process or kernel callback Completes it, waking all waiters at the
// current virtual time. A Completion may carry an arbitrary value.
type Completion struct {
	k       *Kernel
	name    string
	done    bool
	at      Time
	val     any
	bytes   []byte // typed payload lane (CompleteBytes); unboxed []byte
	waiters []func()
	thens   []func(v any)
}

// NewCompletion returns an incomplete Completion. The name appears in
// deadlock diagnostics. Completions recycled with Kernel.Recycle are
// reused here, so hot protocol paths do not allocate one per
// operation.
func NewCompletion(k *Kernel, name string) *Completion {
	if n := len(k.cpool); n > 0 {
		c := k.cpool[n-1]
		k.cpool = k.cpool[:n-1]
		c.name = name
		c.done = false
		c.at = 0
		c.val = nil
		c.bytes = nil
		return c
	}
	return &Completion{k: k, name: name}
}

// Recycle returns a spent completion to the kernel's pool for reuse by
// a future NewCompletion. The caller must guarantee the completion is
// done and no other reference to it remains (no pending Wait, Then, or
// in-flight message carrying it); recycling a live completion corrupts
// the simulation. Purely an allocation optimization — never required.
func (k *Kernel) Recycle(c *Completion) {
	c.val = nil
	c.bytes = nil
	c.waiters = c.waiters[:0]
	c.thens = c.thens[:0]
	k.cpool = append(k.cpool, c)
}

// Done reports whether the completion has completed.
func (c *Completion) Done() bool { return c.done }

// Value returns the value passed to Complete, or nil if incomplete or
// completed with no value (including via CompleteBytes).
func (c *Completion) Value() any { return c.val }

// Bytes returns the payload passed to CompleteBytes, or nil.
func (c *Completion) Bytes() []byte { return c.bytes }

// CompleteBytes is Complete for a []byte payload, carried in a typed
// lane instead of the any-valued one: completing a hot data-bearing
// operation does not box the slice header per op. Value() stays nil;
// consumers read Bytes(). Waiters, Thens and event behavior are
// identical to Complete(nil).
func (c *Completion) CompleteBytes(data []byte) {
	c.bytes = data
	c.Complete(nil)
}

// CompletedAt returns the virtual time of completion (valid once Done).
func (c *Completion) CompletedAt() Time { return c.at }

// Complete marks the completion done with value v, schedules every
// waiter to resume at the current time, and runs registered Then
// callbacks inline, in the caller's (kernel) context at completion
// time — no event is scheduled per callback. Completing twice is a bug
// and panics.
func (c *Completion) Complete(v any) {
	if c.done {
		panic(fmt.Sprintf("sim: completion %q completed twice", c.name))
	}
	c.done = true
	c.val = v
	c.at = c.k.now
	for _, w := range c.waiters {
		c.k.wake(w)
	}
	c.waiters = c.waiters[:0]
	if len(c.thens) > 0 {
		thens := c.thens
		c.thens = nil // a Then registered from inside a callback runs inline
		for _, fn := range thens {
			fn(v)
		}
	}
}

// WaitC blocks a continuation-mode thread until the completion
// completes, then runs fn with the completed value: an already-done
// completion continues inline (zero events), otherwise the wake is one
// scheduled event.
func (c *Completion) WaitC(ct *Cont, fn func(v any)) {
	if c.done {
		fn(c.val)
		return
	}
	ct.block("waiting on ", c.name)
	c.waiters = append(c.waiters, func() {
		ct.unblock()
		fn(c.val)
	})
}

// WaitFn is the zero-alloc form of WaitC for pre-bound callbacks: fn
// is stored as the waiter directly — no wrapper closure — so a pooled
// state machine whose step func was built once can wait without
// allocating. fn reads the completed value via Value itself, and the
// continuation's diagnostic state is not reset when it runs (stale
// state on a running continuation is harmless; diagnostics only
// inspect blocked ones). Event cost is identical to WaitC: inline when
// done, one wake event otherwise.
func (c *Completion) WaitFn(ct *Cont, fn func()) {
	if c.done {
		fn()
		return
	}
	ct.block("waiting on ", c.name)
	c.waiters = append(c.waiters, fn)
}

// Then registers fn to run once the completion completes. fn executes
// in kernel context at completion time, inline from Complete (or
// immediately, if the completion is already done): it must not block
// (no Sleep/Wait/Acquire), but may schedule events, complete other
// completions, and push to queues.
//
// Then is NOT the way a thread waits — Then runs inline at Complete
// time while a waiter (Wait/WaitC/WaitFn) runs one scheduled event
// later; mixing them up reorders the event stream. Use WaitC to block a
// Cont.
func (c *Completion) Then(fn func(v any)) {
	if c.done {
		fn(c.val)
		return
	}
	c.thens = append(c.thens, fn)
}

// CompleteAfter schedules the completion to complete with value v after
// delay d.
func (c *Completion) CompleteAfter(d Duration, v any) {
	c.k.After(d, func() { c.Complete(v) })
}

// Counter is a countdown latch over n sub-events: Arrive is called n
// times, and waiters proceed when the count reaches zero. It is used
// for fence semantics (wait for all outstanding PUT acknowledgements).
type Counter struct {
	k          *Kernel
	namePrefix string
	nameIdx    int    // -1: namePrefix is the full name
	ws         string // memoized park diagnostic, built on first wait
	pending    int
	waiters    []func()
}

// NewCounter returns a counter expecting n arrivals. n may be zero, in
// which case Wait returns immediately.
func NewCounter(k *Kernel, name string, n int) *Counter {
	return &Counter{k: k, namePrefix: name, nameIdx: -1, pending: n}
}

// NewCounterIdx is NewCounter with an index-derived name (prefix +
// idx), rendered only when diagnostics ask for it — per-thread fence
// counters at 128k threads allocate no name strings.
func NewCounterIdx(k *Kernel, prefix string, idx int, n int) *Counter {
	return &Counter{k: k, namePrefix: prefix, nameIdx: idx, pending: n}
}

// Name returns the counter's name, rendered on demand.
func (c *Counter) Name() string {
	if c.nameIdx < 0 {
		return c.namePrefix
	}
	return c.namePrefix + strconv.Itoa(c.nameIdx)
}

func (c *Counter) parkState() string {
	if c.ws == "" {
		c.ws = "waiting on counter " + c.Name()
	}
	return c.ws
}

// Add registers n more expected arrivals.
func (c *Counter) Add(n int) { c.pending += n }

// Pending reports the number of outstanding arrivals.
func (c *Counter) Pending() int { return c.pending }

// Arrive records one arrival, waking waiters if the count hits zero.
func (c *Counter) Arrive() {
	if c.pending <= 0 {
		panic(fmt.Sprintf("sim: counter %q arrived below zero", c.Name()))
	}
	c.pending--
	if c.pending == 0 {
		for _, w := range c.waiters {
			c.k.wake(w)
		}
		c.waiters = c.waiters[:0]
	}
}

// Wait blocks p until the counter reaches zero.
func (c *Counter) Wait(p *Proc) {
	for c.pending > 0 {
		c.WaitFn(&p.c, p.wakeFn)
		p.Suspend()
	}
}

// WaitC blocks a continuation-mode thread until the counter reaches
// zero, then runs fn. If new arrivals were registered between the wake
// being scheduled and running, the continuation re-registers (at no
// extra event cost), exactly like Wait's loop.
func (c *Counter) WaitC(ct *Cont, fn func()) {
	if c.pending == 0 {
		fn()
		return
	}
	c.await(ct, func() {
		ct.unblock()
		c.WaitC(ct, fn)
	})
}

// WaitFn is the zero-alloc form of WaitC for a pre-bound fn: fn runs
// inline when the count is already zero, otherwise it is stored as the
// waiter itself, and re-checking Pending after the wake (as WaitC does)
// is left to fn. The event cost is WaitC's.
func (c *Counter) WaitFn(ct *Cont, fn func()) {
	if c.pending == 0 {
		fn()
		return
	}
	c.await(ct, fn)
}

// await registers fn to be woken when the count next reaches zero.
func (c *Counter) await(ct *Cont, fn func()) {
	ct.block(c.parkState(), "")
	c.waiters = append(c.waiters, fn)
}
