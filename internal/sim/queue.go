package sim

// Queue is an unbounded FIFO mailbox connecting producers (processes
// or kernel callbacks) to consumers. It is the delivery point for
// simulated network messages: the fabric schedules a Push at a
// message's arrival time, and a callback engine drains it, either
// waiting with PopC or reacting to Notify with TryPop.
type Queue[T any] struct {
	k        *Kernel
	name     string
	popState string // precomputed park diagnostic
	items    []T    // live window is items[head:]
	head     int
	waiters  []func() // parked PopC consumers
	notify   func()   // callback consumer hook, invoked after each Push
	pushes   int64
	maxLen   int
}

// NewQueue returns an empty queue. The name appears in deadlock
// diagnostics.
func NewQueue[T any](k *Kernel, name string) *Queue[T] {
	return &Queue[T]{k: k, name: name, popState: "pop " + name}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Pushes reports the total number of items ever pushed.
func (q *Queue[T]) Pushes() int64 { return q.pushes }

// MaxLen reports the high-water mark of the queue length.
func (q *Queue[T]) MaxLen() int { return q.maxLen }

// Notify registers fn to run (in kernel context, inline) after every
// Push. It is the handoff-free consumer path: a callback engine reacts
// to fn by draining the queue with TryPop, leaving any backlog queued
// — so Len/MaxLen keep measuring real residency — without a parked
// process per queue. fn must not block.
func (q *Queue[T]) Notify(fn func()) { q.notify = fn }

// Push appends v and wakes one waiting consumer, if any. It never
// blocks and is safe to call from kernel callbacks.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.pushes++
	if n := q.Len(); n > q.maxLen {
		q.maxLen = n
	}
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		n := copy(q.waiters, q.waiters[1:])
		q.waiters[n] = nil // release for GC
		q.waiters = q.waiters[:n]
		q.k.wake(w)
	}
	if q.notify != nil {
		q.notify()
	}
}

// take removes and returns the oldest item; the queue must be
// non-empty. The backing array is reused once the window drains.
func (q *Queue[T]) take() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.items) {
		// Compact a long-lived window so a never-empty queue does not
		// grow its backing array without bound.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// PopC takes the oldest item for a continuation with a pre-bound
// retry: it removes and returns the oldest item when one is queued;
// otherwise it registers retry to be woken by the next Push and reports
// false. retry must call PopC again — another consumer may have drained
// the queue first — so waiters are served FIFO, and one that lost a
// race re-registers at the back.
func (q *Queue[T]) PopC(ct *Cont, retry func()) (v T, ok bool) {
	if q.Len() > 0 {
		return q.take(), true
	}
	q.await(ct, retry)
	return v, false
}

// await registers fn to be woken by the next Push.
func (q *Queue[T]) await(ct *Cont, fn func()) {
	ct.block(q.popState, "")
	q.waiters = append(q.waiters, fn)
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.take(), true
}
