package sim

// Resource is a FIFO server pool with fixed capacity, modelling
// contended hardware: CPU cores, a NIC's injection port, a DMA engine.
// Processes Acquire a slot, hold it for some service time, and Release
// it; excess acquirers queue in arrival order.
//
// Release may be called from kernel callbacks as well as processes
// (it never blocks), which lets asynchronous protocol steps free
// hardware they held. Kernel callbacks acquire via AcquireC.
type Resource struct {
	k         *Kernel
	name      string
	parkState string // precomputed park diagnostic
	capacity  int
	inUse     int
	queue     []resWaiter
	queueHead int

	// Accounting.
	acquires  int64
	totalWait Duration
	busyUntil Time // last time utilization was accumulated
	busyTime  Duration
}

// resWaiter is one queued acquirer: the callback to grant the slot to.
type resWaiter struct {
	fn    func()
	since Time
}

// NewResource returns a resource with the given capacity (number of
// slots that may be held simultaneously). Capacity must be positive.
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{k: k, name: name, parkState: "acquire " + name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// InUse reports the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) accumulate() {
	r.busyTime += Duration(r.inUse) * (r.k.now - r.busyUntil)
	r.busyUntil = r.k.now
}

func (r *Resource) queueLen() int { return len(r.queue) - r.queueHead }

func (r *Resource) pushWaiter(w resWaiter) { r.queue = append(r.queue, w) }

func (r *Resource) popWaiter() resWaiter {
	w := r.queue[r.queueHead]
	r.queue[r.queueHead] = resWaiter{}
	r.queueHead++
	if r.queueHead == len(r.queue) {
		r.queue = r.queue[:0]
		r.queueHead = 0
	}
	return w
}

// Acquire blocks p until a slot is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	r.AcquireCont(&p.c, p.wakeFn)
	p.Suspend()
}

// AcquireC takes a slot on behalf of a kernel callback: fn runs —
// holding the slot — as soon as one is available, immediately when the
// resource is free, otherwise as a kernel callback when a Release
// grants it (FIFO with process acquirers). fn must not block; the slot
// is held until a matching Release.
func (r *Resource) AcquireC(fn func()) {
	r.acquires++
	if r.inUse < r.capacity && r.queueLen() == 0 {
		r.accumulate()
		r.inUse++
		fn()
		return
	}
	r.pushWaiter(resWaiter{fn: fn, since: r.k.now})
}

// AcquireCont blocks a continuation-mode thread until a slot is
// available, then runs fn holding it: inline when free, one kernel
// event when queued behind a Release, FIFO with every other acquirer.
// The slot is held until a matching Release, which may come from a
// later continuation step.
func (r *Resource) AcquireCont(ct *Cont, fn func()) {
	r.acquires++
	if r.inUse < r.capacity && r.queueLen() == 0 {
		r.accumulate()
		r.inUse++
		fn()
		return
	}
	// fn is queued directly — no unblock wrapper; the stale state
	// string is harmless (diagnostics only inspect blocked conts).
	ct.block(r.parkState, "")
	r.pushWaiter(resWaiter{fn: fn, since: r.k.now})
}

// TryAcquire takes a slot if one is free, reporting whether it did.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.queueLen() == 0 {
		r.accumulate()
		r.acquires++
		r.inUse++
		return true
	}
	return false
}

// Release frees a slot, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if r.queueLen() > 0 {
		w := r.popWaiter()
		r.totalWait += r.k.now - w.since
		r.k.schedule(r.k.now, w.fn)
		return // slot transferred; inUse unchanged
	}
	r.accumulate()
	r.inUse--
}

// ResourceStats is a snapshot of a resource's accounting counters.
type ResourceStats struct {
	Acquires  int64
	TotalWait Duration // time acquirers spent queued
	BusyTime  Duration // integral of slots-held over time
}

// Stats returns the resource's accounting counters as of now.
func (r *Resource) Stats() ResourceStats {
	r.accumulate()
	return ResourceStats{Acquires: r.acquires, TotalWait: r.totalWait, BusyTime: r.busyTime}
}
