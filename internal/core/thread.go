package core

import (
	"fmt"
	"math"
	"math/rand"

	"xlupc/internal/sim"
)

// Thread is one UPC thread. Bodies passed to Runtime.Run receive their
// Thread and use it for every interaction with shared memory and the
// simulated machine. A Thread's methods may only be called from its
// own body (the simulation kernel runs one process at a time, so this
// is a discipline, not a locking requirement).
type Thread struct {
	rt *Runtime
	id int
	ns *nodeState
	p  *sim.Proc // goroutine mode (Runtime.Run); nil under ExecCont
	c  *sim.Cont // the handle every …C operation takes, in both modes

	// wake is p's pre-bound wake callback (goroutine mode): a blocking
	// method passes it as the continuation of its …C form, then
	// suspends p until it runs.
	wake func()

	fence *sim.Counter
	rng   *rand.Rand

	// nbOut is the issue-ordered list of outstanding split-phase
	// handles; SyncAll (and through it every fence and barrier) drains
	// it.
	nbOut []*nbOp

	// nbPool recycles retired split-phase descriptors; each descriptor
	// carries a generation stamp that keeps stale Handles from aliasing
	// a recycled one (see nbio.go).
	nbPool []*nbOp

	// w64 stages single-element 8-byte transfers, so GetUint64/PutUint64
	// (the pointer-chaser hot path) allocate nothing.
	w64 [8]byte

	// xfer is the reusable staging buffer Fill and Copy stream through
	// in bounded chunks, instead of allocating n*elemSize up front.
	xfer []byte

	// cops is the pre-bound op state machine (see contops.go); nil
	// until the thread's first shared access.
	cops *contOps

	// Counters for RunStats.
	gets, puts            int64
	localGets, localPuts  int64
	atomics, localAtomics int64
	getTime, putTime      sim.Time
	atomicTime            sim.Time
}

func newThread(rt *Runtime, id int) *Thread {
	return &Thread{
		rt:    rt,
		id:    id,
		ns:    rt.nodeOfThread(id),
		fence: sim.NewCounterIdx(rt.K, "fence", id, 0),
	}
}

// ID is the UPC thread id (MYTHREAD).
func (t *Thread) ID() int { return t.id }

// Threads is the total thread count (THREADS).
func (t *Thread) Threads() int { return t.rt.cfg.Threads }

// Node is the cluster node this thread runs on.
func (t *Thread) Node() int { return t.ns.id }

// Runtime returns the runtime this thread belongs to, so layers above
// (internal/kv) can register user-AM handlers and read cache state.
func (t *Thread) Runtime() *Runtime { return t.rt }

// ThreadsPerNode is the hybrid fan-out (co-located threads share
// memory and a NIC).
func (t *Thread) ThreadsPerNode() int { return t.rt.cfg.ThreadsPerNode() }

// Now is the current virtual time (valid in both execution modes).
func (t *Thread) Now() sim.Time { return t.rt.K.Now() }

// Rand is the thread's deterministic random source (workloads use it
// so runs are reproducible for a config seed). Built on first use: a
// rand source is ~5KB, which at 128k threads would dominate startup
// memory for workloads that never draw one.
func (t *Thread) Rand() *rand.Rand {
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.rt.cfg.Seed ^ int64(uint64(t.id)*0x9e3779b97f4a7c15>>1)))
	}
	return t.rng
}

// Compute models local computation: the thread occupies one of its
// node's cores for d. On transports with no communication overlap this
// is exactly the time the node cannot serve remote requests.
func (t *Thread) Compute(d sim.Duration) {
	t.ComputeC(d, t.wake)
	t.p.Suspend()
}

// Sleep advances the thread without occupying a core (idle wait).
func (t *Thread) Sleep(d sim.Duration) { t.p.Sleep(d) }

// Fence blocks until every PUT this thread issued has completed at its
// target (upc_fence). Outstanding split-phase handles are retired
// first, so a fence is a full consistency point for non-blocking
// traffic too.
func (t *Thread) Fence() {
	t.FenceC(t.wake)
	t.p.Suspend()
}

// ForAll runs body once for every index of a that is affine to this
// thread, in ascending order — upc_forall with affinity &a[i]. It
// walks owned blocks directly rather than filtering all indices.
func (t *Thread) ForAll(a *SharedArray, body func(i int64)) {
	l := a.l
	if l.Home >= 0 {
		if l.Home == t.id {
			for i := int64(0); i < l.NumElems; i++ {
				body(i)
			}
		}
		return
	}
	// First block owned by this thread is block number t.id; blocks
	// recur every Threads blocks.
	for blk := int64(t.id); blk*l.Block < l.NumElems; blk += int64(l.Threads) {
		lo := blk * l.Block
		hi := lo + l.Block
		if hi > l.NumElems {
			hi = l.NumElems
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
	}
}

// --- Element accessors -------------------------------------------------

// Get reads the single element at r into a fresh byte slice.
func (t *Thread) Get(r Ref) []byte {
	dst := make([]byte, r.A.l.ElemSize)
	t.GetBulk(dst, r)
	return dst
}

// Put writes one element's bytes at r. PUTs complete asynchronously;
// Fence or Barrier waits for them.
func (t *Thread) Put(r Ref, data []byte) {
	if len(data) != r.A.l.ElemSize {
		panic(fmt.Sprintf("core: Put of %d bytes into %s with element size %d",
			len(data), r.A.name, r.A.l.ElemSize))
	}
	t.PutBulk(r, data)
}

// GetUint64 reads element r of an 8-byte-element array. It stages
// through the thread's fixed 8-byte buffer, so the hot pointer-chasing
// path performs no allocation.
func (t *Thread) GetUint64(r Ref) uint64 {
	t.GetBulk(t.w64[:], r)
	return byteOrder.Uint64(t.w64[:])
}

// PutUint64 writes element r of an 8-byte-element array. Safe to stage
// through the shared 8-byte buffer: every PUT path captures the source
// bytes before the call returns control to the thread.
func (t *Thread) PutUint64(r Ref, v uint64) {
	byteOrder.PutUint64(t.w64[:], v)
	t.PutBulk(r, t.w64[:])
}

// GetFloat64 reads element r of an 8-byte-element array as a float64.
func (t *Thread) GetFloat64(r Ref) float64 {
	return math.Float64frombits(t.GetUint64(r))
}

// PutFloat64 writes element r of an 8-byte-element array as a float64.
func (t *Thread) PutFloat64(r Ref, v float64) {
	t.PutUint64(r, math.Float64bits(v))
}

// xferChunkBytes bounds the staging buffer Fill and Copy stream
// through: big transfers reuse one per-thread scratch buffer of at
// most this size instead of allocating the whole n*elemSize payload.
const xferChunkBytes = 64 << 10

// scratch returns the thread's reusable staging buffer, grown to at
// least n bytes. Safe to reuse across PutBulk calls: every PUT path
// (eager, rendezvous, RDMA, local) copies or deposits the source bytes
// before returning.
func (t *Thread) scratch(n int) []byte {
	if cap(t.xfer) < n {
		t.xfer = make([]byte, n)
	}
	return t.xfer[:n]
}

// Fill writes n consecutive elements starting at r with the byte b
// repeated (upc_memset), splitting at affinity boundaries like the
// bulk transfers. The fill streams through a bounded per-thread
// staging buffer, so a gigabyte memset does not allocate a gigabyte.
func (t *Thread) Fill(r Ref, n int64, b byte) {
	if n <= 0 {
		return
	}
	es := int64(r.A.ElemSize())
	r.A.check(r.Idx + n - 1)
	chunk := xferChunkBytes / es
	if chunk < 1 {
		chunk = 1
	}
	if chunk > n {
		chunk = n
	}
	buf := t.scratch(int(chunk * es))
	for i := range buf {
		buf[i] = b
	}
	idx := r.Idx
	for n > 0 {
		c := chunk
		if c > n {
			c = n
		}
		t.PutBulk(Ref{A: r.A, Idx: idx}, buf[:c*es])
		idx += c
		n -= c
	}
}

// GetBulk reads len(dst) bytes of consecutive elements starting at r
// (upc_memget). len(dst) must be a multiple of the element size. The
// transfer is split into per-affinity contiguous runs.
func (t *Thread) GetBulk(dst []byte, r Ref) {
	t.GetBulkC(dst, r, t.wake)
	t.p.Suspend()
}

// PutBulk writes len(src) bytes of consecutive elements starting at r
// (upc_memput). len(src) must be a multiple of the element size.
func (t *Thread) PutBulk(r Ref, src []byte) {
	t.PutBulkC(r, src, t.wake)
	t.p.Suspend()
}

// Copy moves n elements from src to dst (upc_memcpy), staging through
// the initiator in bounded chunks of the thread's reusable scratch
// buffer (each GetBulk completes before the paired PutBulk captures
// the bytes, so the buffer can be recycled chunk to chunk).
func (t *Thread) Copy(dst, src Ref, n int64) {
	if n <= 0 {
		return
	}
	es := int64(src.A.l.ElemSize)
	if dst.A.l.ElemSize != src.A.l.ElemSize {
		panic("core: Copy between arrays of different element sizes")
	}
	chunk := xferChunkBytes / es
	if chunk < 1 {
		chunk = 1
	}
	if chunk > n {
		chunk = n
	}
	buf := t.scratch(int(chunk * es))
	var done int64
	for n > 0 {
		c := chunk
		if c > n {
			c = n
		}
		t.GetBulk(buf[:c*es], Ref{A: src.A, Idx: src.Idx + done})
		t.PutBulk(Ref{A: dst.A, Idx: dst.Idx + done}, buf[:c*es])
		done += c
		n -= c
	}
}
