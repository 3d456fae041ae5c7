package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestEventHeapProperty pushes events in random time order and checks
// the heap drains them in nondecreasing (time, seq) order — the 4-ary
// specialization must behave exactly like the interface heap it
// replaced.
func TestEventHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h eventHeap
	var seq uint64
	const n = 5000
	for i := 0; i < n; i++ {
		seq++
		h.pushEv(event{t: Time(rng.Intn(64)), seq: seq})
	}
	lastT, lastSeq := Time(-1), uint64(0)
	for i := 0; i < n; i++ {
		if h.Len() == 0 {
			t.Fatalf("heap empty after %d pops, want %d", i, n)
		}
		ev := h.popEv()
		if ev.t < lastT || (ev.t == lastT && ev.seq <= lastSeq) {
			t.Fatalf("pop %d out of order: got (t=%d, seq=%d) after (t=%d, seq=%d)",
				i, ev.t, ev.seq, lastT, lastSeq)
		}
		lastT, lastSeq = ev.t, ev.seq
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty after draining: %d left", h.Len())
	}
}

// TestEventHeapFIFOTieBreak checks that events scheduled for the same
// instant run in scheduling order, including when interleaved with
// events at other times.
func TestEventHeapFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(Time(10*(i%3)), func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 {
		t.Fatalf("ran %d callbacks, want 100", len(order))
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a%3 == b%3 && a > b {
			t.Fatalf("same-time callbacks out of scheduling order: %d before %d", a, b)
		}
		if a%3 > b%3 {
			t.Fatalf("callback at t=%d ran before one at t=%d", 10*(a%3), 10*(b%3))
		}
	}
}

// countParkedGoroutines samples runtime.NumGoroutine with settling
// retries, since goroutine exits are asynchronous.
func goroutinesSettleTo(t *testing.T, baseline int) int {
	t.Helper()
	n := 0
	for try := 0; try < 100; try++ {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline {
			return n
		}
		time.Sleep(2 * time.Millisecond)
	}
	return n
}

// TestShutdownReleasesGoroutines drives a run that ends with daemons
// waiting and, via Stop, regular processes still suspended, plus a
// process whose start event never ran, and checks Shutdown releases
// all their coroutines instead of leaking them — without running the
// one that never started.
func TestShutdownReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		k := NewKernel()
		q := NewQueue[int](k, "inbox")
		for d := 0; d < 4; d++ {
			serveQueue(k, "daemon", q, func(int) {})
		}
		k.Spawn("stopper", func(p *Proc) {
			p.Sleep(5)
			k.Spawn("never-started", func(p *Proc) {
				t.Error("a process spawned after Stop ran")
			})
			k.Stop()
		})
		k.Spawn("sleeper", func(p *Proc) {
			p.Sleep(1000) // still pending when Stop fires
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
	}
	if n := goroutinesSettleTo(t, baseline); n > baseline {
		t.Fatalf("goroutines leaked: %d after, %d before", n, baseline)
	}
}

// TestShutdownIsIdempotent checks a second Shutdown (and one after a
// clean run with no daemons) is harmless.
func TestShutdownIsIdempotent(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Sleep(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	k.Shutdown()
}

// TestAcquireCInterleavesFIFOWithProcs checks callback acquirers and
// process acquirers share one FIFO queue in arrival order.
func TestAcquireCInterleavesFIFOWithProcs(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "res", 1)
	var order []string
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release()
	})
	k.Spawn("driver", func(p *Proc) {
		p.Sleep(1)
		r.AcquireC(func() { // queued first
			order = append(order, "cb1")
			k.After(10, r.Release)
		})
		k.Spawn("waiter", func(p *Proc) { // queued second
			r.Acquire(p)
			order = append(order, "proc")
			p.Sleep(10)
			r.Release()
		})
		p.Sleep(1)
		r.AcquireC(func() { // queued third
			order = append(order, "cb2")
			k.After(10, r.Release)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"cb1", "proc", "cb2"}
	if len(order) != len(want) {
		t.Fatalf("got order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got order %v, want %v", order, want)
		}
	}
}

// TestAcquireCImmediateWhenFree checks AcquireC on an idle resource
// runs its callback inline.
func TestAcquireCImmediateWhenFree(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "res", 1)
	ran := false
	k.At(0, func() {
		r.AcquireC(func() { ran = true })
		if !ran {
			t.Error("AcquireC on a free resource did not run inline")
		}
		r.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueNotifyTryPop checks the callback-consumer path: Notify fires
// after every push, TryPop drains, and backlog stays visible to Len.
func TestQueueNotifyTryPop(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q")
	var got []int
	busy := false
	var serve func()
	serve = func() {
		v, ok := q.TryPop()
		if !ok {
			busy = false
			return
		}
		got = append(got, v)
		k.After(10, serve) // 10 ps of service per item
	}
	q.Notify(func() {
		if busy {
			return
		}
		busy = true
		serve()
	})
	k.At(0, func() {
		q.Push(1)
		q.Push(2)
		q.Push(3)
		// The engine is busy with item 1; 2 and 3 must still be queued.
		if q.Len() != 2 {
			t.Errorf("backlog not visible: Len=%d, want 2", q.Len())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", got)
	}
	// Item 1 was taken into service inline at its own push, so only
	// items 2 and 3 were ever resident together.
	if q.MaxLen() != 2 {
		t.Fatalf("MaxLen=%d, want 2", q.MaxLen())
	}
}

// TestCompletionRecycle checks a recycled completion is reused by the
// next NewCompletion with fully reset state.
func TestCompletionRecycle(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k, "first")
	k.At(0, func() { c.Complete(42) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Value().(int) != 42 {
		t.Fatalf("value = %v, want 42", c.Value())
	}
	k.Recycle(c)
	c2 := NewCompletion(k, "second")
	if c2 != c {
		t.Fatalf("NewCompletion did not reuse the recycled completion")
	}
	if c2.Done() || c2.Value() != nil || c2.name != "second" {
		t.Fatalf("recycled completion not reset: done=%v val=%v name=%q",
			c2.Done(), c2.Value(), c2.name)
	}
}

// TestThenRunsInlineInKernelContext checks thens registered before and
// after completion both run, at completion virtual time, without extra
// zero-delay events for the already-done case.
func TestThenRunsInlineInKernelContext(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k, "c")
	var at []Time
	c.Then(func(v any) { at = append(at, k.Now()) })
	k.At(7, func() {
		c.Complete(nil)
		// Then on a done completion runs immediately, inline.
		before := len(at)
		c.Then(func(v any) { at = append(at, k.Now()) })
		if len(at) != before+1 {
			t.Error("Then on done completion did not run inline")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 7 || at[1] != 7 {
		t.Fatalf("then times = %v, want [7 7]", at)
	}
}
