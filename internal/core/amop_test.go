package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/transport"
)

// builtinHandlersBody reaches every built-in handler: GET and PUT
// request, reply and ack (eager, cached and uncached); rendezvous
// RTS/RTR (GM's EagerMax is below 32 KiB); AM atomics and their
// replies; barriers; allocation notifications; free requests and acks;
// lock request, grant, attempt and unlock; collectives.
func builtinHandlersBody(th *Thread) {
	const big = 32 << 10
	n := int64(th.Threads())
	me := int64(th.ID())
	peer := (me + int64(th.ThreadsPerNode())) % n // on the next node
	small := th.AllAlloc("small", n, 8, 1)
	bulk := th.AllAlloc("bulk", n*big, 1, big)
	g := th.GlobalAlloc("g", n, 8, 1)
	l := th.AllLockAlloc("L")
	th.Barrier()
	th.PutUint64(small.At(peer), uint64(me))
	_ = th.GetUint64(small.At(peer))
	buf := make([]byte, big)
	th.GetBulk(buf, bulk.At(peer*big))
	th.PutBulk(bulk.At(peer*big), buf)
	var w [8]byte
	h1 := th.NbGet(w[:], g.At(peer))
	h2 := th.NbPut(g.At((peer+1)%n), w[:])
	th.Sync(h1)
	th.Sync(h2)
	th.FetchAdd(g.At(peer), 1)
	th.Fence()
	th.Lock(l)
	th.Compute(sim.Us)
	th.Unlock(l)
	if th.TryLock(l) {
		th.Unlock(l)
	}
	var root []byte
	if th.ID() == 0 {
		root = []byte("bcast")
	}
	th.Broadcast(0, root)
	th.AllReduceU64(uint64(me), ReduceSum)
	th.Barrier()
	if th.ID() == 0 {
		th.Free(g)
	}
	th.Barrier()
}

// extraGoroutines builds a runtime from c, lets setup register its
// handlers, runs body and reports how many live goroutines thread 0
// saw, from inside its running body, beyond those before the runtime
// was built and one coroutine per program thread.
func extraGoroutines(t *testing.T, c Config, setup func(rt *Runtime), body func(th *Thread)) (*Runtime, int) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	setup(rt)
	extra := 0
	if _, err := rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			extra = runtime.NumGoroutine() - baseline - th.Threads()
		}
		body(th)
	}); err != nil {
		t.Fatal(err)
	}
	return rt, extra
}

// No handler runs on a coroutine: while a run serves every built-in
// handler and user AMs, on one context (GM), four (LAPI) and with
// coalesced frames, the only goroutines beyond the test's own are the
// program threads' coroutines.
func TestBuiltinHandlersRunOffCoroutine(t *testing.T) {
	coal := transport.DefaultCoalConfig()
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"gm", cfg(8, 4, transport.GM(), DefaultCache())},
		{"gm-nocache", cfg(8, 4, transport.GM(), NoCache())},
		{"lapi", cfg(8, 4, transport.LAPI(), DefaultCache())},
		{"lapi-coalesced", func() Config {
			c := cfg(8, 4, transport.LAPI(), DefaultCache())
			c.Coalesce = &coal
			return c
		}()},
	} {
		rt, n := extraGoroutines(t, c.cfg, func(*Runtime) {}, builtinHandlersBody)
		if n != 0 {
			t.Errorf("%s: %d goroutines beyond the program threads", c.name, n)
		}
		if rt.M.AMCount() == 0 {
			t.Fatalf("%s: no active messages sent", c.name)
		}
	}

	echo := func(rt *Runtime) {
		rt.HandleUser(0, func(c *UserCtx) {
			a, _ := c.Args()
			c.SleepC(sim.Us, func() { c.Reply([]byte{byte(a) + 1}) })
		})
	}
	if _, n := extraGoroutines(t, cfg(4, 2, transport.LAPI(), DefaultCache()), echo, func(th *Thread) {
		a := th.AllAlloc("a", int64(th.Threads()), 8, 1)
		var rep [1]byte
		if n := th.CallAM(a, (th.Node()+1)%2, 0, uint64(th.Node()), 0, 0, rep[:], "user"); n != 1 || rep[0] != byte(th.Node())+1 {
			t.Errorf("thread %d: reply %v (%d bytes), want [%d]", th.ID(), rep, n, th.Node()+1)
		}
	}); n != 0 {
		t.Errorf("user AMs: %d goroutines beyond the program threads", n)
	}
}

// A user handler that replies twice panics, naming the handler.
func TestUserHandlerReplyTwicePanics(t *testing.T) {
	rt, err := NewRuntime(cfg(2, 2, transport.LAPI(), DefaultCache()))
	if err != nil {
		t.Fatal(err)
	}
	rt.HandleUser(3, func(c *UserCtx) {
		c.Reply(nil)
		c.Reply(nil)
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "user handler 3 replied twice") {
			t.Fatalf("recovered %v, want a double-reply panic naming handler 3", r)
		}
	}()
	rt.Run(func(th *Thread) {
		a := th.AllAlloc("a", int64(th.Threads()), 8, 1)
		if th.ID() == 0 {
			th.CallAM(a, 1, 3, 0, 0, 0, nil, "user")
		}
	})
}

// A request whose handle the target does not know yet — the allocation
// notification is still being served on another handler context — is
// requeued, redelivered and served exactly once.
func TestResolveMissRequeuesOnce(t *testing.T) {
	rt, err := NewRuntime(cfg(2, 2, transport.LAPI(), DefaultCache()))
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	if _, err := rt.Run(func(th *Thread) {
		if th.ID() != 0 {
			return
		}
		a := th.GlobalAlloc("g", 2, 8, 1) // element 1 lives on node 1
		th.PutUint64(a.At(1), 42)         // overtakes the notification
		got = th.GetUint64(a.At(1))
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("read back %d, want 42", got)
	}
	var pushes int64
	for n := range rt.nodes {
		pushes += rt.M.Fab.Port(n).AM.Pushes()
	}
	if pushes <= rt.M.AMCount() {
		t.Fatalf("%d AM deliveries for %d messages: no request was requeued", pushes, rt.M.AMCount())
	}
}

// Serving an eager GET request and its reply allocates only the two
// protocol headers and the payload: handler contexts, per-message
// records, messages and send state are all pooled.
func TestEagerGetServeAllocs(t *testing.T) {
	rt, err := NewRuntime(cfg(2, 2, transport.GM(), NoCache()))
	if err != nil {
		t.Fatal(err)
	}
	l := rt.layout(8, 1, 2)
	h := svd.Handle{Part: svd.AllPartition, Index: 1}
	for _, ns := range rt.nodes {
		ns.installArray(h, svd.KindArray, "a", l)
	}
	var ct *sim.Cont
	rt.K.SpawnC("initiator", func(c *sim.Cont) {
		ct = c
		c.Finish()
	})
	if err := rt.K.Run(); err != nil {
		t.Fatal(err)
	}
	defer rt.K.Shutdown()
	sent := func() {}
	var data []byte
	get := func() {
		done := sim.NewCompletion(rt.K, "get")
		rt.M.SendAMSpanC(ct, 0, 1, hGetReq, &getReq{H: h, Size: 8, Done: done}, nil, 0, nil, sent)
		if err := rt.K.Run(); err != nil {
			t.Fatal(err)
		}
		if !done.Done() {
			t.Fatal("GET not served")
		}
		data = done.Bytes()
		rt.K.Recycle(done)
	}
	get() // warm the pools
	if allocs := testing.AllocsPerRun(100, get); allocs > 3 {
		t.Fatalf("served eager GET costs %v allocs, want at most 3 (request and reply headers, payload)", allocs)
	}
	if len(data) != 8 {
		t.Fatalf("payload of %d bytes", len(data))
	}
}
