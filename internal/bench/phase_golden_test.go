package bench

// Absolute fingerprints of the phase attribution the target side
// records into each operation's span: wire, cpu_wait and recv from AM
// delivery, then svd_resolve, registration, copy and cache_insert from
// the handlers. The Paraver rows pin only the state spans; these pin
// every phase, through the Chrome trace that renders them. The events
// field holds the kernel event count, the elapsed field the virtual
// makespan and the checksum FNV-1a over the WriteChromeTrace bytes.

import (
	"bytes"
	"hash/fnv"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/kv"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// chromeRun runs body under a fresh runtime with telemetry attached and
// fingerprints the run's Chrome trace.
func chromeRun(t *testing.T, c core.Config, body func(th *core.Thread)) fingerprint {
	t.Helper()
	tel := telemetry.New()
	c.Telemetry = tel
	rt, err := core.NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tel.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b.Bytes())
	return fingerprint{st.KernelEvents, st.Elapsed, h.Sum64()}
}

// phaseKVBody drives user AMs: every remote GET ships as a lookup AM
// (ReadViaAM) and every remote PUT as a put AM, so on LAPI the
// requests spread over a node's handler contexts.
func phaseKVBody(th *core.Thread) {
	const keys = 64
	tb := kv.New(th, kv.Options{Name: "kv", NumKeys: keys, ReadViaAM: true})
	kv.Preload(th, tb, keys)
	for i := uint64(0); i < 12; i++ {
		key := (uint64(th.ID())*7+i*5)%keys + 1
		if i%3 == 2 {
			tb.Put(th, key, key*1000+i)
			continue
		}
		tb.Get(th, key)
	}
	th.Barrier()
}

// phaseCollBody drives the lock, collective, allocation and free
// handlers.
func phaseCollBody(th *core.Thread) {
	l := th.AllLockAlloc("L")
	th.Lock(l)
	th.Compute(sim.Us)
	th.Unlock(l)
	if th.TryLock(l) {
		th.Unlock(l)
	}
	var root []byte
	if th.ID() == 0 {
		root = []byte("phase attribution")
	}
	th.Broadcast(0, root)
	th.AllReduceU64(uint64(th.ID()), core.ReduceSum)
	a := th.GlobalAlloc("g", int64(th.Threads()), 8, 1)
	th.Barrier()
	th.PutUint64(a.At(int64((th.ID()+th.ThreadsPerNode())%th.Threads())), 1)
	th.Fence()
	th.Barrier()
	if th.ID() == 0 {
		th.Free(a)
	}
	th.Barrier()
}

// TestPhaseAttributionGolden pins the phases of a mixed body on GM and
// LAPI, user AMs over LAPI's four handler contexts, a coalesced
// split-phase GUPS point and the lock, collective and free handlers.
func TestPhaseAttributionGolden(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		checkGolden(t, "phases/mixed/"+prof.Name, chromeRun(t, core.Config{
			Threads: 8, Nodes: 4, Profile: prof, Cache: core.DefaultCache(), Seed: 1,
		}, paraverMixedBody))
	}

	checkGolden(t, "phases/kv/lapi", chromeRun(t, core.Config{
		Threads: 8, Nodes: 4, Profile: transport.LAPI(), Cache: core.DefaultCache(), Seed: 1,
	}, phaseKVBody))

	coal := transport.DefaultCoalConfig()
	o := GUPSOpts{Scale: Scale{Threads: 8, Nodes: 4}, Prof: transport.LAPI(), Words: 64, Updates: 64, Batch: 8, Seed: 1}
	checks := make([]uint64, o.Scale.Threads)
	var span sim.Time
	checkGolden(t, "phases/gups-split-coalesced/lapi", chromeRun(t, core.Config{
		Threads: 8, Nodes: 4, Profile: transport.LAPI(), Cache: core.DefaultCache(), Seed: 1, Coalesce: &coal,
	}, func(th *core.Thread) { gupsBody(th, GUPSSplit, o, checks, &span) }))

	checkGolden(t, "phases/coll/lapi", chromeRun(t, core.Config{
		Threads: 8, Nodes: 4, Profile: transport.LAPI(), Cache: core.DefaultCache(), Seed: 1,
	}, phaseCollBody))
}
