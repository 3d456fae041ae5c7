package bench

// Absolute fingerprints of the Paraver thread-state view behind the
// §4.6 Field analysis: the four stressmarks on GM and LAPI, with and
// without the address cache, at 16 threads / 4 nodes, plus one mixed
// body that reaches every traced state. The checksum field is FNV-1a
// over the WritePRV bytes, the per-state totals in Profiles order and
// the longest GET wait with its thread; the events field holds the
// record count and the elapsed field the longest GET wait.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// paraverRun runs body under a fresh runtime with telemetry attached.
func paraverRun(t *testing.T, c core.Config, body func(th *core.Thread)) *telemetry.Telemetry {
	t.Helper()
	tel := telemetry.New()
	c.Telemetry = tel
	rt, err := core.NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(body); err != nil {
		t.Fatal(err)
	}
	return tel
}

// paraverPrint is the fingerprint of one run's state view. It also
// checks that a thread is in one state at a time: the intervals of one
// thread never overlap.
func paraverPrint(t *testing.T, tel *telemetry.Telemetry) fingerprint {
	t.Helper()
	last := map[int]telemetry.Interval{}
	for _, iv := range tel.Intervals() { // finish order: per thread, also start order
		if prev, ok := last[iv.Thread]; ok && iv.Start < prev.End {
			t.Fatalf("thread %d: %v interval %v..%v overlaps %v ending %v",
				iv.Thread, iv.State, iv.Start, iv.End, prev.State, prev.End)
		}
		last[iv.Thread] = iv
	}
	var b bytes.Buffer
	if err := tel.WritePRV(&b); err != nil {
		t.Fatal(err)
	}
	records := int64(bytes.Count(b.Bytes(), []byte("\n")))
	for _, p := range tel.Profiles() {
		fmt.Fprintf(&b, "%s %d\n", p.State, int64(p.Total))
	}
	worst := tel.MaxInterval(telemetry.StateGetWait)
	fmt.Fprintf(&b, "get-wait max thread %d %d..%d\n", worst.Thread, int64(worst.Start), int64(worst.End))
	h := fnv.New64a()
	h.Write(b.Bytes())
	return fingerprint{records, worst.Dur(), h.Sum64()}
}

// paraverMixedBody reaches every traced state: compute; blocking and
// split-phase GET and PUT, eager and above GM's EagerMax; a fence with
// PUT acknowledgements outstanding; barriers; a contended lock.
func paraverMixedBody(th *core.Thread) {
	const big = 32 << 10
	n := int64(th.Threads())
	small := th.AllAlloc("small", n, 8, 1)
	bulk := th.AllAlloc("bulk", n*big, 1, big)
	l := th.AllLockAlloc("L")
	th.Barrier()
	me := int64(th.ID())
	peer := (me + int64(th.ThreadsPerNode())) % n // on the next node
	buf := make([]byte, big)
	th.Compute(sim.Duration(3+me) * sim.Us)
	th.PutUint64(small.At(peer), uint64(me))
	_ = th.GetUint64(small.At(peer))
	th.GetBulk(buf, bulk.At(peer*big))
	th.PutBulk(bulk.At(peer*big), buf)
	var w [8]byte
	nbBuf := make([]byte, big)
	h1 := th.NbGet(w[:], small.At((peer+1)%n))
	h2 := th.NbPut(small.At((peer+2)%n), w[:])
	h3 := th.NbGet(nbBuf, bulk.At(((peer+1)%n)*big))
	h4 := th.NbPut(bulk.At(((peer+2)%n)*big), buf)
	th.Sync(h1)
	th.Sync(h3)
	th.Sync(h2)
	th.Sync(h4)
	th.PutBulk(bulk.At(peer*big), buf)
	th.Fence()
	th.Lock(l)
	th.Compute(2 * sim.Us)
	th.Unlock(l)
	th.Barrier()
}

// TestParaverGolden pins the Paraver state view of every stressmark
// run and of the mixed body.
func TestParaverGolden(t *testing.T) {
	const threads, nodes = 16, 4
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		for _, mark := range []string{"pointer", "update", "neighborhood", "field"} {
			for _, cached := range []bool{false, true} {
				cc, label := core.NoCache(), "uncached"
				if cached {
					cc, label = core.DefaultCache(), "cached"
				}
				tel, _, err := PhaseRun(mark, prof, Scale{Threads: threads, Nodes: nodes}, cc, 1)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, fmt.Sprintf("paraver/%s/%s/%s", prof.Name, mark, label), paraverPrint(t, tel))
			}
		}
	}

	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		tel := paraverRun(t, core.Config{
			Threads: 8, Nodes: 4, Profile: prof, Cache: core.DefaultCache(), Seed: 1,
		}, paraverMixedBody)
		totals := tel.TotalByState()
		for _, s := range []telemetry.State{telemetry.StateCompute, telemetry.StateGetWait, telemetry.StatePut,
			telemetry.StateFenceWait, telemetry.StateBarrier, telemetry.StateLockWait} {
			if totals[s] <= 0 {
				t.Errorf("mixed/%s: no %s time recorded", prof.Name, s)
			}
		}
		checkGolden(t, "paraver/mixed/"+prof.Name, paraverPrint(t, tel))
	}
}
