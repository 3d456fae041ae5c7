package bench

// Absolute fingerprints for the sweep drivers: GUPS, adaptive cache
// sizing, the memory-pressure ladder and the stressmark, micro,
// miss-overhead, chaos, crash and KV points. Each row pins the whole
// driver result, not one column of it: the checksum field holds
// resultDigest of the result, and the events and elapsed fields hold
// the run's kernel event count and virtual makespan where the result
// carries them (zero otherwise).

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// resultDigest is FNV-1a over v printed with %#v: every field, integer
// times in full, no Stringer rounding. Renaming a field or type of a
// pinned result changes the digest; regenerate the rows with -update
// (see golden_test.go) and say so. A pointer would print as an address
// and make the digest run-dependent, so one panics.
func resultDigest(v any) uint64 {
	s := fmt.Sprintf("%#v", v)
	if strings.Contains(s, ")(0x") {
		panic("bench: pinned result holds a pointer: " + s)
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestGUPSGolden pins every protocol on both transports.
func TestGUPSGolden(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		for _, proto := range GUPSProtos() {
			o := gupsOpts()
			o.Prof = prof
			r := RunGUPS(proto, o)
			checkGolden(t, fmt.Sprintf("gups/%s/%s", prof.Name, proto),
				fingerprint{r.Run.KernelEvents, r.Run.Elapsed, resultDigest(r)})
		}
	}
}

// TestAdaptSweepGolden pins the fixed and adaptive sizing runs of the
// published adaptive-cache point.
func TestAdaptSweepGolden(t *testing.T) {
	fixed, adaptive := AdaptSweep(transport.GM(), DefaultAdapt())
	for _, p := range []AdaptPoint{fixed, adaptive} {
		checkGolden(t, "adapt/"+p.Variant, fingerprint{0, p.Elapsed, resultDigest(p)})
	}
}

// TestPressureSweepGolden pins the test-sized pressure ladder, every
// (frac, variant) point.
func TestPressureSweepGolden(t *testing.T) {
	o := testPressureOpts()
	for _, p := range PressureSweep(transport.GM(), o) {
		name := fmt.Sprintf("pressure/%.2f/%s", p.Frac, p.Variant)
		checkGolden(t, name, fingerprint{0, p.Elapsed, resultDigest(p)})
	}
}

// TestDriverGolden pins one point of each remaining sweep driver.
func TestDriverGolden(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 4}

	st := runStressmark("pointer", sc, transport.GM(), core.DefaultCache(), 5)
	checkGolden(t, "driver/stressmark-pointer", fingerprint{st.KernelEvents, st.Elapsed, resultDigest(st)})

	for _, op := range []Op{OpGet, OpPut} {
		s := MicroLatency(op, true, MicroOpts{Prof: transport.GM(), Size: 64, Reps: 6, Warm: 2, Seed: 5})
		checkGolden(t, "driver/micro-"+op.String(), fingerprint{0, 0, resultDigest(s)})
	}

	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		pct := MissOverhead(prof, 1)
		checkGolden(t, "driver/missoverhead-"+prof.Name, fingerprint{0, 0, resultDigest(pct)})
	}

	ch := ChaosSweep("update", transport.GM(), sc, []float64{0.01}, 5)[0]
	checkGolden(t, "driver/chaos-update", fingerprint{0, ch.Elapsed, resultDigest(ch)})

	cr := CrashSweep("update", transport.GM(), sc, []float64{0.1}, 150, 5)[0]
	checkGolden(t, "driver/crash-update", fingerprint{0, cr.Elapsed, resultDigest(cr)})

	kvr := RunKV(KVOpts{
		Scale: sc, Prof: transport.GM(), Ops: 60, Keys: 512,
		Theta: 0.9, ReadFrac: 0.9, Rate: 120000, Cached: true, Seed: 5,
	})
	checkGolden(t, "driver/kv", fingerprint{kvr.Run.KernelEvents, kvr.Elapsed, resultDigest(kvr)})
}
