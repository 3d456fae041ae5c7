package bench

// Gates and determinism for the memory-pressure figures. The sweeps
// themselves panic on checksum divergence between pin policies, so any
// completed sweep already proves the output-identity half of the
// contract; the tests below pin down the performance story (pin-all or
// LRU degrades, an adaptive rung wins) and the bit-identity of the
// sweep across repeats, execution modes and sweep parallelism.

import (
	"reflect"
	"runtime"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// testPressureOpts is a scaled-down churn storm that keeps the figure's
// qualitative shape (hot-vs-cold scans, chunk-granular budgets) at unit
// test cost.
func testPressureOpts() PressureOpts {
	o := DefaultPressure()
	o.Rounds = 2
	o.Scans = 8
	o.Fracs = []float64{0.34, 1.0}
	return o
}

func TestPressureSweepDeterministic(t *testing.T) {
	o := testPressureOpts()
	a := PressureSweep(transport.GM(), o)
	b := PressureSweep(transport.GM(), o)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("back-to-back pressure sweeps diverged:\n%+v\nvs\n%+v", a, b)
	}
	old := runtime.GOMAXPROCS(2)
	c := PressureSweep(transport.GM(), o)
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("pressure sweep depends on GOMAXPROCS")
	}
}

func TestPressureSweepExecModeParity(t *testing.T) {
	o := testPressureOpts()
	prev := SetExec(core.ExecGoroutine)
	defer SetExec(prev)
	g := PressureSweep(transport.GM(), o)
	SetExec(core.ExecCont)
	c := PressureSweep(transport.GM(), o)
	if !reflect.DeepEqual(g, c) {
		t.Fatalf("continuation mode changed the pressure figure:\n%+v\nvs\n%+v", g, c)
	}
}

func TestPressureSweepParallelismInvariant(t *testing.T) {
	o := testPressureOpts()
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	seq := PressureSweep(transport.GM(), o)
	SetParallelism(8)
	par := PressureSweep(transport.GM(), o)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sweep results depend on sweep parallelism")
	}
}

// TestPressureGates asserts the degradation story the figure exists to
// show, at the published configuration: under a tight budget LRU
// thrashes while at least one adaptive rung holds up, and at a full
// budget the lazy registration cache beats eager pin-all outright.
func TestPressureGates(t *testing.T) {
	o := DefaultPressure()
	pts := PressureSweep(transport.GM(), o)
	nv := len(o.variants())
	row := func(fi int) []PressurePoint { return pts[fi*nv : (fi+1)*nv] }
	byName := func(row []PressurePoint, name string) PressurePoint {
		for _, p := range row {
			if p.Variant == name {
				return p
			}
		}
		t.Fatalf("variant %q missing", name)
		return PressurePoint{}
	}
	// Tight budget (fracs[0]): LRU pays an eviction storm and lands
	// behind greedy pin-all; cost-aware protection stays well ahead of
	// LRU.
	tight := row(0)
	pinAll, lru, cost := byName(tight, "pin-all"), byName(tight, "lru"), byName(tight, "cost")
	if lru.Evictions == 0 {
		t.Fatal("tight budget provoked no LRU evictions: workload too small to thrash")
	}
	if lru.Elapsed <= pinAll.Elapsed {
		t.Fatalf("LRU did not thrash: lru=%v pin-all=%v", lru.Elapsed, pinAll.Elapsed)
	}
	if cost.Elapsed >= lru.Elapsed {
		t.Fatalf("cost-aware protection lost to LRU: cost=%v lru=%v", cost.Elapsed, lru.Elapsed)
	}
	if pinAll.Evictions != 0 {
		t.Fatalf("pin-all evicted %d registrations; it must degrade to AM, never evict", pinAll.Evictions)
	}
	if pinAll.PeakPinned >= pressureWorkingSet(o) {
		t.Fatal("tight budget did not constrain pin-all: peak pinned covers the working set")
	}
	// Full budget (last frac): lazy unpinning reuses registrations that
	// eager policies re-pay every round.
	full := row(len(o.Fracs) - 1)
	eager, lazy := byName(full, "pin-all"), byName(full, "lru+lazy")
	if lazy.Reuses == 0 {
		t.Fatal("lazy rung recorded no registration reuse")
	}
	if lazy.Elapsed >= eager.Elapsed {
		t.Fatalf("lazy registration cache lost to eager pin-all: lazy=%v eager=%v", lazy.Elapsed, eager.Elapsed)
	}
	// Output identity across the whole ladder (the sweep also panics on
	// divergence; assert it visibly here), against the published
	// checksum (EXPERIMENTS.md).
	const pressureChecksum = 0x82c69594d29c3a94
	for fi := range o.Fracs {
		r := row(fi)
		if r[0].Checksum != pressureChecksum {
			t.Fatalf("frac %.2f: checksum %#x, published %#x", o.Fracs[fi], r[0].Checksum, uint64(pressureChecksum))
		}
		for _, p := range r[1:] {
			if p.Checksum != r[0].Checksum {
				t.Fatalf("checksum diverged: %s=%#x vs %s=%#x", r[0].Variant, r[0].Checksum, p.Variant, p.Checksum)
			}
		}
	}
}

func TestAdaptCacheGate(t *testing.T) {
	o := DefaultAdapt()
	fixed, adaptive := AdaptSweep(transport.GM(), o)
	if adaptive.HitRate() <= fixed.HitRate() {
		t.Fatalf("adaptive sizing did not raise the hit rate: adaptive=%.3f fixed=%.3f",
			adaptive.HitRate(), fixed.HitRate())
	}
	if adaptive.Resizes == 0 {
		t.Fatal("adaptive cache never re-apportioned")
	}
	if fixed.Checksum != adaptive.Checksum {
		t.Fatalf("sizing policy changed program output: %#x vs %#x", fixed.Checksum, adaptive.Checksum)
	}
}

func TestAdaptSweepDeterministic(t *testing.T) {
	o := DefaultAdapt()
	f0, a0 := AdaptSweep(transport.GM(), o)
	f1, a1 := AdaptSweep(transport.GM(), o)
	if f0 != f1 || a0 != a1 {
		t.Fatalf("adapt sweep diverged:\n%+v %+v\nvs\n%+v %+v", f0, a0, f1, a1)
	}
	prev := SetExec(core.ExecCont)
	defer SetExec(prev)
	f2, a2 := AdaptSweep(transport.GM(), o)
	if f0 != f2 || a0 != a2 {
		t.Fatalf("continuation mode changed the adapt figure:\n%+v %+v\nvs\n%+v %+v", f0, a0, f2, a2)
	}
}
