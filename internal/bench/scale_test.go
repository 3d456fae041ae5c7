package bench

import (
	"os"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/fault"
	"xlupc/internal/transport"
)

// smallBig scales the checked-in sweep point down to test size.
func smallBig() BigOpts {
	o := DefaultBigOpts()
	o.Threads = 256
	o.Nodes = 16
	return o
}

// TestScaleWorkloadParity asserts the big-scale workload obeys the
// dual-mode determinism contract at test scale, on a clean wire and
// under packet loss with reliable delivery.
func TestScaleWorkloadParity(t *testing.T) {
	og := smallBig()
	og.Exec = core.ExecGoroutine
	g, err := ScaleMark(og)
	if err != nil {
		t.Fatal(err)
	}
	oc := smallBig()
	oc.Exec = core.ExecCont
	c, err := ScaleMark(oc)
	if err != nil {
		t.Fatal(err)
	}
	if g.KernelEvents != c.KernelEvents {
		t.Errorf("KernelEvents diverged: goroutine %d, cont %d", g.KernelEvents, c.KernelEvents)
	}
	if g.Checksum != c.Checksum {
		t.Errorf("Checksum diverged: goroutine %x, cont %x", g.Checksum, c.Checksum)
	}
	if g.Elapsed != c.Elapsed {
		t.Errorf("Elapsed diverged: goroutine %v, cont %v", g.Elapsed, c.Elapsed)
	}
	if g.KernelEvents == 0 {
		t.Error("workload processed no kernel events")
	}
	checkGolden(t, "scale-256-16", fingerprint{g.KernelEvents, g.Elapsed, g.Checksum})
	checkGolden(t, "scale-256-16", fingerprint{c.KernelEvents, c.Elapsed, c.Checksum})

	// Under loss the retransmit, ack and duplicate-suppression paths
	// resume continuation threads too.
	o := smallBig()
	cache := core.DefaultCache()
	cache.Capacity = o.Nodes
	rel := transport.DefaultRelConfig()
	cfg := core.Config{
		Threads: o.Threads, Nodes: o.Nodes, Profile: o.Prof, Cache: cache, Seed: o.Seed,
		Fault: &fault.Config{Drop: 0.01}, Rel: &rel,
	}
	for _, mode := range []core.ExecMode{core.ExecGoroutine, core.ExecCont} {
		fp, st := runBigWith(t, cfg, mode, o)
		if st.Retransmits == 0 {
			t.Errorf("%s: no retransmits under 1%% loss: the recovery path was not exercised", execName(mode))
		}
		checkGolden(t, "scale-256-16-lossy", fp)
	}
}

// runBigWith runs the big-scale workload on a runtime built from cfg in
// the given execution mode.
func runBigWith(t *testing.T, cfg core.Config, mode core.ExecMode, o BigOpts) (fingerprint, core.RunStats) {
	t.Helper()
	cfg.Exec = mode
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := make([]uint64, cfg.Threads)
	var st core.RunStats
	if mode == core.ExecCont {
		st, err = rt.RunCont(func(th *core.Thread, done func()) {
			bigBodyC(th, o, func(c uint64) {
				checks[th.ID()] = c
				done()
			})
		})
	} else {
		st, err = rt.Run(func(th *core.Thread) { checks[th.ID()] = bigBody(th, o) })
	}
	if err != nil {
		t.Fatalf("%s run: %v", execName(mode), err)
	}
	return fingerprint{st.KernelEvents, st.Elapsed, bigChecksum(checks)}, st
}

// TestScalePrint exercises the two-mode comparison printer at test
// scale (it is what cmd/xlupc-report runs at 32k).
func TestScalePrint(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	pts, err := PrintScale(os.Stderr, smallBig())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].KernelEvents != pts[1].KernelEvents {
		t.Errorf("modes diverged: %d vs %d events", pts[0].KernelEvents, pts[1].KernelEvents)
	}
}

// BenchmarkBigScaleGoroutine and BenchmarkBigScaleCont time the sweep
// point in each mode under -benchmem; the CI smoke (ci_smoke_test.go)
// compares them against the checked-in baseline. The default benchmark
// scale is reduced from the 32k acceptance point so `go test -bench`
// stays affordable; set XLUPC_BENCH_FULL=1 to run the full point.
func benchBigOpts() BigOpts {
	o := DefaultBigOpts()
	if os.Getenv("XLUPC_BENCH_FULL") == "" {
		o.Threads = 8192
		o.Nodes = 256
	}
	return o
}

func BenchmarkBigScaleGoroutine(b *testing.B) {
	o := benchBigOpts()
	o.Exec = core.ExecGoroutine
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := ScaleMark(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sp.EventsPerSec, "events/s")
	}
}

func BenchmarkBigScaleCont(b *testing.B) {
	o := benchBigOpts()
	o.Exec = core.ExecCont
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := ScaleMark(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sp.EventsPerSec, "events/s")
	}
}
