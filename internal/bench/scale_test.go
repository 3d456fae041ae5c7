package bench

import (
	"os"
	"testing"

	"xlupc/internal/core"
)

// smallBig scales the checked-in sweep point down to test size.
func smallBig() BigOpts {
	o := DefaultBigOpts()
	o.Threads = 256
	o.Nodes = 16
	return o
}

// TestScaleWorkloadParity asserts the big-scale workload obeys the
// dual-mode determinism contract at test scale.
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
