package bench

// Golden dual-mode runs: every stressmark executed once under
// goroutine mode (Runtime.Run) and once under continuation mode
// (Runtime.RunCont) with otherwise identical configs must produce
// bit-identical RunStats and checksums. This is the determinism
// contract of the continuation scheduler (see DESIGN.md): a
// continuation wait schedules exactly the events its blocking twin
// does, at the same virtual instants, in the same heap order.

import (
	"reflect"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/fault"
	"xlupc/internal/transport"
)

// runBothModes executes one stressmark under both execution modes and
// returns (goroutine stats, cont stats, goroutine checksum, cont
// checksum). cfg.Exec is overwritten per mode.
func runBothModes(t *testing.T, mark string, cfg core.Config, p dis.Params) (core.RunStats, core.RunStats, uint64, uint64) {
	t.Helper()
	fn, err := dis.ByName(mark)
	if err != nil {
		t.Fatalf("ByName(%s): %v", mark, err)
	}
	fnC, err := dis.ByNameC(mark)
	if err != nil {
		t.Fatalf("ByNameC(%s): %v", mark, err)
	}

	cfgG := cfg
	cfgG.Exec = core.ExecGoroutine
	rtG, err := core.NewRuntime(cfgG)
	if err != nil {
		t.Fatalf("NewRuntime (goroutine): %v", err)
	}
	checksG := make([]uint64, cfg.Threads)
	stG, err := rtG.Run(func(th *core.Thread) { checksG[th.ID()] = fn(th, p) })
	if err != nil {
		t.Fatalf("%s goroutine run: %v", mark, err)
	}

	cfgC := cfg
	cfgC.Exec = core.ExecCont
	rtC, err := core.NewRuntime(cfgC)
	if err != nil {
		t.Fatalf("NewRuntime (cont): %v", err)
	}
	checksC := make([]uint64, cfg.Threads)
	stC, err := rtC.RunCont(func(th *core.Thread, done func()) {
		fnC(th, p, func(c uint64) {
			checksC[th.ID()] = c
			done()
		})
	})
	if err != nil {
		t.Fatalf("%s cont run: %v", mark, err)
	}
	return stG, stC, dis.Checksum(checksG), dis.Checksum(checksC)
}

// parityConfig is one (config, params) point of the golden matrix.
type parityConfig struct {
	name string
	cfg  core.Config
	p    dis.Params
}

func parityMatrix() []parityConfig {
	const threads, nodes = 8, 4
	base := func() core.Config {
		return core.Config{
			Threads: threads, Nodes: nodes,
			Profile: transport.GM(),
			Cache:   core.DefaultCache(),
			Seed:    42,
		}
	}
	pts := []parityConfig{}

	c := base()
	pts = append(pts, parityConfig{"gm-cached", c, dis.Default(threads)})

	c = base()
	c.Cache = core.NoCache()
	pts = append(pts, parityConfig{"gm-nocache", c, dis.Default(threads)})

	c = base()
	c.Profile = transport.LAPI()
	pts = append(pts, parityConfig{"lapi-cached", c, dis.Default(threads)})

	c = base()
	cc := transport.DefaultCoalConfig()
	c.Coalesce = &cc
	p := dis.Default(threads)
	p.SplitPhase = true
	pts = append(pts, parityConfig{"gm-coalesce-splitphase", c, p})

	c = base()
	p = dis.Default(threads)
	p.Atomic = true
	pts = append(pts, parityConfig{"gm-atomic-update", c, p})

	c = base()
	c.Profile = transport.LAPI()
	p = dis.Default(threads)
	p.Atomic = true
	pts = append(pts, parityConfig{"lapi-atomic-update", c, p})

	c = base()
	cc = transport.DefaultCoalConfig()
	c.Coalesce = &cc
	p = dis.Default(threads)
	p.Atomic, p.SplitPhase = true, true
	pts = append(pts, parityConfig{"gm-coalesce-atomic-splitphase", c, p})

	c = base()
	c.Fault = &fault.Config{Drop: 0.01}
	rel := transport.DefaultRelConfig()
	c.Rel = &rel
	pts = append(pts, parityConfig{"gm-faulty-reliable", c, dis.Default(threads)})

	c = base()
	c.FlatBarrier = true
	pts = append(pts, parityConfig{"gm-flat-barrier", c, dis.Default(threads)})

	return pts
}

// TestContModeParity is the golden-run assertion: identical RunStats
// and checksums across execution modes, for every stressmark, over a
// matrix of transport/cache/coalescing/fault configs.
func TestContModeParity(t *testing.T) {
	for _, pc := range parityMatrix() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			for _, s := range dis.Suite() {
				mark := s.Name
				t.Run(mark, func(t *testing.T) {
					stG, stC, ckG, ckC := runBothModes(t, mark, pc.cfg, pc.p)
					if ckG != ckC {
						t.Errorf("checksum diverged: goroutine %x, cont %x", ckG, ckC)
					}
					if !reflect.DeepEqual(stG, stC) {
						t.Errorf("RunStats diverged:\n goroutine: %+v\n cont:      %+v", stG, stC)
					}
					name := pc.name + "/" + mark
					checkGolden(t, name, fingerprint{stG.KernelEvents, stG.Elapsed, ckG})
					checkGolden(t, name, fingerprint{stC.KernelEvents, stC.Elapsed, ckC})
				})
			}
		})
	}
}

// TestContModeMicroParity covers the microbenchmark shape (blocking
// one-op-at-a-time GET/PUT between two nodes) in both modes, including
// the Fence/Sleep cadence of the Figure 6/7 harness.
func TestContModeMicroParity(t *testing.T) {
	const size = 1024
	cfg := core.Config{
		Threads: 2, Nodes: 2,
		Profile: transport.GM(),
		Cache:   core.DefaultCache(),
		Seed:    3,
	}

	cfgG := cfg
	cfgG.Exec = core.ExecGoroutine
	rtG, err := core.NewRuntime(cfgG)
	if err != nil {
		t.Fatal(err)
	}
	stG, err := rtG.Run(func(th *core.Thread) { microBody(th, size) })
	if err != nil {
		t.Fatal(err)
	}

	cfgC := cfg
	cfgC.Exec = core.ExecCont
	rtC, err := core.NewRuntime(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	stC, err := rtC.RunCont(func(th *core.Thread, done func()) { microBodyC(th, size, done) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stG, stC) {
		t.Errorf("micro RunStats diverged:\n goroutine: %+v\n cont:      %+v", stG, stC)
	}
	checkGolden(t, "micro", fingerprint{stG.KernelEvents, stG.Elapsed, 0})
	checkGolden(t, "micro", fingerprint{stC.KernelEvents, stC.Elapsed, 0})
}

func microBody(t *core.Thread, size int) {
	elems := int64(size) * 2
	a := t.AllAlloc("micro", elems, 1, int64(size))
	t.Barrier()
	if t.ID() == 0 {
		buf := make([]byte, size)
		target := a.At(int64(size))
		for i := 0; i < 4; i++ {
			t.GetBulk(buf, target)
			t.PutBulk(target, buf)
			t.Fence()
		}
	}
	t.Barrier()
}

func microBodyC(t *core.Thread, size int, done func()) {
	elems := int64(size) * 2
	t.AllAllocC("micro", elems, 1, int64(size), func(a *core.SharedArray) {
		t.BarrierC(func() {
			finish := func() { t.BarrierC(done) }
			if t.ID() != 0 {
				finish()
				return
			}
			buf := make([]byte, size)
			target := a.At(int64(size))
			i := 0
			var iter func()
			iter = func() {
				if i == 4 {
					finish()
					return
				}
				i++
				t.GetBulkC(buf, target, func() {
					t.PutBulkC(target, buf, func() {
						t.FenceC(iter)
					})
				})
			}
			iter()
		})
	})
}
