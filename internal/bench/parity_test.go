package bench

// Golden runs: every stressmark, over a matrix of transport, cache,
// coalescing and fault configs, and the microbenchmark shape are
// pinned to absolute fingerprints in testdata/parity_golden.txt.

import (
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/fault"
	"xlupc/internal/transport"
)

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

// TestContModeParity pins every stressmark at every matrix point to
// its golden fingerprint.
func TestContModeParity(t *testing.T) {
	for _, pc := range parityMatrix() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			for _, s := range dis.Suite() {
				mark := s.Name
				t.Run(mark, func(t *testing.T) {
					st, ck, _ := runMark(mark, pc.cfg, pc.p)
					checkGolden(t, pc.name+"/"+mark, fingerprint{st.KernelEvents, st.Elapsed, ck})
				})
			}
		})
	}
}

// TestContModeMicroParity pins the microbenchmark shape (blocking
// one-op-at-a-time GET/PUT between two nodes), including the
// Fence/Sleep cadence of the Figure 6/7 harness, to its golden row.
func TestContModeMicroParity(t *testing.T) {
	const size = 1024
	rt, err := core.NewRuntime(core.Config{
		Threads: 2, Nodes: 2,
		Profile: transport.GM(),
		Cache:   core.DefaultCache(),
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.Run(func(th *core.Thread) { microBody(th, size) })
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "micro", fingerprint{st.KernelEvents, st.Elapsed, 0})
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
