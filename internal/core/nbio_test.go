package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// coalCfg returns a runtime config with message coalescing enabled.
func coalCfg(threads, nodes int, prof *transport.Profile, cache CacheConfig) Config {
	c := cfg(threads, nodes, prof, cache)
	coal := transport.DefaultCoalConfig()
	c.Coalesce = &coal
	return c
}

// Split-phase GETs must return exactly what the blocking path returns —
// on both transports, with the cache on and off, with and without
// coalescing, across element sizes and batch shapes.
func TestNbGetMatchesBlocking(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		for _, cc := range []CacheConfig{NoCache(), DefaultCache()} {
			for _, coal := range []bool{false, true} {
				name := fmt.Sprintf("%s/cache=%v/coal=%v", prof.Name, cc.Enabled, coal)
				t.Run(name, func(t *testing.T) {
					const threads, nodes, elems = 4, 2, 64
					c := cfg(threads, nodes, prof, cc)
					if coal {
						coalc := transport.DefaultCoalConfig()
						c.Coalesce = &coalc
					}
					mustRun(t, c, func(th *Thread) {
						a := th.AllAlloc("A", elems, 8, 8)
						for i := int64(0); i < elems; i++ {
							if a.Owner(i) == th.ID() {
								th.PutUint64(a.At(i), uint64(i)*31+uint64(th.ID()))
							}
						}
						th.Barrier()
						if th.ID() == 0 {
							want := make([]byte, elems*8)
							th.GetBulk(want, a.At(0))
							// Re-read split-phase, in batches of 8 elements
							// issued back to back before one SyncAll.
							got := make([]byte, elems*8)
							for base := 0; base < elems; base += 8 {
								th.NbGet(got[base*8:(base+8)*8], a.At(int64(base)))
							}
							th.SyncAll()
							if !bytes.Equal(got, want) {
								t.Error("split-phase GETs differ from blocking")
							}
							// Per-handle Sync as well.
							one := make([]byte, 8)
							h := th.NbGet(one, a.At(17))
							th.Sync(h)
							if !bytes.Equal(one, want[17*8:18*8]) {
								t.Error("single NbGet+Sync differs from blocking")
							}
						}
						th.Barrier()
					})
				})
			}
		}
	}
}

// Sync on a PUT handle guarantees target visibility: a remote reader
// released right after the writer's Sync must observe the data.
func TestNbPutSyncVisibility(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		for _, coal := range []bool{false, true} {
			name := fmt.Sprintf("%s/coal=%v", prof.Name, coal)
			t.Run(name, func(t *testing.T) {
				c := cfg(2, 2, prof, DefaultCache())
				if coal {
					coalc := transport.DefaultCoalConfig()
					c.Coalesce = &coalc
				}
				mustRun(t, c, func(th *Thread) {
					a := th.AllAlloc("A", 16, 8, 8) // elements 8.. on node 1
					th.Barrier()
					if th.ID() == 0 {
						src := make([]byte, 4*8)
						for i := range src {
							src[i] = byte(i + 1)
						}
						h := th.NbPut(a.At(10), src)
						th.Sync(h)
						// Visibility proven from the issuing thread without a
						// fence: a remote GET ordered after Sync must see it.
						got := make([]byte, 4*8)
						th.GetBulk(got, a.At(10))
						if !bytes.Equal(got, src) {
							t.Error("data not visible after Sync")
						}
					}
					th.Barrier()
				})
			})
		}
	}
}

// Fence (and barrier, which implies it) retires every outstanding
// split-phase handle: un-synced NbGets must hold valid data after it.
func TestFenceRetiresOutstandingHandles(t *testing.T) {
	mustRun(t, coalCfg(2, 2, transport.GM(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("A", 16, 8, 8)
		if a.Owner(12) == th.ID() {
			th.PutUint64(a.At(12), 777)
		}
		th.Barrier()
		if th.ID() == 0 {
			dst := make([]byte, 8)
			th.NbGet(dst, a.At(12)) // never explicitly synced
			th.Fence()
			if got := byteOrder.Uint64(dst); got != 777 {
				t.Errorf("after fence, un-synced NbGet buffer = %d, want 777", got)
			}
			src := make([]byte, 8)
			byteOrder.PutUint64(src, 888)
			th.NbPut(a.At(12), src) // retired by the barrier below
		}
		th.Barrier()
		if got := th.GetUint64(a.At(12)); got != 888 {
			t.Errorf("thread %d: un-synced NbPut invisible after barrier: %d", th.ID(), got)
		}
		th.Barrier()
	})
}

// Zero handles (empty or fully local transfers) and double Sync are
// no-ops; SyncAll with nothing outstanding is free.
func TestSyncEdgeCases(t *testing.T) {
	mustRun(t, cfg(2, 1, transport.GM(), NoCache()), func(th *Thread) {
		a := th.AllAlloc("A", 8, 8, 4)
		th.Barrier()
		if h := th.NbGet(nil, a.At(0)); h.Valid() {
			t.Error("empty NbGet returned a live handle")
		}
		dst := make([]byte, 8)
		h := th.NbGet(dst, a.At(int64(th.ID())*4)) // own element: local
		if h.Valid() {
			t.Error("fully local NbGet returned a live handle")
		}
		th.Sync(h)
		th.Sync(h) // double Sync of a zero handle
		th.SyncAll()
		th.Barrier()
	})
}

// With coalescing off (the default), the blocking paths are untouched:
// a blocking-only workload must take exactly the same virtual time
// whether or not a coalescing config is installed, because blocking
// operations never route through the buffers.
func TestBlockingUnaffectedByCoalesceConfig(t *testing.T) {
	run := func(c Config) sim.Time {
		st := mustRun(t, c, func(th *Thread) {
			a := th.AllAlloc("A", 128, 8, 8)
			th.Barrier()
			for i := 0; i < 30; i++ {
				idx := int64(th.Rand().Intn(128))
				th.GetUint64(a.At(idx))
				th.PutUint64(a.At(idx), uint64(i))
			}
			th.Fence()
			th.Barrier()
		})
		return st.Elapsed
	}
	plain := run(cfg(8, 4, transport.GM(), DefaultCache()))
	withCoal := run(coalCfg(8, 4, transport.GM(), DefaultCache()))
	if plain != withCoal {
		t.Fatalf("coalesce config changed a blocking-only run: %v vs %v", plain, withCoal)
	}
}

// Split-phase runs with coalescing are deterministic, and the coalesce
// counters reflect real batching: several messages per frame, zero when
// the feature is off.
func TestCoalesceStatsAndDeterminism(t *testing.T) {
	run := func(split bool) (sim.Time, RunStats) {
		c := cfg(4, 2, transport.LAPI(), DefaultCache())
		if split {
			coalc := transport.DefaultCoalConfig()
			c.Coalesce = &coalc
		}
		st := mustRun(t, c, func(th *Thread) {
			a := th.AllAlloc("A", 256, 8, 32)
			th.Barrier()
			dst := make([]byte, 8)
			for i := 0; i < 40; i++ {
				idx := int64((th.ID()*67 + i*13) % 256)
				if split {
					th.NbGet(dst, a.At(idx))
					if i%8 == 7 {
						th.SyncAll()
					}
				} else {
					th.GetBulk(dst, a.At(idx)) // blocking baseline
				}
			}
			th.SyncAll()
			th.Barrier()
		})
		return st.Elapsed, st
	}
	tOff, stOff := run(false)
	tOn, stOn := run(true)
	tOn2, _ := run(true)
	if tOn != tOn2 {
		t.Fatalf("coalesced run non-deterministic: %v vs %v", tOn, tOn2)
	}
	if stOff.CoalMsgs != 0 || stOff.CoalFrames != 0 {
		t.Fatalf("coalesce counters nonzero with feature off: %+v", stOff)
	}
	if stOn.CoalMsgs == 0 || stOn.CoalFrames == 0 {
		t.Fatalf("no coalescing recorded: msgs=%d frames=%d", stOn.CoalMsgs, stOn.CoalFrames)
	}
	if stOn.CoalFrames >= stOn.CoalMsgs {
		t.Fatalf("no batching: %d frames for %d messages", stOn.CoalFrames, stOn.CoalMsgs)
	}
	if !(tOn < tOff) {
		t.Fatalf("coalesced split-phase not faster than blocking: on=%v off=%v", tOn, tOff)
	}
}

// coalGUPS is a split-phase accumulate stream with coalescing on: every
// thread adds 1 to words owned by seeded partners on several nodes,
// syncing every batch, so threads of one node flush buffers toward
// different destinations at the same virtual instants. It returns the
// run's stats and the table's final sum (threads*updates when no
// update was lost).
func coalGUPS(t *testing.T, exec ExecMode) (RunStats, uint64) {
	t.Helper()
	const threads, nodes, words, updates, batch = 8, 4, 16, 48, 8
	c := coalCfg(threads, nodes, transport.GM(), DefaultCache())
	c.Exec = exec
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	target := func(tid, k int) int64 {
		h := uint64(tid)*0x9E3779B97F4A7C15 ^ uint64(k)*0xBF58476D1CE4E5B9
		h ^= h >> 29
		p := (tid + 2 + int(h%uint64(threads-2))) % threads // never tid or its node-mate
		if p/(threads/nodes) == tid/(threads/nodes) {
			p = (p + threads/nodes) % threads
		}
		return int64(p)*words + int64(h>>8)%words
	}
	var sum uint64
	var a *SharedArray
	var st RunStats
	if exec == ExecCont {
		st, err = rt.RunCont(func(th *Thread, done func()) {
			th.AllAllocC("gups", threads*words, 8, words, func(arr *SharedArray) {
				a = arr
				k := 0
				sim.Loop(func(next func()) {
					if k < updates {
						r := a.At(target(th.ID(), k))
						k++
						th.nbAtomicC(r, transport.AtomicAccumulate, 1, 0, nil, func(Handle) {
							if k%batch == 0 {
								th.SyncAllC(next)
								return
							}
							next()
						})
						return
					}
					th.SyncAllC(func() {
						th.BarrierC(func() {
							if th.ID() != 0 {
								th.BarrierC(done)
								return
							}
							i := int64(0)
							sim.Loop(func(step func()) {
								if i == threads*words {
									th.BarrierC(done)
									return
								}
								th.GetUint64C(a.At(i), func(v uint64) {
									sum += v
									i++
									step()
								})
							})
						})
					})
				})
			})
		})
	} else {
		st, err = rt.Run(func(th *Thread) {
			a = th.AllAlloc("gups", threads*words, 8, words)
			for k := 0; k < updates; k++ {
				th.NbAccumulate(a.At(target(th.ID(), k)), 1)
				if (k+1)%batch == 0 {
					th.SyncAll()
				}
			}
			th.SyncAll()
			th.Barrier()
			if th.ID() == 0 {
				for i := int64(0); i < threads*words; i++ {
					sum += th.GetUint64(a.At(i))
				}
			}
			th.Barrier()
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return st, sum
}

// TestCoalescedSyncAcrossDestinations is the regression test for the
// coalescer defect where a sync flush collected a node's open
// buffers, suspended on the first flush, and then dereferenced a buffer
// another thread of the same node had flushed (and removed) meanwhile.
// Two threads of node 0 each buffer GETs toward nodes 1 and 2 and sync
// at the same instant; then a GUPS-style stream with partners on
// several nodes per source node. Both execution modes must complete
// with the same results.
func TestCoalescedSyncAcrossDestinations(t *testing.T) {
	const threads, nodes, elems = 6, 3, 3 * 8
	twoSyncs := func(exec ExecMode) (RunStats, [2][2]uint64) {
		c := coalCfg(threads, nodes, transport.GM(), NoCache())
		c.Exec = exec
		rt, err := NewRuntime(c)
		if err != nil {
			t.Fatal(err)
		}
		var got [2][2]uint64
		var a *SharedArray
		var bufs [2][2][8]byte
		var st RunStats
		// Threads 0 and 1 share node 0; elements 8 and 16 live on nodes
		// 1 and 2 (block 4, two threads per node).
		refs := func() [2]Ref { return [2]Ref{a.At(8), a.At(16)} }
		if exec == ExecCont {
			st, err = rt.RunCont(func(th *Thread, done func()) {
				th.AllAllocC("v", elems, 8, 4, func(arr *SharedArray) {
					a = arr
					init := func(next func()) {
						if th.ID() != 2 && th.ID() != 4 {
							next()
							return
						}
						th.PutUint64C(a.At(int64(th.ID())*4), uint64(100+th.ID()), func() { th.FenceC(next) })
					}
					init(func() {
						th.BarrierC(func() {
							if th.ID() > 1 {
								th.BarrierC(done)
								return
							}
							r := refs()
							id := th.ID()
							th.NbGetC(bufs[id][0][:], r[id], func(Handle) {
								th.NbGetC(bufs[id][1][:], r[1-id], func(Handle) {
									th.SyncAllC(func() {
										got[id][0] = byteOrder.Uint64(bufs[id][0][:])
										got[id][1] = byteOrder.Uint64(bufs[id][1][:])
										th.BarrierC(done)
									})
								})
							})
						})
					})
				})
			})
		} else {
			st, err = rt.Run(func(th *Thread) {
				a = th.AllAlloc("v", elems, 8, 4)
				if th.ID() == 2 || th.ID() == 4 {
					th.PutUint64(a.At(int64(th.ID())*4), uint64(100+th.ID()))
					th.Fence()
				}
				th.Barrier()
				if id := th.ID(); id <= 1 {
					r := refs()
					th.NbGet(bufs[id][0][:], r[id])
					th.NbGet(bufs[id][1][:], r[1-id])
					th.SyncAll()
					got[id][0] = byteOrder.Uint64(bufs[id][0][:])
					got[id][1] = byteOrder.Uint64(bufs[id][1][:])
				}
				th.Barrier()
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		return st, got
	}
	want := [2][2]uint64{{102, 104}, {104, 102}}
	stG, gotG := twoSyncs(ExecGoroutine)
	stC, gotC := twoSyncs(ExecCont)
	if gotG != want || gotC != want {
		t.Fatalf("read back goroutine %v, cont %v, want %v", gotG, gotC, want)
	}
	if !reflect.DeepEqual(stG, stC) {
		t.Errorf("two-sync RunStats diverged between modes:\n goroutine: %+v\n cont:      %+v", stG, stC)
	}

	gG, sumG := coalGUPS(t, ExecGoroutine)
	gC, sumC := coalGUPS(t, ExecCont)
	if sumG != 8*48 || sumC != 8*48 {
		t.Fatalf("GUPS table sums goroutine %d, cont %d, want %d", sumG, sumC, 8*48)
	}
	if gG.CoalFrames == 0 {
		t.Fatal("GUPS run coalesced nothing")
	}
	if !reflect.DeepEqual(gG, gC) {
		t.Errorf("GUPS RunStats diverged between modes:\n goroutine: %+v\n cont:      %+v", gG, gC)
	}
}

// Draining the outstanding handles keeps their list's backing array, so
// a steady issue/SyncAll loop stops growing it after the first batch.
func TestSyncAllKeepsOutstandingArray(t *testing.T) {
	mustRun(t, cfg(4, 2, transport.LAPI(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("a", 64, 8, 8)
		th.Barrier()
		var w [8]byte
		caps := make([]int, 4)
		for round := range caps {
			for i := int64(0); i < 8; i++ {
				th.NbGet(w[:], a.At(int64((th.ID()+2)%4)*8+i)) // on the other node
			}
			th.SyncAll()
			if len(th.nbOut) != 0 || th.nbHead != 0 {
				t.Fatalf("thread %d: %d handles outstanding from %d after SyncAll", th.ID(), len(th.nbOut), th.nbHead)
			}
			caps[round] = cap(th.nbOut)
		}
		for _, c := range caps {
			if c < 8 || c != caps[0] {
				t.Errorf("thread %d: outstanding list capacity %v after each SyncAll, want the first batch's array kept", th.ID(), caps)
				return
			}
		}
	})
}
