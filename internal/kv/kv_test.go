package kv

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

const testKeys = 512

func testWorkload() Workload {
	return Workload{Ops: 120, NumKeys: testKeys, Theta: 0.9, ReadFrac: 0.9, Rate: 100000}
}

func testConfig(cc core.CacheConfig) core.Config {
	return core.Config{Threads: 8, Nodes: 4, Profile: transport.GM(), Cache: cc, Seed: 42}
}

func mustZipf(t *testing.T, n int64, theta float64) *Zipf {
	t.Helper()
	z, err := NewZipf(n, theta)
	if err != nil {
		t.Fatalf("NewZipf: %v", err)
	}
	return z
}

// runGoroutine runs preload + load in goroutine mode and returns the
// run stats plus the merged generator result.
func runGoroutine(t *testing.T, cfg core.Config, o Options, w Workload) (core.RunStats, ThreadResult) {
	t.Helper()
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	z := mustZipf(t, w.NumKeys, w.Theta)
	results := make([]ThreadResult, cfg.Threads)
	st, err := rt.Run(func(th *core.Thread) {
		tb := New(th, o)
		Preload(th, tb, w.NumKeys)
		results[th.ID()] = RunLoad(th, tb, w, z)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st, Merge(results)
}

// TestKVDeterminism: the same seed must give bit-identical results
// across repeat runs and host GOMAXPROCS.
func TestKVDeterminism(t *testing.T) {
	o := Options{Name: "kv", NumKeys: testKeys}
	w := testWorkload()
	st1, m1 := runGoroutine(t, testConfig(core.DefaultCache()), o, w)
	st2, m2 := runGoroutine(t, testConfig(core.DefaultCache()), o, w)
	if m1.Checksum != m2.Checksum {
		t.Fatalf("repeat run checksum diverged: %#x vs %#x", m1.Checksum, m2.Checksum)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("repeat run stats diverged:\n%+v\n%+v", st1, st2)
	}

	prev := runtime.GOMAXPROCS(1)
	st3, m3 := runGoroutine(t, testConfig(core.DefaultCache()), o, w)
	runtime.GOMAXPROCS(prev)
	if m3.Checksum != m1.Checksum || !reflect.DeepEqual(st3, st1) {
		t.Fatalf("GOMAXPROCS=1 run diverged: %#x vs %#x", m3.Checksum, m1.Checksum)
	}

	if m1.Ops != int64(testConfig(core.DefaultCache()).Threads)*w.Ops {
		t.Fatalf("op count %d, want %d", m1.Ops, 8*w.Ops)
	}
}

// TestKVGoldenChecksum pins the canonical smoke configuration to a
// checked-in checksum, so any change to the kv protocol, the layout
// arithmetic or the load generator that alters behaviour is caught in
// CI. Regenerate deliberately by updating the constant.
func TestKVGoldenChecksum(t *testing.T) {
	const golden = uint64(0x9a6a08d8cfc4d696)
	_, m := runGoroutine(t, testConfig(core.DefaultCache()), Options{Name: "kv", NumKeys: testKeys}, testWorkload())
	if m.Checksum != golden {
		t.Fatalf("golden checksum diverged: got %#x, want %#x", m.Checksum, golden)
	}
}

// TestCachedBeatsAMOnly: with a hot address cache, one-sided reads
// must beat the AM-only baseline on a read-heavy skewed workload.
func TestCachedBeatsAMOnly(t *testing.T) {
	o := Options{Name: "kv", NumKeys: testKeys}
	w := testWorkload()
	w.Rate = 0 // closed loop: elapsed time is pure op latency
	_, cached := runGoroutine(t, testConfig(core.DefaultCache()), o, w)
	amOnly := o
	amOnly.ReadViaAM = true
	_, am := runGoroutine(t, testConfig(core.NoCache()), amOnly, w)
	if cached.Ops != am.Ops {
		t.Fatalf("op counts diverged: %d vs %d", cached.Ops, am.Ops)
	}
	cachedMean := float64(cached.LatSum) / float64(cached.Ops)
	amMean := float64(am.LatSum) / float64(am.Ops)
	if cachedMean >= amMean {
		t.Fatalf("cached mean latency %.0fps not better than AM-only %.0fps", cachedMean, amMean)
	}
}

// TestTornReadRetry provokes the Storm read protocol's torn-read path
// deterministically: a one-sided GET lands inside a writer's widened
// seqlock window, observes the odd sequence word, and must retry
// exactly once through the lookup AM, returning the post-write value.
func TestTornReadRetry(t *testing.T) {
	cfg := core.Config{Threads: 4, Nodes: 2, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 7}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	o := Options{Name: "torn", NumKeys: 64, WriteWindow: 60 * sim.Us}
	var torn, rereads, amLookups int64
	var got uint64
	var gotOK bool
	var key uint64
	_, err = rt.Run(func(th *core.Thread) {
		tb := New(th, o)
		// Deterministic key homed on node 1, read from node 0.
		for k := uint64(1); ; k++ {
			if tb.HomeNode(k) == 1 {
				key = k
				break
			}
		}
		owner := tb.ShardOf(key)
		if th.ID() == owner {
			if !tb.Put(th, key, encodeValue(key, 1)) {
				panic("seed put failed")
			}
		}
		th.Barrier()
		if th.ID() == 0 {
			// Warm the address cache: miss (AM with piggyback), then hit.
			if _, ok := tb.Get(th, key); !ok {
				panic("warm read missed")
			}
			if _, ok := tb.Get(th, key); !ok {
				panic("warm read missed")
			}
			if tb.Stats.AMLookups != 0 {
				panic("warm reads should ride the runtime GET path, not kv AMs")
			}
		}
		th.Barrier()
		switch th.ID() {
		case owner:
			// Open a 60µs write window immediately after the barrier.
			tb.Put(th, key, encodeValue(key, 2))
		case 0:
			// Issue a one-sided read ~10µs in: it lands mid-window.
			th.Sleep(10 * sim.Us)
			got, gotOK = tb.Get(th, key)
			torn = tb.Stats.TornRetries
			rereads = tb.Stats.TornRereads
			amLookups = tb.Stats.AMLookups
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if torn != 1 {
		t.Fatalf("TornRetries = %d, want exactly 1", torn)
	}
	if rereads != 0 {
		t.Fatalf("TornRereads = %d, want 0 (reader is remote)", rereads)
	}
	if amLookups != 1 {
		t.Fatalf("AMLookups = %d, want exactly 1 (the retry)", amLookups)
	}
	if !gotOK || got != encodeValue(key, 2) {
		t.Fatalf("torn retry returned (%#x, %v), want the post-write value %#x", got, gotOK, encodeValue(key, 2))
	}
}

// TestPutDeleteGet exercises the full op mix including tombstone reuse.
func TestPutDeleteGet(t *testing.T) {
	cfg := core.Config{Threads: 4, Nodes: 2, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 3}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	_, err = rt.Run(func(th *core.Thread) {
		tb := New(th, Options{Name: "pdg", NumKeys: 128})
		th.Barrier()
		if th.ID() == 0 {
			for k := uint64(1); k <= 32; k++ {
				if !tb.Put(th, k, encodeValue(k, 9)) {
					panic("put failed")
				}
			}
			for k := uint64(1); k <= 32; k++ {
				v, ok := tb.Get(th, k)
				if !ok || v != encodeValue(k, 9) {
					panic("get after put")
				}
			}
			for k := uint64(1); k <= 32; k += 2 {
				if !tb.Delete(th, k) {
					panic("delete of present key")
				}
				if tb.Delete(th, k) {
					panic("double delete succeeded")
				}
			}
			for k := uint64(1); k <= 32; k++ {
				v, ok := tb.Get(th, k)
				if k%2 == 1 {
					if ok {
						panic("get after delete")
					}
				} else if !ok || v != encodeValue(k, 9) {
					panic("survivor key lost")
				}
			}
			// Tombstoned slots must be reusable.
			for k := uint64(1); k <= 32; k += 2 {
				if !tb.Put(th, k, encodeValue(k, 10)) {
					panic("reinsert into tombstone failed")
				}
			}
			for k := uint64(1); k <= 32; k += 2 {
				if v, ok := tb.Get(th, k); !ok || v != encodeValue(k, 10) {
					panic("reinserted key wrong")
				}
			}
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// A value whose bits equal the tombstone sentinel is an ordinary value:
// a put stores it whether it runs at the home node or ships as an AM.
func TestPutTombstoneBitsValue(t *testing.T) {
	cfg := core.Config{Threads: 4, Nodes: 2, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 3}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	remote := 0
	_, err = rt.Run(func(th *core.Thread) {
		tb := New(th, Options{Name: "ones", NumKeys: 64})
		th.Barrier()
		if th.ID() == 0 {
			for k := uint64(1); k <= 16; k++ {
				if tb.HomeNode(k) != th.Node() {
					remote++
				}
				if !tb.Put(th, k, tombstone) {
					t.Errorf("put %d failed", k)
				}
				if v, ok := tb.Get(th, k); !ok || v != tombstone {
					t.Errorf("key %d (home node %d): get = %#x, %v after putting %#x", k, tb.HomeNode(k), v, ok, tombstone)
				}
			}
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if remote == 0 {
		t.Fatal("no key shipped its put as an AM")
	}
}

// TestZipfShape sanity-checks the sampler: ranks stay in range, skew
// favours rank 1, and theta 0 is uniform-ish.
func TestZipfShape(t *testing.T) {
	const n, draws = 100, 20000
	rng := rand.New(rand.NewSource(1))
	z := mustZipf(t, n, 0.99)
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		r := z.Next(rng)
		if r < 1 || r > n {
			t.Fatalf("rank %d out of [1,%d]", r, n)
		}
		counts[r]++
	}
	if counts[1] < draws/10 {
		t.Fatalf("theta=0.99: rank 1 drawn %d/%d times, want heavy head", counts[1], draws)
	}
	u := mustZipf(t, n, 0)
	uc := make([]int, n+1)
	for i := 0; i < draws; i++ {
		r := u.Next(rng)
		if r < 1 || r > n {
			t.Fatalf("uniform rank %d out of range", r)
		}
		uc[r]++
	}
	if uc[1] > 3*draws/n {
		t.Fatalf("theta=0: rank 1 drawn %d times, want ~%d", uc[1], draws/n)
	}
	for k := int64(1); k <= 1000; k++ {
		key := ScrambleKey(k, 64)
		if key < 1 || key > 64 {
			t.Fatalf("scrambled key %d out of [1,64]", key)
		}
	}
}

// TestWorkloadValidate rejects the parameter garbage the CLIs guard.
func TestWorkloadValidate(t *testing.T) {
	good := testWorkload()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	nan := 0.0
	nan = nan / nan
	bad := []Workload{
		{Ops: 0, NumKeys: 1, ReadFrac: 0.5},
		{Ops: -3, NumKeys: 1, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 0, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 1, Theta: nan, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 1, Theta: 1.0, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 1, Theta: -0.1, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 1, ReadFrac: nan},
		{Ops: 1, NumKeys: 1, ReadFrac: 1.5},
		{Ops: 1, NumKeys: 1, ReadFrac: -0.5},
		{Ops: 1, NumKeys: 1, ReadFrac: 0.5, Rate: nan},
		{Ops: 1, NumKeys: 1, ReadFrac: 0.5, Rate: -1},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("bad workload %d accepted: %+v", i, w)
		}
	}
}

// TestQuantile checks the histogram quantile walks buckets correctly
// and that every q — including the edges — follows the single
// bucket-midpoint convention (no separate LatMax path).
func TestQuantile(t *testing.T) {
	var r ThreadResult
	if r.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	r.Hist[10] = 90      // [512, 1024) ps
	r.Hist[20] = 10      // [512k, 1M) ps
	r.LatMax = 123456789 // deliberately not a bucket midpoint
	p50 := r.Quantile(0.50)
	p99 := r.Quantile(0.99)
	if p50 < 512 || p50 >= 1024 {
		t.Fatalf("p50 = %d, want within bucket 10", p50)
	}
	if p99 < 512<<10 || p99 >= 1<<20 {
		t.Fatalf("p99 = %d, want within bucket 20", p99)
	}
	// Edge conventions: q>=1 clamps to the last sample and lands in the
	// last populated bucket — same figure as any q inside it, never
	// LatMax. q<=0 clamps to the first sample.
	if got := r.Quantile(1.0); got != p99 {
		t.Fatalf("Quantile(1.0) = %d, want bucket midpoint %d", got, p99)
	}
	if got := r.Quantile(2.0); got != p99 {
		t.Fatalf("Quantile(2.0) = %d, want bucket midpoint %d", got, p99)
	}
	if got := r.Quantile(0); got != p50 {
		t.Fatalf("Quantile(0) = %d, want first-bucket midpoint %d", got, p50)
	}
	if got := r.Quantile(-0.5); got != p50 {
		t.Fatalf("Quantile(-0.5) = %d, want first-bucket midpoint %d", got, p50)
	}
	// Zero-latency samples report exactly 0 under the same convention.
	var z ThreadResult
	z.Hist[0] = 4
	if z.Quantile(0.5) != 0 {
		t.Fatal("bucket-0 quantile not 0")
	}
}

// TestMergeOrderInvariance: the merged checksum is salted by thread
// id, not slice position, so any permutation of the per-thread
// results merges to the same digest.
func TestMergeOrderInvariance(t *testing.T) {
	rs := make([]ThreadResult, 8)
	rng := rand.New(rand.NewSource(99))
	for i := range rs {
		rs[i] = ThreadResult{Thread: i, Ops: int64(i + 1), Checksum: rng.Uint64()}
	}
	want := Merge(rs)
	shuffled := append([]ThreadResult(nil), rs...)
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := Merge(shuffled)
		if got.Checksum != want.Checksum || got.Ops != want.Ops {
			t.Fatalf("shuffled merge diverged: %+v vs %+v", got, want)
		}
	}
	// Distinct threads must still produce distinct digests (the salt is
	// not a no-op).
	rs[0].Thread, rs[1].Thread = rs[1].Thread, rs[0].Thread
	if Merge(rs).Checksum == want.Checksum {
		t.Fatal("swapping thread ids left the merged checksum unchanged")
	}
}

// TestPreloadContents: the O(keys)-total partitioned preload must
// install exactly the contents the old per-thread skip-scan did —
// every key in [1, NumKeys] present with its stamp-0 value, counts
// matching a brute-force ownership recount.
func TestPreloadContents(t *testing.T) {
	const numKeys = 256
	cfg := core.Config{Threads: 8, Nodes: 4, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 11}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	counts := make([]int64, cfg.Threads)
	_, err = rt.Run(func(th *core.Thread) {
		tb := New(th, Options{Name: "pre", NumKeys: numKeys})
		counts[th.ID()] = Preload(th, tb, numKeys)
		if th.ID() == 0 {
			for k := uint64(1); k <= numKeys; k++ {
				v, ok := tb.Get(th, k)
				if !ok || v != encodeValue(k, 0) {
					panic(fmt.Sprintf("preloaded key %d: got (%#x, %v), want (%#x, true)", k, v, ok, encodeValue(k, 0)))
				}
			}
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	g := normalize(&Options{Name: "pre", NumKeys: numKeys}, cfg.Threads)
	var total int64
	for tid := 0; tid < cfg.Threads; tid++ {
		var want int64
		for k := uint64(1); k <= numKeys; k++ {
			if g.shardOf(k) == tid {
				want++
			}
		}
		if counts[tid] != want {
			t.Fatalf("thread %d inserted %d keys, brute-force ownership says %d", tid, counts[tid], want)
		}
		total += counts[tid]
	}
	if total != numKeys {
		t.Fatalf("preload installed %d keys, want %d", total, numKeys)
	}
}

// TestIncr: the FetchAdd-backed increment path returns exact pre-add
// values, concurrent increments from every thread never lose an
// update, and absent keys report false.
func TestIncr(t *testing.T) {
	const numKeys = 64
	const key, absent, perThread = uint64(7), uint64(numKeys + 100), int64(25)
	var final uint64
	var incrs, misses int64
	cfg := testConfig(core.DefaultCache())
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	_, err = rt.Run(func(th *core.Thread) {
		tb := New(th, Options{Name: "incr", NumKeys: numKeys})
		Preload(th, tb, numKeys)
		for i := int64(0); i < perThread; i++ {
			if _, ok := tb.Incr(th, key, 2); !ok {
				panic("Incr missed a preloaded key")
			}
		}
		th.Barrier()
		if th.ID() == tb.ShardOf(key) {
			v, ok := tb.Get(th, key)
			if !ok {
				panic("incremented key vanished")
			}
			final = v
			incrs = tb.Stats.Incrs
		}
		if _, ok := tb.Incr(th, absent, 1); ok {
			panic("Incr of absent key reported present")
		}
		misses = tb.Stats.Misses
		th.Barrier()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := encodeValue(key, 0) + uint64(8*perThread)*2; final != want {
		t.Fatalf("final value %#x, want %#x (lost updates?)", final, want)
	}
	if incrs != perThread {
		t.Fatalf("owner thread counted %d incrs, want %d", incrs, perThread)
	}
	if misses == 0 {
		t.Fatal("absent-key Incr did not count a miss")
	}
}
