// Package kv is a Storm-style sharded key-value dataplane layered on
// the PGAS runtime. The table is a sharded open-addressing hash table
// living in ordinary shared memory: each UPC thread owns one shard — a
// run of fixed-size 64-byte bucket lines inside its node's shared
// segment — and key→shard placement is pure hashing, so any thread can
// compute a key's home without metadata traffic.
//
// Reads follow the Storm protocol: a GET is a one-sided RDMA read of
// the bucket line through the remote address cache (falling back to
// the runtime's AM GET on a cache miss, which piggybacks the base
// address so the next read goes one-sided). Writers never block
// readers; instead every bucket line carries a per-bucket sequence
// word maintained like a seqlock — a writer flips it odd, mutates the
// slot, and flips it even — so a one-sided read that lands inside the
// write window observes an odd sequence, knows the line is torn, and
// retries exactly once through a user-level active message executed at
// the home node under the shard lock (authoritative by construction).
// Puts and deletes from non-home nodes always ship as AMs; co-located
// threads write directly under the same per-node lock.
//
// In the simulation a 64-byte memory read is instantaneous at the
// point of RDMA completion, so a line can never be half-copied; the
// odd sequence word is therefore the only torn-read manifestation, and
// observing it is a complete detection.
package kv

import (
	"encoding/binary"
	"fmt"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
)

// Handler ids the kv subsystem claims in the runtime's user-AM table.
// One Table per Runtime: a second New in the same run would
// double-register and panic, which is the intended loud failure.
const (
	hLookup core.UserHandlerID = 1 + iota
	hPut
	hDelete
)

// Bucket line geometry: 8 words of 8 bytes. Word 0 is the seqlock
// word, words 1..6 hold three (key, value) slot pairs, word 7 pads the
// line to 64 bytes so lines never share a cache-line-sized transfer.
const (
	bucketWords    = 8
	bucketBytes    = bucketWords * 8
	slotsPerBucket = 3
	// probeWindow is the open-addressing probe length in bucket lines;
	// a key lives within probeWindow lines of its hash bucket or the
	// insert reports overflow.
	probeWindow = 4
)

// Key-word sentinels. Real keys must avoid both, so callers use keys
// in [1, 2^63); the load generator's scrambler guarantees it.
const (
	emptyKey  = uint64(0)
	tombstone = ^uint64(0)
)

// rereadBackoff spaces the local torn-read re-read loop so it always
// advances virtual time even on a zero-latency memory profile.
const rereadBackoff = 100 * sim.Ns

// Reply status bytes of the put/delete AMs.
const (
	statusOK   = 0
	statusFail = 1 // put: window overflow; delete: key absent
)

// Wire sizes of the AM argument payloads beyond the fixed envelope.
const (
	lookupWireBytes = 8  // key
	putWireBytes    = 16 // key + value
	deleteWireBytes = 8  // key
)

// Options configures a Table. All threads must pass identical Options
// to New (it is a collective).
type Options struct {
	// Name labels the shared segment in the SVD (default "kv").
	Name string
	// NumKeys sizes the table: the key population Preload installs and
	// the default shard sizing target.
	NumKeys int64
	// BucketsPerShard overrides the shard size in bucket lines
	// (0 sizes for NumKeys at ~25% slot load).
	BucketsPerShard int64
	// WriteWindow widens the seqlock's odd-sequence window (the
	// vulnerable interval a one-sided read can land in). Zero leaves
	// only the natural shared-memory write costs; tests widen it to
	// provoke torn reads deterministically.
	WriteWindow sim.Duration
	// ReadViaAM disables the one-sided read path: every remote GET
	// ships as a lookup AM. This is the measurement baseline the
	// cached path is compared against; local reads stay direct either
	// way, exactly as an AM-only runtime would behave.
	ReadViaAM bool
}

// Stats are one thread's operation counters (each thread holds its own
// Table instance, so counters need no synchronization).
type Stats struct {
	Gets, Puts, Deletes int64
	Incrs               int64 // read-modify-writes shipped as remote atomics
	LocalOps, RemoteOps int64
	Found, Misses       int64
	TornRetries         int64 // remote reads that saw an odd sequence and retried via AM
	TornRereads         int64 // local reads that saw an odd sequence and re-read
	AMLookups           int64 // lookups shipped as AMs (torn retries + ReadViaAM)
	Overflows           int64 // puts rejected because the probe window was full
}

// Add folds o's counters into s — aggregating per-thread Stats into a
// run-level total.
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.Deletes += o.Deletes
	s.Incrs += o.Incrs
	s.LocalOps += o.LocalOps
	s.RemoteOps += o.RemoteOps
	s.Found += o.Found
	s.Misses += o.Misses
	s.TornRetries += o.TornRetries
	s.TornRereads += o.TornRereads
	s.AMLookups += o.AMLookups
	s.Overflows += o.Overflows
}

// geom is the sharding arithmetic, identical on every thread and
// captured immutably by the AM handlers.
type geom struct {
	threads int
	buckets int64 // bucket lines per shard
	window  sim.Duration
	lockKey string
}

func (g geom) shardWords() int64 { return g.buckets * bucketWords }

// shardOf places a key on its owner thread.
func (g geom) shardOf(key uint64) int { return int(splitmix64(key) % uint64(g.threads)) }

// bucketOf picks the key's home bucket line inside its shard, using
// hash bits independent of the ones shardOf consumed.
func (g geom) bucketOf(key uint64) int64 {
	return int64((splitmix64(key) / uint64(g.threads)) % uint64(g.buckets))
}

// lineIdx is the global element index of the seq word of bucket b in
// shard s. Shard s is exactly block s of the block-cyclic layout, so
// the whole shard — and every 64-byte line in it — is contiguous in
// the owner's chunk and never splits across a ContigRun boundary.
func (g geom) lineIdx(shard int, b int64) int64 {
	return int64(shard)*g.shardWords() + b*bucketWords
}

// slotRef names one slot: the global element index of its bucket
// line's seq word plus the slot number within the line.
type slotRef struct {
	line int64
	slot int
}

// Table is one thread's view of the shared key-value store. Each
// thread constructs its own instance over the collectively allocated
// segment; Stats and the scratch buffers are therefore thread-private.
type Table struct {
	a     *core.SharedArray
	g     geom
	opts  Options
	Stats Stats

	line [bucketBytes]byte // bucket-line scratch (one op in flight per thread)
	rep  [8]byte           // AM reply scratch
	w    [16]byte          // slot staging for writes

	// loc memoizes key→slot for the Incr path (thread-private, like
	// Stats). Valid only under Incr's stable-residency assumption: the
	// memoized keys are never deleted, so a slot, once found, stays put
	// (puts update in place).
	loc map[uint64]slotRef
}

// normalize fills Options defaults and derives the geometry.
func normalize(o *Options, threads int) geom {
	if o.Name == "" {
		o.Name = "kv"
	}
	if o.NumKeys <= 0 {
		panic("kv: Options.NumKeys must be positive")
	}
	b := o.BucketsPerShard
	if b <= 0 {
		// Size for ~25% slot load: 4·K/T slots per shard across
		// 3-slot buckets, so probeWindow overflow stays negligible.
		b = (4*o.NumKeys + 3*int64(threads) - 1) / (3 * int64(threads))
	}
	if b < probeWindow {
		b = probeWindow
	}
	return geom{threads: threads, buckets: b, window: o.WriteWindow, lockKey: "kv:" + o.Name + ":lock"}
}

// New collectively builds the table: thread 0 registers the AM
// handlers (before the allocation's opening barrier, so no kv AM can
// race registration) and every thread allocates the shared bucket
// segment — one block per shard, labelled KindKV in every SVD replica.
func New(t *core.Thread, o Options) *Table {
	g := normalize(&o, t.Threads())
	if t.ID() == 0 {
		registerHandlers(t.Runtime(), g)
	}
	a := t.AllAllocKind(svd.KindKV, o.Name, int64(g.threads)*g.shardWords(), 8, g.shardWords())
	return &Table{a: a, g: g, opts: o}
}

// Array exposes the underlying shared segment (tests, diagnostics).
func (tb *Table) Array() *core.SharedArray { return tb.a }

// ShardOf reports the owner thread of a key (load placement, tests).
func (tb *Table) ShardOf(key uint64) int { return tb.g.shardOf(key) }

// HomeNode reports the node a key's shard lives on.
func (tb *Table) HomeNode(key uint64) int {
	return tb.a.Layout().NodeOf(tb.g.lineIdx(tb.g.shardOf(key), 0))
}

// lock returns this node's shard lock: writers and AM lookups
// serialize under it; one-sided readers never take it.
func (tb *Table) lock(t *core.Thread) *sim.Resource {
	key := tb.g.lockKey
	return t.NodeLocal(key, func(k *sim.Kernel) any { return sim.NewResource(k, key, 1) }).(*sim.Resource)
}

// --- Read path ----------------------------------------------------------

// Get reads key, returning its value and presence. Remote reads are
// one-sided through the address cache; a torn line (odd seq) retries
// exactly once through the authoritative lookup AM.
func (tb *Table) Get(t *core.Thread, key uint64) (uint64, bool) {
	tb.Stats.Gets++
	g := tb.g
	shard := g.shardOf(key)
	home := tb.a.Layout().NodeOf(g.lineIdx(shard, 0))
	local := home == t.Node()
	if local {
		tb.Stats.LocalOps++
	} else {
		tb.Stats.RemoteOps++
	}
	if !local && tb.opts.ReadViaAM {
		return tb.amGet(t, home, key)
	}
	b0 := g.bucketOf(key)
	for w := int64(0); w < probeWindow; w++ {
		idx := g.lineIdx(shard, (b0+w)%g.buckets)
		t.GetBulk(tb.line[:], tb.a.At(idx))
		for binary.LittleEndian.Uint64(tb.line[:8])&1 == 1 {
			if !local {
				// Torn one-sided read: the write landed mid-window.
				// One AM retry is authoritative — the handler runs
				// under the shard lock at the home node.
				tb.Stats.TornRetries++
				return tb.amGet(t, home, key)
			}
			// Local torn read: the writer finishes within its window,
			// so a spaced re-read converges.
			tb.Stats.TornRereads++
			t.Sleep(rereadBackoff)
			t.GetBulk(tb.line[:], tb.a.At(idx))
		}
		if v, ok, stop := scanLine(tb.line[:], key); stop {
			if ok {
				tb.Stats.Found++
			} else {
				tb.Stats.Misses++
			}
			return v, ok
		}
	}
	tb.Stats.Misses++
	return 0, false
}

// scanLine inspects a consistent bucket line for key: (value, found,
// stop). stop is false only when the line is full of other live keys
// or tombstones, i.e. probing must continue.
func scanLine(line []byte, key uint64) (v uint64, ok, stop bool) {
	for s := 0; s < slotsPerBucket; s++ {
		k := binary.LittleEndian.Uint64(line[8+16*s:])
		if k == key {
			return binary.LittleEndian.Uint64(line[16+16*s:]), true, true
		}
		if k == emptyKey {
			// Inserts fill the first free slot and deletes only ever
			// write tombstones, so an empty slot proves the key is
			// nowhere later in the window.
			return 0, false, true
		}
	}
	return 0, false, false
}

func (tb *Table) amGet(t *core.Thread, home int, key uint64) (uint64, bool) {
	tb.Stats.AMLookups++
	n := t.CallAM(tb.a, home, hLookup, key, 0, lookupWireBytes, tb.rep[:], "kv_lookup")
	if n == 0 {
		tb.Stats.Misses++
		return 0, false
	}
	tb.Stats.Found++
	return binary.LittleEndian.Uint64(tb.rep[:]), true
}

// --- Write path ---------------------------------------------------------

// Put installs (key, val), updating in place when the key exists. It
// reports false when the probe window is full (overflow). Writes at
// the home node go direct under the shard lock; remote writes ship as
// AMs executed there.
func (tb *Table) Put(t *core.Thread, key, val uint64) bool {
	checkKey(key)
	tb.Stats.Puts++
	if tb.HomeNode(key) == t.Node() {
		tb.Stats.LocalOps++
		return tb.directPut(t, key, val)
	}
	tb.Stats.RemoteOps++
	n := t.CallAM(tb.a, tb.HomeNode(key), hPut, key, val, putWireBytes, tb.rep[:], "kv_put")
	if n != 1 {
		panic(fmt.Sprintf("kv: put reply of %d bytes", n))
	}
	if tb.rep[0] != statusOK {
		tb.Stats.Overflows++
		return false
	}
	return true
}

// Delete removes key, reporting whether it was present.
func (tb *Table) Delete(t *core.Thread, key uint64) bool {
	checkKey(key)
	tb.Stats.Deletes++
	if tb.HomeNode(key) == t.Node() {
		tb.Stats.LocalOps++
		return tb.directDelete(t, key)
	}
	tb.Stats.RemoteOps++
	n := t.CallAM(tb.a, tb.HomeNode(key), hDelete, key, 0, deleteWireBytes, tb.rep[:], "kv_delete")
	if n != 1 {
		panic(fmt.Sprintf("kv: delete reply of %d bytes", n))
	}
	return tb.rep[0] == statusOK
}

func checkKey(key uint64) {
	if key == emptyKey || key == tombstone {
		panic(fmt.Sprintf("kv: key %#x collides with a slot sentinel", key))
	}
}

// scan walks the probe window under the shard lock, returning the
// key's slot if present, else the first free (empty or tombstone)
// slot. Reads go through the thread's local GET path (the caller holds
// the shard's home-node lock, so lines are consistent).
func (tb *Table) scan(t *core.Thread, key uint64) (hit, free slotRef, hitOK, freeOK bool) {
	g := tb.g
	shard := g.shardOf(key)
	b0 := g.bucketOf(key)
	for w := int64(0); w < probeWindow; w++ {
		idx := g.lineIdx(shard, (b0+w)%g.buckets)
		t.GetBulk(tb.line[:], tb.a.At(idx))
		hit, free, hitOK, freeOK = scanLineWrite(tb.line[:], key, idx, free, freeOK)
		if hitOK || stopAtEmpty(tb.line[:]) {
			return
		}
	}
	return
}

// scanLineWrite is the write-path per-line scan: find key, and track
// the first free slot across lines.
func scanLineWrite(line []byte, key uint64, idx int64, free slotRef, freeOK bool) (slotRef, slotRef, bool, bool) {
	for s := 0; s < slotsPerBucket; s++ {
		k := binary.LittleEndian.Uint64(line[8+16*s:])
		if k == key {
			return slotRef{idx, s}, free, true, freeOK
		}
		if (k == emptyKey || k == tombstone) && !freeOK {
			free, freeOK = slotRef{idx, s}, true
		}
		if k == emptyKey {
			// Empty proves absence; the free slot is already recorded.
			return slotRef{}, free, false, freeOK
		}
	}
	return slotRef{}, free, false, freeOK
}

func isEmptySlot(line []byte, s int) bool {
	return binary.LittleEndian.Uint64(line[8+16*s:]) == emptyKey
}

func stopAtEmpty(line []byte) bool {
	for s := 0; s < slotsPerBucket; s++ {
		if isEmptySlot(line, s) {
			return true
		}
	}
	return false
}

// writeSlot runs the seqlock write protocol on tgt: seq goes odd, the
// slot is written inside the window, seq goes even. Caller holds the
// shard lock.
func (tb *Table) writeSlot(t *core.Thread, tgt slotRef, key, val uint64) {
	at := tb.a.At(tgt.line)
	t.GetBulk(tb.w[:8], at)
	seq := binary.LittleEndian.Uint64(tb.w[:8])
	t.PutUint64(at, seq+1)
	t.Sleep(tb.g.window)
	binary.LittleEndian.PutUint64(tb.w[0:8], key)
	binary.LittleEndian.PutUint64(tb.w[8:16], val)
	t.PutBulk(tb.a.At(tgt.line+int64(1+2*tgt.slot)), tb.w[:16])
	t.PutUint64(at, seq+2)
}

// deleteSlot tombstones tgt's key word under the seqlock protocol.
func (tb *Table) deleteSlot(t *core.Thread, tgt slotRef) {
	at := tb.a.At(tgt.line)
	t.GetBulk(tb.w[:8], at)
	seq := binary.LittleEndian.Uint64(tb.w[:8])
	t.PutUint64(at, seq+1)
	t.Sleep(tb.g.window)
	t.PutUint64(tb.a.At(tgt.line+int64(1+2*tgt.slot)), tombstone)
	t.PutUint64(at, seq+2)
}

func (tb *Table) directPut(t *core.Thread, key, val uint64) bool {
	lock := tb.lock(t)
	t.Acquire(lock)
	hit, free, hitOK, freeOK := tb.scan(t, key)
	tgt := hit
	if !hitOK {
		if !freeOK {
			lock.Release()
			tb.Stats.Overflows++
			return false
		}
		tgt = free
	}
	tb.writeSlot(t, tgt, key, val)
	lock.Release()
	return true
}

func (tb *Table) directDelete(t *core.Thread, key uint64) bool {
	lock := tb.lock(t)
	t.Acquire(lock)
	hit, _, hitOK, _ := tb.scan(t, key)
	if !hitOK {
		lock.Release()
		return false
	}
	tb.deleteSlot(t, hit)
	lock.Release()
	return true
}

// --- Increment path (remote atomics) -------------------------------------

// valueIdx is the global element index of slot tgt's value word (the
// line's seq word, then (key, value) pairs: key at 1+2s, value at
// 2+2s).
func valueIdx(tgt slotRef) int64 { return tgt.line + int64(2+2*tgt.slot) }

// Incr atomically adds delta to key's value word with one FetchAdd
// executed at the home node — a single message instead of the
// GET+compute+PUT round trip — returning the pre-add value and whether
// the key was present. The slot is located with a probe read on first
// use and memoized thread-locally, so a hot counter costs exactly one
// atomic per Incr. This rides on a stable-residency assumption: keys
// Incr touches must never be deleted (a tombstoned slot can be reused
// by a different key, and a memoized reference would then adjust the
// wrong value) — counter tables that never Delete satisfy it by
// construction. Concurrent Incrs to one key never lose updates (the
// add is indivisible at the target); racing Incr with Put on the same
// key is the caller's bug, exactly as it would be in the native
// runtime. The raw add does not preserve the load generator's
// key-echo value encoding, so Incr tables are not checkValue tables.
func (tb *Table) Incr(t *core.Thread, key, delta uint64) (uint64, bool) {
	checkKey(key)
	tb.Stats.Incrs++
	if tb.HomeNode(key) == t.Node() {
		tb.Stats.LocalOps++
	} else {
		tb.Stats.RemoteOps++
	}
	ref, ok := tb.locate(t, key)
	if !ok {
		tb.Stats.Misses++
		return 0, false
	}
	return t.FetchAdd(tb.a.At(valueIdx(ref)), delta), true
}

// locate resolves key to its slot with consistent line reads and
// memoizes the result. A torn line re-reads after a backoff (writer
// windows are finite, so this converges) — locate has no slot-level
// AM to fall back to, and it runs once per key per thread.
func (tb *Table) locate(t *core.Thread, key uint64) (slotRef, bool) {
	if ref, ok := tb.loc[key]; ok {
		return ref, true
	}
	g := tb.g
	shard := g.shardOf(key)
	b0 := g.bucketOf(key)
	for w := int64(0); w < probeWindow; w++ {
		idx := g.lineIdx(shard, (b0+w)%g.buckets)
		t.GetBulk(tb.line[:], tb.a.At(idx))
		for binary.LittleEndian.Uint64(tb.line[:8])&1 == 1 {
			t.Sleep(rereadBackoff)
			t.GetBulk(tb.line[:], tb.a.At(idx))
		}
		if ref, ok, stop := locateLine(tb.line[:], key, idx); stop {
			if ok {
				tb.memoize(key, ref)
			}
			return ref, ok
		}
	}
	return slotRef{}, false
}

// locateLine scans a consistent line for key's slot: (ref, found,
// stop), with stop=false meaning the probe must continue.
func locateLine(line []byte, key uint64, idx int64) (slotRef, bool, bool) {
	for s := 0; s < slotsPerBucket; s++ {
		k := binary.LittleEndian.Uint64(line[8+16*s:])
		if k == key {
			return slotRef{idx, s}, true, true
		}
		if k == emptyKey {
			return slotRef{}, false, true
		}
	}
	return slotRef{}, false, false
}

func (tb *Table) memoize(key uint64, ref slotRef) {
	if tb.loc == nil {
		tb.loc = make(map[uint64]slotRef)
	}
	tb.loc[key] = ref
}

// --- Home-node AM handlers ----------------------------------------------

// registerHandlers installs the kv protocol in the runtime's user-AM
// table. Handlers run on the target node's AM handler context and serialize
// with local writers under the per-node shard lock, so everything they
// read is consistent (even sequence words) and authoritative.
func registerHandlers(rt *core.Runtime, g geom) {
	rt.HandleUser(hLookup, func(c *core.UserCtx) []byte { return lookupAM(c, g) })
	rt.HandleUser(hPut, func(c *core.UserCtx) []byte { return putAM(c, g) })
	rt.HandleUser(hDelete, func(c *core.UserCtx) []byte { return deleteAM(c, g) })
}

func ctxLock(c *core.UserCtx, g geom) *sim.Resource {
	return c.NodeLocal(g.lockKey, func(k *sim.Kernel) any { return sim.NewResource(k, g.lockKey, 1) }).(*sim.Resource)
}

// readLineAM reads bucket line idx of the anchor segment into line.
func readLineAM(c *core.UserCtx, idx int64, line []byte) {
	c.ReadLocal(c.ChunkOffset(idx), line)
	if binary.LittleEndian.Uint64(line[:8])&1 == 1 {
		panic("kv: odd sequence under the shard lock")
	}
}

func lookupAM(c *core.UserCtx, g geom) []byte {
	key, _ := c.Args()
	lock := ctxLock(c, g)
	c.Acquire(lock)
	defer lock.Release()
	shard := g.shardOf(key)
	b0 := g.bucketOf(key)
	var line [bucketBytes]byte
	for w := int64(0); w < probeWindow; w++ {
		readLineAM(c, g.lineIdx(shard, (b0+w)%g.buckets), line[:])
		if v, ok, stop := scanLine(line[:], key); stop {
			if !ok {
				return nil
			}
			rep := make([]byte, 8)
			binary.LittleEndian.PutUint64(rep, v)
			return rep
		}
	}
	return nil
}

// scanAM is the handler-side write scan (mirrors Table.scan).
func scanAM(c *core.UserCtx, g geom, key uint64, line []byte) (hit, free slotRef, hitOK, freeOK bool) {
	shard := g.shardOf(key)
	b0 := g.bucketOf(key)
	for w := int64(0); w < probeWindow; w++ {
		idx := g.lineIdx(shard, (b0+w)%g.buckets)
		readLineAM(c, idx, line)
		hit, free, hitOK, freeOK = scanLineWrite(line, key, idx, free, freeOK)
		if hitOK || stopAtEmpty(line) {
			return
		}
	}
	return
}

// writeSlotAM runs the seqlock write protocol through the handler's
// local-memory primitives; val==tombstone tombstones the key word only.
func writeSlotAM(c *core.UserCtx, g geom, tgt slotRef, key, val uint64) {
	off := c.ChunkOffset(tgt.line)
	var w [16]byte
	c.ReadLocal(off, w[:8])
	seq := binary.LittleEndian.Uint64(w[:8])
	binary.LittleEndian.PutUint64(w[:8], seq+1)
	c.WriteLocal(off, w[:8])
	c.Sleep(g.window)
	slotOff := off + int64(8+16*tgt.slot)
	if val == tombstone {
		binary.LittleEndian.PutUint64(w[:8], tombstone)
		c.WriteLocal(slotOff, w[:8])
	} else {
		binary.LittleEndian.PutUint64(w[0:8], key)
		binary.LittleEndian.PutUint64(w[8:16], val)
		c.WriteLocal(slotOff, w[:16])
	}
	binary.LittleEndian.PutUint64(w[:8], seq+2)
	c.WriteLocal(off, w[:8])
}

func putAM(c *core.UserCtx, g geom) []byte {
	key, val := c.Args()
	lock := ctxLock(c, g)
	c.Acquire(lock)
	defer lock.Release()
	var line [bucketBytes]byte
	hit, free, hitOK, freeOK := scanAM(c, g, key, line[:])
	tgt := hit
	if !hitOK {
		if !freeOK {
			return []byte{statusFail}
		}
		tgt = free
	}
	writeSlotAM(c, g, tgt, key, val)
	return []byte{statusOK}
}

func deleteAM(c *core.UserCtx, g geom) []byte {
	key, _ := c.Args()
	lock := ctxLock(c, g)
	c.Acquire(lock)
	defer lock.Release()
	var line [bucketBytes]byte
	hit, _, hitOK, _ := scanAM(c, g, key, line[:])
	if !hitOK {
		return []byte{statusFail}
	}
	writeSlotAM(c, g, hit, key, tombstone)
	return []byte{statusOK}
}

// splitmix64 is the table's key hash (thread-count-independent, so the
// same key population is comparable across machine sizes).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
