package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names the layer call a span wraps. Spans are recorded only
// from this package, around each call it makes into a layer, so every
// per-layer host time is measured from outside the program.
type spanKind uint8

const (
	spanNewRuntime spanKind = iota
	spanAlloc
	spanFree
	spanGet
	spanPut
	spanAtomic
	spanBarrier
	spanSync
	spanKVNew
	spanPreload
	spanKVGet
	spanKVPut
	spanBody // the benchmark's own per-op code (draws, checks, records)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.new_runtime", "core.alloc", "core.free", "core.get", "core.put",
	"core.atomic", "core.barrier", "core.sync", "kv.new", "kv.preload",
	"kv.get", "kv.put", "workload.body",
}

// perElement marks the kinds called once per element or op.
var perElement = [numSpanKinds]bool{spanGet: true, spanPut: true, spanKVGet: true, spanKVPut: true, spanBody: true}

// span is one recorded call: host nanoseconds since the tracer was made.
type span struct {
	kind       spanKind
	tid        int32
	start, end int64
}

// maxSpans caps the spans kept for the trace file (about 5 MB in memory,
// 20 MB of JSON); aggregates cover every span regardless.
const maxSpans = 200_000

// tracer keeps spans in memory and aggregates them as they close. A nil
// *tracer is the untraced run: every method returns at once.
//
// The simulator runs one simulated thread at a time on the host, so
// spans from every thread lie on one host timeline. In goroutine mode a
// blocking call's span also covers the host time other threads ran
// while it was parked.
type tracer struct {
	clock func() int64 // host nanoseconds since the tracer was made
	spans []span
	total int64 // spans recorded, kept or not

	count [numSpanKinds]int64
	ns    [numSpanKinds]int64

	// Union of all open spans on the host timeline.
	depth  int
	openAt int64
	union  int64

	// Measured-window marks (see window).
	winOn                bool
	winStart, winEnd     int64
	unionStart, unionEnd int64
	bodyStart, bodyEnd   int64

	// Streams the replay probes are fed.
	accesses  []access
	pinEvents []pinEvent
}

// access is one remote access as the initiator's address cache sees
// it; handle 0 with node -1 marks a free (InvalidateHandle everywhere).
type access struct {
	node   int32
	target int32
	handle uint64
}

// pinEvent is one step of a target node's registration stream.
type pinEvent struct {
	op     pinOp
	node   int32
	size   int32
	handle uint64
}

type pinOp uint8

const (
	pinAlloc pinOp = iota // object chunk allocated on node
	pinUse                // remote access served by node
	pinFree               // object chunk freed on node
)

func newTracer() *tracer {
	epoch := time.Now()
	return &tracer{clock: func() int64 { return int64(time.Since(epoch)) }, spans: make([]span, 0, maxSpans)}
}

func (tr *tracer) now() int64 { return tr.clock() }

// begin opens a span and returns its start for end.
func (tr *tracer) begin() int64 {
	if tr == nil {
		return 0
	}
	t := tr.now()
	if tr.depth == 0 {
		tr.openAt = t
	}
	tr.depth++
	return t
}

// end closes a span opened by begin.
func (tr *tracer) end(k spanKind, tid int, start int64) {
	if tr == nil {
		return
	}
	t := tr.now()
	tr.depth--
	if tr.depth == 0 {
		tr.union += t - tr.openAt
	}
	tr.count[k]++
	tr.ns[k] += t - start
	tr.total++
	// Keep the measured phase and the rare set-up calls; the set-up's
	// per-element calls would crowd out the phase that matters.
	if len(tr.spans) < maxSpans && (tr.winOn || !perElement[k]) {
		tr.spans = append(tr.spans, span{kind: k, tid: int32(tid), start: start, end: t})
	}
}

// covered is the union of spans up to t, counting open ones.
func (tr *tracer) covered(t int64) int64 {
	if tr.depth > 0 {
		return tr.union + t - tr.openAt
	}
	return tr.union
}

// window marks the start (open) or end of the measured phase.
func (tr *tracer) window(open bool) {
	if tr == nil {
		return
	}
	t := tr.now()
	if open {
		tr.winOn, tr.winStart, tr.unionStart, tr.bodyStart = true, t, tr.covered(t), tr.ns[spanBody]
		return
	}
	tr.winOn, tr.winEnd, tr.unionEnd, tr.bodyEnd = false, t, tr.covered(t), tr.ns[spanBody]
}

// residualShare is the share of the measured window covered by no
// span: kernel dispatch, target-side handlers and delivery.
func (tr *tracer) residualShare() float64 {
	w := tr.winEnd - tr.winStart
	if w <= 0 {
		return 0
	}
	return 1 - float64(tr.unionEnd-tr.unionStart)/float64(w)
}

// selfShare is the share of the measured window spent in body spans.
func (tr *tracer) selfShare() float64 {
	w := tr.winEnd - tr.winStart
	if w <= 0 {
		return 0
	}
	return float64(tr.bodyEnd-tr.bodyStart) / float64(w)
}

// meanNs is the mean duration of spans of kind k, 0 when none.
func (tr *tracer) meanNs(k spanKind) float64 {
	if tr.count[k] == 0 {
		return 0
	}
	return float64(tr.ns[k]) / float64(tr.count[k])
}

// noteAccess records a remote access for the address-cache replay. Only
// measured-window accesses are kept: the replay probes steady state.
func (tr *tracer) noteAccess(node, target int, handle uint64) {
	if tr == nil || !tr.winOn {
		return
	}
	tr.accesses = append(tr.accesses, access{node: int32(node), target: int32(target), handle: handle})
}

// noteFree records a free for both replays.
func (tr *tracer) noteFree(handle uint64, nodes, chunk int) {
	if tr == nil {
		return
	}
	if tr.winOn {
		tr.accesses = append(tr.accesses, access{node: -1, handle: handle})
	}
	for n := 0; n < nodes; n++ {
		tr.pinEvents = append(tr.pinEvents, pinEvent{op: pinFree, node: int32(n), size: int32(chunk), handle: handle})
	}
}

// noteAlloc records an object allocation: one chunk on every node.
func (tr *tracer) noteAlloc(handle uint64, nodes, chunk int) {
	if tr == nil {
		return
	}
	for n := 0; n < nodes; n++ {
		tr.pinEvents = append(tr.pinEvents, pinEvent{op: pinAlloc, node: int32(n), size: int32(chunk), handle: handle})
	}
}

// noteUse records a remote access served by node target, for the
// registration replay.
func (tr *tracer) noteUse(target int, handle uint64) {
	if tr == nil || !tr.winOn {
		return
	}
	tr.pinEvents = append(tr.pinEvents, pinEvent{op: pinUse, node: int32(target), handle: handle})
}

// writeChrome writes the kept spans as Chrome-trace JSON (open it in
// chrome://tracing or ui.perfetto.dev): one track per simulated thread,
// timestamps in host microseconds.
func (tr *tracer) writeChrome(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	meta["spans_recorded"] = tr.total
	meta["spans_written"] = len(tr.spans)
	other, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\"traceEvents\":[\n", other)
	for i, s := range tr.spans {
		sep := ","
		if i == len(tr.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}%s\n",
			spanNames[s.kind], s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
