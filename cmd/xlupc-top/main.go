// Command xlupc-top answers the paper's §4.6 question — where does a
// remote access's time actually go? — with the telemetry layer's
// per-operation spans. It runs one DIS stressmark with and without the
// remote address cache and prints, per operation kind, a
// phase-attribution table — how much virtual time went to cache
// probes, wire, waiting for the target CPU, AM handling, SVD
// resolution, registration, copies and DMA service — the
// latency-quantile table (P50/P95/P99) of every op/protocol series, and
// the Paraver-style per-thread state breakdown the paper drew its
// conclusion from.
//
// On GM (no computation/communication overlap) the uncached run's GETs
// are dominated by target-CPU/handler time: the target nodes are busy
// computing and the AM handlers queue for the CPU, so remote GET waits
// at the overhangs are "abnormally large". With the cache the accesses
// go over RDMA and the waits collapse. On LAPI the dedicated
// communication processor absorbs that component.
//
// Usage:
//
//	xlupc-top -bench=field -profile=gm
//	xlupc-top -bench=pointer -profile=lapi -threads 32 -nodes 8
//	xlupc-top -bench=field -chrome trace.json -prom metrics.prom -prv states.prv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"xlupc/internal/bench"
	"xlupc/internal/core"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

func main() {
	mark := flag.String("bench", "field", "DIS stressmark to profile")
	profName := flag.String("profile", "gm", "transport profile (gm, lapi, bgl, tcp)")
	threads := flag.Int("threads", 16, "UPC threads")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	seed := flag.Int64("seed", 1, "simulation seed")
	chrome := flag.String("chrome", "", "write the cached run's spans as Chrome trace-event JSON to this file")
	prom := flag.String("prom", "", "write the cached run's metrics in Prometheus text format to this file")
	prv := flag.String("prv", "", "write the cached run's Paraver thread-state records to this file")
	pf := hostprof.Register(nil)
	flag.Parse()

	prof := transport.ByName(*profName)
	if prof == nil {
		fmt.Fprintf(os.Stderr, "xlupc-top: unknown profile %q\n", *profName)
		os.Exit(2)
	}
	if err := bench.ValidateScale(*threads, *nodes); err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-top: %v\n", err)
		os.Exit(2)
	}
	sc := bench.Scale{Threads: *threads, Nodes: *nodes}
	stopProf := pf.MustStart("xlupc-top")

	// Everything goes through one buffered, flush-checked writer: a
	// full disk or closed pipe must turn into a nonzero exit, not a
	// silently truncated table.
	w := bufio.NewWriter(os.Stdout)
	fail := func(err error) {
		w.Flush()
		fmt.Fprintf(os.Stderr, "xlupc-top: %v\n", err)
		stopProf()
		os.Exit(1)
	}

	fmt.Fprintf(w, "# %s on %s, %d threads / %d nodes — phase attribution of operation time\n",
		*mark, prof.Name, *threads, *nodes)

	var getWait [2]sim.Time
	var cachedTel *telemetry.Telemetry
	for i, cached := range []bool{false, true} {
		cc, label := core.NoCache(), "without cache"
		if cached {
			cc, label = core.DefaultCache(), "with cache"
		}
		tel, st, err := bench.PhaseRun(*mark, prof, sc, cc, *seed)
		if err != nil {
			fail(err)
		}
		if cached {
			cachedTel = tel
		}
		fmt.Fprintf(w, "\n%s  (virtual time %v, %d msgs, %d AM, %d RDMA, cache hit rate %.1f%%)\n",
			label, st.Elapsed, st.Messages, st.AMOps, st.RDMAOps, 100*st.Cache.HitRate())
		if err := bench.PrintPhaseTables(w, tel, "get", "put", "barrier"); err != nil {
			fail(err)
		}
		if err := tel.WriteQuantiles(w); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "  %-12s %12s  %6s\n", "thread state", "total", "share")
		for _, p := range tel.Profiles() {
			fmt.Fprintf(w, "  %-12s %12v  %5.1f%%\n", p.State, p.Total, 100*p.Share)
		}
		worst := tel.MaxInterval(telemetry.StateGetWait)
		fmt.Fprintf(w, "  longest single GET wait: %v (thread %d)\n", worst.Dur(), worst.Thread)
		getWait[i] = tel.TotalByState()[telemetry.StateGetWait]
	}
	if g0, g1 := getWait[0], getWait[1]; g0 > 0 {
		fmt.Fprintf(w, "\nGET wait time reduction from the cache: %.1f%%\n",
			100*(float64(g0)-float64(g1))/float64(g0))
	}

	if *chrome != "" {
		if err := writeExport(*chrome, cachedTel.WriteChromeTrace); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "\nChrome trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}
	if *prom != "" {
		if err := writeExport(*prom, cachedTel.WritePrometheus); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "Prometheus metrics written to %s\n", *prom)
	}
	if *prv != "" {
		if err := writeExport(*prv, cachedTel.WritePRV); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "Paraver state records written to %s\n", *prv)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-top: writing output: %v\n", err)
		stopProf()
		os.Exit(1)
	}
	stopProf()
}

// writeExport writes one exporter's output to path, surfacing write
// and close errors instead of dropping them: a full disk must not
// leave a silently truncated trace behind.
func writeExport(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %v", path, err)
	}
	return nil
}
