// Command xlupc-dis runs the DIS Stressmark sweeps of the paper's
// Figure 9: execution-time improvement from the remote address cache
// for Pointer, Update, Neighborhood and Field, across machine sizes,
// on the GM (MareNostrum) and LAPI (Power5) transport models.
//
// Usage:
//
//	xlupc-dis                         # both transports, default scales
//	xlupc-dis -profile gm -maxthreads 2048
package main

import (
	"flag"
	"fmt"
	"os"

	"xlupc/internal/bench"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/transport"
)

func main() {
	profName := flag.String("profile", "both", "transport profile: gm, lapi or both")
	maxThreads := flag.Int("maxthreads", 512, "largest thread count (paper: 2048 GM, 448 LAPI)")
	seed := flag.Int64("seed", 1, "simulation seed")
	reps := flag.Int("reps", 1, "independent runs per point; >1 adds 95% confidence intervals (the paper's methodology)")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = sequential); results are identical either way")
	pf := hostprof.Register(nil)
	flag.Parse()
	if err := bench.ValidateMaxThreads(*maxThreads, *profName == "lapi"); err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-dis: %v\n", err)
		os.Exit(2)
	}
	bench.SetParallelism(*parallel)
	stopProf := pf.MustStart("xlupc-dis")
	defer stopProf()

	run := func(name string) {
		prof := transport.ByName(name)
		if prof == nil {
			fmt.Fprintf(os.Stderr, "xlupc-dis: unknown profile %q\n", name)
			os.Exit(2)
		}
		scales := bench.GMScales(*maxThreads)
		if name == "lapi" {
			scales = bench.LAPIScales(*maxThreads)
		}
		if *reps > 1 {
			bench.PrintFig9CI(os.Stdout, prof, scales, *reps, *seed)
		} else {
			bench.PrintFig9(os.Stdout, prof, scales, *seed)
		}
		fmt.Println()
	}
	if *profName == "both" {
		run("gm")
		run("lapi")
		return
	}
	run(*profName)
}
