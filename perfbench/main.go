// Command perfbench is the repository's benchmark: it times the
// simulator end to end on three workloads, checks every run's simulated
// output against a reference fingerprint, and reports per-layer counts
// and a profiled, traced run. See README.md.
//
//	perfbench --workload pod32-elephants --seed 1 --seconds 10 --trace 0
//
// Each timed repetition runs in its own child process (the same binary
// with PERFBENCH_CHILD set), so peak RSS is per repetition and no heap
// state carries over. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
)

// childEnv marks a process as one repetition rather than the
// orchestrating parent.
const childEnv = "PERFBENCH_CHILD"

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// childMain runs one repetition and prints its repResult as JSON.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	serial := fs.Bool("serial", false, "force the serial engine")
	scale := fs.Float64("scale", 1, "scale the simulated windows (self-tests)")
	traceDir := fs.String("tracedir", "", "take profiles and spans, writing them here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res, err := runRep(w.scaled(*scale), *seed, *serial, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSON(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
