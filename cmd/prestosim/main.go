// Command prestosim runs one load-balancing system against one
// workload and prints the measured metrics — a quick way to poke at
// the reproduction:
//
//	prestosim -system presto -workload stride -duration 200ms
//	prestosim -system ecmp -workload bijection -seed 7
//	prestosim -system presto -workload stride -seeds 5   # mean ±stddev over 5 seeds
//	prestosim -system presto -workload mice-heavy        # declarative preset
//	prestosim -system ecmp -workload examples/specs/incast32.json
//	prestosim -workload podtraffic -pods 8 -shards 4     # pod-scale Clos, sharded engine
//
// -workload accepts the built-in patterns (stride, shuffle, random,
// bijection), podtraffic, a named workload-spec preset (elephants,
// mice-heavy, incast32, trace), or a path to a presto-workload/1 spec
// JSON file.
//
// A run is a one-cell campaign (presto.Scenario), the same path
// cmd/experiments and prestod take. With -seeds N > 1 the cell is
// replicated over seeds seed..seed+N-1 on the campaign worker pool
// (-parallel workers) and every metric is reported as a
// mean/stddev/min–max envelope.
//
// Observability flags: -trace writes a Chrome trace-event file (open
// in Perfetto / chrome://tracing), -events a JSON Lines event log,
// -snapshot a per-component counter dump, and -v prints the snapshot
// summary table. -cpuprofile/-memprofile capture pprof profiles of the
// simulator itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"presto"
	"presto/cmd/internal/cli"
	"presto/internal/campaign"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("prestosim", flag.ContinueOnError)
	var (
		system    = fs.String("system", "presto", "ecmp | mptcp | presto | optimal | flowlet100 | flowlet500 | presto-ecmp | per-packet, or any scheme spec")
		schemeF   = fs.String("scheme", "", "scheme registry spec, name or name:k=v,... (e.g. diffflow:threshold=512KB); overrides -system")
		workload  = fs.String("workload", "stride", "stride | shuffle | random | bijection | podtraffic, a workload-spec preset, or a spec.json path")
		shards    = fs.Int("shards", 1, "per-pod engine shards for -workload podtraffic; results are bit-identical to serial, 1 = serial")
		pods      = fs.Int("pods", 4, "pod count for -workload podtraffic (2 aggs, 2 leaves per pod)")
		hostsLeaf = fs.Int("hosts-per-leaf", 2, "hosts per leaf for -workload podtraffic")
		duration  = fs.Duration("duration", 200*time.Millisecond, "measurement window (simulated)")
		warmup    = fs.Duration("warmup", 50*time.Millisecond, "warmup before measurement (simulated)")
		seed      = fs.Uint64("seed", 1, "random seed (base seed with -seeds > 1)")
		seeds     = fs.Int("seeds", 1, "seed replicas; > 1 reports mean ±stddev envelopes per metric")
		parallel  = fs.Int("parallel", 0, "worker pool size for -seeds > 1; 0 = GOMAXPROCS")
		obs       cli.Observe
	)
	obs.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := *system
	if *schemeF != "" {
		spec = *schemeF
	}
	reg := obs.Registry()
	cs, err := presto.Scenario{
		Workload:     *workload,
		Schemes:      []string{spec},
		Seed:         *seed,
		Seeds:        *seeds,
		Parallelism:  *parallel,
		Duration:     *duration,
		Warmup:       *warmup,
		Shards:       *shards,
		Pods:         *pods,
		HostsPerLeaf: *hostsLeaf,
		Telemetry:    reg,
		Progress:     os.Stderr,
	}.Campaign()
	if err != nil {
		return err
	}

	start := time.Now()
	var report *campaign.Report
	err = obs.Profile(func() (err error) {
		report, err = presto.RunCampaign(cs)
		return err
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if failed := report.FailedReplicas(); len(failed) > 0 {
		return fmt.Errorf("%d replica(s) failed, first: %s seed=%d: %s", len(failed), failed[0].Cell, failed[0].Seed, failed[0].Err)
	}

	cell := &report.Cells[0]
	d := cell.Details()[0].(presto.RunDetail)
	if *seeds > 1 {
		printEnvelopes(stdout, d, cell, *seed, *seeds)
	} else {
		printRun(stdout, d, *seed, *duration, elapsed)
	}
	return obs.Export(reg, stdout, os.Stderr)
}

// printRun prints one run in full.
func printRun(w io.Writer, d presto.RunDetail, seed uint64, duration, elapsed time.Duration) {
	res := d.Load
	fmt.Fprintf(w, "system=%v workload=%s", d.System, d.Workload)
	if p := d.Pod; p != nil {
		fmt.Fprintf(w, " pods=%d hosts=%d shards=%d", p.Pods, p.Hosts, p.Shards)
	}
	fmt.Fprintf(w, " seed=%d duration=%v\n", seed, duration)
	fmt.Fprintf(w, "  elephant throughput: %.2f Gbps/flow (fairness %.3f)\n", res.MeanTput, res.Fairness)
	fmt.Fprintf(w, "  loss rate:           %.4f%%\n", res.LossRate*100)
	if res.RTT != nil && res.RTT.N() > 0 {
		fmt.Fprintf(w, "  RTT (ms):            p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f (n=%d)\n",
			res.RTT.Percentile(50), res.RTT.Percentile(90), res.RTT.Percentile(99), res.RTT.Percentile(99.9), res.RTT.N())
	}
	if res.FCT != nil && res.FCT.N() > 0 {
		fmt.Fprintf(w, "  mice FCT (ms):       p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f (n=%d, timeouts=%d)\n",
			res.FCT.Percentile(50), res.FCT.Percentile(90), res.FCT.Percentile(99), res.FCT.Percentile(99.9), res.FCT.N(), res.MiceTimeouts)
	}
	for _, cr := range d.Clients {
		fmt.Fprintf(w, "  client %-13s started=%d finished=%d timeouts=%d bytes=%d",
			cr.ID+":", cr.Started, cr.Finished, cr.Timeouts, cr.BytesMoved)
		if cr.FCT != nil && cr.FCT.N() > 0 {
			fmt.Fprintf(w, " fct_ms_p50=%.3f fct_ms_p99=%.3f", cr.FCT.Percentile(50), cr.FCT.Percentile(99))
		}
		if cr.Tput > 0 {
			fmt.Fprintf(w, " tput_gbps=%.2f", cr.Tput)
		}
		fmt.Fprintln(w)
	}
	if p := d.Pod; p != nil {
		fmt.Fprintf(w, "  delivered packets:   %d\n", p.Delivered)
		fmt.Fprintf(w, "  engine events:       %d\n", p.Events)
	}
	fmt.Fprintf(w, "  wall time:           %v\n", elapsed.Round(time.Millisecond))
}

// printEnvelopes prints each metric's envelope over the seed replicas.
func printEnvelopes(w io.Writer, d presto.RunDetail, cell *campaign.CellResult, seed uint64, seeds int) {
	fmt.Fprintf(w, "system=%v workload=%s seeds=%d..%d (n=%d)\n", d.System, d.Workload, seed, seed+uint64(seeds)-1, seeds)
	names := make([]string, 0, len(cell.Envelopes))
	for k := range cell.Envelopes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-16s %s\n", k, cell.Envelopes[k].String())
	}
}
