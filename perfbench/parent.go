package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// refsJSON holds the reference fingerprints: workload -> seed ->
// fingerprint. pod1000-2shard's come from the serial engine, so every
// sharded run re-proves serial = sharded. Regenerate with -record.
//
//go:embed refs.json
var refsJSON []byte

// childTimeout is the wall deadline of one repetition; overrunning it
// counts as a failed run.
const childTimeout = 60 * time.Second

// minReps is the fewest timed repetitions, however short --seconds is:
// enough for a median and for the counts to be compared across runs.
const minReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	// scale shrinks the simulated windows (self-tests); a scaled run has
	// no stored reference.
	scale float64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one benchmark invocation.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: pod32-elephants, pod1000-2shard or testbed-mice")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds of timed repetitions")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics, adding a profiled traced run")
	fs.StringVar(&o.traceDir, "tracedir", filepath.Join(".bench_build", "perfbench-trace"), "where the traced run writes profiles and spans")
	record := fs.String("record", "", "record reference fingerprints for seeds `lo-hi` into perfbench/refs.json instead of benchmarking")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := workloadByName(o.workload); err != nil && *record == "" {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace, o.scale = *trace == 1, 1
	if *record != "" {
		if err := recordRefs(*record, filepath.Join("perfbench", "refs.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	r, err := bench(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := r.outcome
	fmt.Printf("workload %s seed %d: %d runs attempted, %d failed\n", o.workload, o.seed, out.Attempted, out.Failed)
	printMetrics(endToEnd, r.e2e)
	out.Metrics = r.e2e
	if o.trace {
		printMetrics(perLayer, r.layers)
		out.Metrics = r.layers
	}
	if err := writeJSON(os.Stdout, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func printMetrics(defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		fmt.Printf("%-28s %14.6g %s\n", d.name, ms[d.name].Value, ms[d.name].Unit)
	}
}

// report is the result of one benchmark invocation: the run counts,
// the end-to-end metrics, and with tracing the per-layer metrics and
// the traced run's CPU profile sample count.
type report struct {
	outcome
	e2e, layers map[string]metric
	cpuSamples  int
}

// child is one finished repetition.
type child struct {
	res    *repResult
	rssMB  float64
	wall   time.Duration
	failed string // why the run failed; empty when it passed
}

// runChild runs one repetition in a child process.
func runChild(ctx context.Context, o options, serial bool, traceDir string) child {
	exe, err := os.Executable()
	if err != nil {
		return child{failed: err.Error()}
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64)}
	if serial {
		args = append(args, "-serial")
	}
	if traceDir != "" {
		args = append(args, "-tracedir", traceDir)
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	ch := child{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			ch.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	switch {
	case ctx.Err() != nil:
		ch.failed = fmt.Sprintf("overran the %v wall deadline", childTimeout)
		return ch
	case err != nil:
		ch.failed = fmt.Sprintf("%v: %s", err, lastLines(stderr.String(), 8))
		return ch
	}
	ch.res = &repResult{}
	if err := json.Unmarshal(stdout.Bytes(), ch.res); err != nil {
		ch.res = nil
		ch.failed = "unreadable result: " + err.Error()
	}
	return ch
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// bench runs the timed repetitions for o.seconds, then the traced one
// when o.trace is set, and returns the end-to-end and per-layer
// metrics. Failures are logged to log.
func bench(o options, log io.Writer) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	var ref *fingerprint
	if o.scale == 1 {
		if ref, err = storedRef(w.name, o.seed); err != nil {
			return nil, err
		}
	}
	r := &report{}
	out := &r.outcome
	fail := func(why string) {
		out.Failed++
		fmt.Fprintf(log, "perfbench: %s seed %d run %d failed: %s\n", w.name, o.seed, out.Attempted, why)
	}
	// check classifies a finished repetition against the reference (or,
	// without one, the first good repetition) and the first counts.
	var first *repResult
	check := func(ch child) bool {
		out.Attempted++
		switch {
		case ch.failed != "":
			fail(ch.failed)
		case ch.res.Invariant != "":
			fail(ch.res.Invariant)
		case ref != nil && ch.res.Fingerprint != *ref:
			fail(fmt.Sprintf("fingerprint %+v, reference %+v", ch.res.Fingerprint, *ref))
		case first != nil && ch.res.Fingerprint != first.Fingerprint:
			fail(fmt.Sprintf("fingerprint %+v differs from the first run's %+v", ch.res.Fingerprint, first.Fingerprint))
		case first != nil && !reflect.DeepEqual(ch.res.Counts, first.Counts):
			fail(fmt.Sprintf("counts %v differ from the first run's %v", ch.res.Counts, first.Counts))
		default:
			if first == nil {
				first = ch.res
			}
			return true
		}
		return false
	}

	ctx := context.Background()
	var good []child
	start := time.Now()
	for out.Attempted < minReps || time.Since(start).Seconds() < o.seconds {
		ch := runChild(ctx, o, false, "")
		if check(ch) {
			good = append(good, ch)
		}
		if len(good) == 0 && out.Attempted >= minReps {
			break // a program that fails every time fails fast
		}
	}
	if len(good) == 0 {
		return nil, errors.New("no repetition succeeded")
	}
	var traced *child
	if o.trace {
		dir := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
		ch := runChild(ctx, o, false, dir)
		if check(ch) {
			traced = &ch
		}
	}
	out.Correct = out.Failed == 0

	med := func(f func(c child) float64) float64 {
		xs := make([]float64, len(good))
		for i, c := range good {
			xs[i] = f(c)
		}
		return quantile(xs, 0.5)
	}
	simRate := med(func(c child) float64 { return c.res.SimMSPerS })
	e2e := map[string]float64{
		"setup_s":      med(func(c child) float64 { return c.res.SetupS }),
		"sim_ms_per_s": simRate,
		// p90 of the 100 slices leaves 10 beyond it.
		"host_ms_per_slice.p50": med(func(c child) float64 { return quantile(c.res.SliceMS, 0.5) }),
		"host_ms_per_slice.p90": med(func(c child) float64 { return quantile(c.res.SliceMS, 0.9) }),
		"peak_rss_mb":           med(func(c child) float64 { return c.rssMB }),
	}
	r.e2e = map[string]metric{}
	for _, d := range endToEnd {
		r.e2e[d.name] = metric{e2e[d.name], d.unit}
	}
	if !o.trace {
		return r, nil
	}
	if traced == nil {
		return nil, errors.New("the traced run failed")
	}

	r.cpuSamples = traced.res.Traced.CPUSamples
	r.layers = map[string]metric{}
	for _, d := range perLayer {
		var v float64
		switch {
		case d.count:
			v = first.Counts[d.name]
		case strings.HasSuffix(d.name, ".self_ms"):
			v = traced.res.Traced.SelfMS[strings.TrimSuffix(d.name, ".self_ms")]
		case strings.HasSuffix(d.name, ".alloc_share"):
			v = traced.res.Traced.AllocShare[strings.TrimSuffix(d.name, ".alloc_share")]
		default:
			v = untracedLayer(d.name, med, simRate, r.outcome, traced.res.Traced)
		}
		r.layers[d.name] = metric{v, d.unit}
	}
	return r, nil
}

// untracedLayer computes the per-layer metrics that are neither exact
// counts nor profile attributions.
func untracedLayer(name string, med func(func(child) float64) float64, simRate float64, out outcome, tr *tracedResult) float64 {
	switch name {
	case "sim.ns_per_event":
		return med(func(c child) float64 { return c.res.NsPerEvent })
	case "runtime.allocs_per_pkt":
		return med(func(c child) float64 { return c.res.AllocsPerPkt })
	case "runtime.bytes_per_pkt":
		return med(func(c child) float64 { return c.res.BytesPerPkt })
	case "runtime.gc_cycles":
		return med(func(c child) float64 { return c.res.GCCycles })
	case "runtime.gc_cpu_frac":
		return med(func(c child) float64 { return c.res.GCCPUFrac })
	case "setup.topo_ms":
		return med(func(c child) float64 { return c.res.SetupMS[0] })
	case "setup.cluster_ms":
		return med(func(c child) float64 { return c.res.SetupMS[1] })
	case "setup.workload_ms":
		return med(func(c child) float64 { return c.res.SetupMS[2] })
	case "trace.overhead_frac":
		return (simRate - tr.SimMSPerS) / simRate
	case "trace.attributed_frac":
		return tr.Attributed
	case "fail_frac":
		return float64(out.Failed) / float64(out.Attempted)
	}
	panic("perfbench: no source for per-layer metric " + name)
}

// storedRef returns the reference fingerprint for (workload, seed), or
// nil when none is stored.
func storedRef(workload string, seed uint64) (*fingerprint, error) {
	var refs map[string]map[string]fingerprint
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	fp, ok := refs[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return nil, nil
	}
	return &fp, nil
}

// recordRefs runs every workload once per seed in lo-hi, serially for
// pod1000-2shard, and writes the fingerprints to path.
func recordRefs(seeds, path string) error {
	lo, hi, ok := strings.Cut(seeds, "-")
	a, err1 := strconv.ParseUint(lo, 10, 64)
	b, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || b < a {
		return fmt.Errorf("-record wants lo-hi, got %q", seeds)
	}
	refs := map[string]map[string]fingerprint{}
	for _, w := range workloads {
		refs[w.name] = map[string]fingerprint{}
		for s := a; s <= b; s++ {
			o := options{workload: w.name, seed: s, scale: 1}
			ch := runChild(context.Background(), o, true, "")
			if ch.failed == "" && ch.res.Invariant != "" {
				ch.failed = ch.res.Invariant
			}
			if ch.failed != "" {
				return fmt.Errorf("%s seed %d: %s", w.name, s, ch.failed)
			}
			refs[w.name][strconv.FormatUint(s, 10)] = ch.res.Fingerprint
			fmt.Fprintf(os.Stderr, "%s seed %d: %+v (%.1fs)\n", w.name, s, ch.res.Fingerprint, ch.wall.Seconds())
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeJSON writes v as one line of JSON.
func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
