// Command experiments regenerates every table and figure in the
// paper's evaluation (§5, §6) through the campaign runner: the
// selected experiments expand into a grid of cells × seeds executed on
// a bounded worker pool. Absolute numbers differ from the hardware
// testbed; the comparisons (who wins, by what factor) are the
// reproduction target. See EXPERIMENTS.md for the side-by-side and
// the "Running campaigns" section for the artifact formats.
//
//	experiments -run all                      # every figure/table, GOMAXPROCS workers
//	experiments -run fig7                     # one experiment
//	experiments -run fig16 -duration 400ms
//	experiments -run all -seeds 5 -parallel 8 # 5-seed envelopes, 8 workers
//	experiments -run fig5 -gate testdata/golden/mini.json -update
//	experiments -workload mice-heavy          # declarative workload spec (preset name)
//	experiments -workload examples/specs/incast32.json
//	experiments -workload-check elephants,examples/specs/trace.json
//
// All progress and diagnostics stream to stderr; stdout carries only
// the result document (-format table, json, or csv), so it can be
// piped straight into a parser.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"presto"
	"presto/cmd/internal/cli"
	"presto/internal/campaign"
	"presto/internal/metrics"
	wspec "presto/internal/workload/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: exit code 0 on success, 1 on
// failed cells or gate drift, 2 on usage/spec/IO errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runFlag  = fs.String("run", "all", "experiment selection: 'all' or comma-separated IDs (fig1, fig5, ..., table1, table2, ablations)")
		seed     = fs.Uint64("seed", 1, "base random seed; replicas use seed, seed+1, ...")
		seeds    = fs.Int("seeds", 1, "seed replicas per cell (envelopes report mean ±stddev across them)")
		parallel = fs.Int("parallel", 0, "worker pool size; 0 = GOMAXPROCS, 1 = serial")
		timeout  = fs.Duration("timeout", 5*time.Minute, "wall-clock budget per cell replica (0 = none)")
		duration = fs.Duration("duration", 200*time.Millisecond, "measurement window per run (simulated)")
		warmup   = fs.Duration("warmup", 50*time.Millisecond, "warmup per run (simulated)")
		shards   = fs.Int("shards", 1, "per-pod engine shards for pod-scale experiments (podtraffic); results are bit-identical to serial, 1 = serial")
		format   = fs.String("format", "table", "stdout format: table (paper-style), json (campaign report), csv (envelope rows)")
		outDir   = fs.String("out", "", "directory for campaign artifacts (report.json, report.csv, manifest.json)")
		csvDir   = fs.String("csv", "", "directory to write raw CDF series as CSV (for replotting the figures)")
		gatePath = fs.String("gate", "", "golden envelope file to compare against (regression gate)")
		update   = fs.Bool("update", false, "with -gate: regenerate the golden file from this run instead of checking")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		workload = fs.String("workload", "", "sweep one workload (stride | shuffle | random | bijection | podtraffic, a workload-spec preset, or a spec.json path) across the §4 system lineup instead of -run")
		schemeF  = fs.String("scheme", "", "comma-separated scheme specs (registry name, optionally name:k=v,...); restricts -run scheme-matrix or replaces the -workload system lineup")
		wlCheck  = fs.String("workload-check", "", "validate workload specs (comma-separated preset names or spec.json paths) and exit")
		obs      cli.Observe
	)
	obs.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, id := range presto.CampaignExperimentIDs() {
			fmt.Fprintf(stdout, "%-10s %s\n", id, presto.CampaignExperimentTitle(id))
		}
		return 0
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", what, err)
		return 2
	}
	if *wlCheck != "" {
		// Validation mode (CI): load each spec through the full loader
		// and report per-spec status; exit 2 on the first failure.
		for _, name := range strings.Split(*wlCheck, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			ws, err := wspec.Resolve(name)
			if err != nil {
				return fail("workload-check "+name, err)
			}
			fmt.Fprintf(stdout, "%s: ok (name=%s hash=%s clients=%d)\n", name, ws.Name, ws.Hash(), len(ws.Clients))
		}
		return 0
	}

	sc := presto.Scenario{
		Experiments: *runFlag,
		Workload:    *workload,
		Seed:        *seed,
		Seeds:       *seeds,
		Parallelism: *parallel,
		CellTimeout: *timeout,
		Duration:    *duration,
		Warmup:      *warmup,
		Shards:      *shards,
		Telemetry:   obs.Registry(),
		Progress:    stderr,
	}
	if *workload != "" {
		sc.Experiments = "" // -workload replaces the -run selection
	}
	for _, s := range strings.Split(*schemeF, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sc.Schemes = append(sc.Schemes, s)
		}
	}
	spec, err := sc.Campaign()
	if err != nil {
		return fail("spec", err)
	}
	var report *campaign.Report
	err = obs.Profile(func() (err error) {
		report, err = presto.RunCampaign(spec)
		return err
	})
	if err != nil {
		return fail("campaign", err)
	}

	switch *format {
	case "table":
		renderReport(stdout, report, *seeds)
	case "json":
		if err := report.WriteJSON(stdout); err != nil {
			return fail("json", err)
		}
	case "csv":
		if err := report.WriteCSV(stdout); err != nil {
			return fail("csv", err)
		}
	default:
		return fail("format", fmt.Errorf("unknown -format %q (table, json, csv)", *format))
	}

	if *csvDir != "" {
		if err := writeCDFs(*csvDir, report); err != nil {
			return fail("csv dir", err)
		}
	}
	if *outDir != "" {
		if err := report.WriteArtifacts(*outDir, cli.GitDescribe()); err != nil {
			return fail("artifacts", err)
		}
		fmt.Fprintf(stderr, "artifacts written to %s (report.json, report.csv, manifest.json)\n", *outDir)
	}
	if err := obs.Export(sc.Telemetry, stderr, stderr); err != nil {
		return fail("telemetry", err)
	}

	code := 0
	if failed := report.FailedReplicas(); len(failed) > 0 {
		fmt.Fprintf(stderr, "%d replica(s) failed:\n", len(failed))
		for _, f := range failed {
			fmt.Fprintf(stderr, "  %s seed=%d: %s\n", f.Cell, f.Seed, f.Err)
		}
		code = 1
	}

	switch {
	case *gatePath != "" && *update:
		golden := campaign.GoldenFromReport(report, 0.02)
		if err := golden.Save(*gatePath); err != nil {
			return fail("gate update", err)
		}
		fmt.Fprintf(stderr, "golden envelopes written to %s (spec %s)\n", *gatePath, report.SpecHash)
	case *gatePath != "":
		golden, err := campaign.LoadGolden(*gatePath)
		if err != nil {
			return fail("gate", err)
		}
		drifts, err := golden.Check(report)
		if err != nil {
			return fail("gate", err)
		}
		if len(drifts) > 0 {
			fmt.Fprintf(stderr, "regression gate FAILED: %d metric(s) drifted beyond tolerance:\n", len(drifts))
			for _, d := range drifts {
				fmt.Fprintf(stderr, "  %s\n", d)
			}
			fmt.Fprintf(stderr, "(intentional change? regenerate with -gate %s -update)\n", *gatePath)
			code = 1
		} else {
			fmt.Fprintf(stderr, "regression gate passed: %d cells within tolerance of %s\n", len(report.Cells), *gatePath)
		}
	}
	return code
}

// writeCDFs dumps every cell's merged sample distributions as
// <dir>/<cell>_<dist>.csv ("/" and "=" sanitized for filenames).
func writeCDFs(dir string, r *campaign.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sanitize := strings.NewReplacer("/", "_", "=", "-", "+", "")
	for i := range r.Cells {
		c := &r.Cells[i]
		for _, name := range c.DistNames() {
			d := c.Dist(name)
			if d == nil || d.N() == 0 {
				continue
			}
			f, err := os.Create(filepath.Join(dir, sanitize.Replace(c.ID)+"_"+name+".csv"))
			if err != nil {
				return err
			}
			fmt.Fprintln(f, "value,fraction")
			for _, pt := range d.CDF(512) {
				fmt.Fprintf(f, "%g,%g\n", pt.Value, pt.Fraction)
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// metricsTable renders the generic fallback for an experiment: one row
// per cell × metric envelope.
func metricsTable(w io.Writer, cells []*campaign.CellResult) {
	tb := metrics.Table{Header: []string{"cell", "metric", "value"}}
	for _, c := range cells {
		names := make([]string, 0, len(c.Envelopes))
		for k := range c.Envelopes {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			tb.AddRow(strings.TrimPrefix(c.ID, c.Experiment+"/"), k, c.Envelopes[k].String())
		}
	}
	fmt.Fprint(w, tb.String())
}
