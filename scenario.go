package presto

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"strings"
	"time"

	"presto/internal/campaign"
	"presto/internal/sim"
	"presto/internal/telemetry"
	wspec "presto/internal/workload/spec"
)

// Scenario is one request for simulator runs in the terms every
// front-end shares: which traffic on which systems, replicated over
// which seeds, in which windows. prestosim's and cmd/experiments'
// flags and prestod's JobRequest map onto it field by field, and
// Campaign compiles it to the campaign all of them execute — so one
// request means the same runs, whichever front-end carries it.
type Scenario struct {
	// Experiments selects paper experiments: "all" or comma-separated
	// IDs (see CampaignExperimentIDs). Exactly one of Experiments and
	// Workload is set.
	Experiments string
	// Workload sweeps one traffic pattern across the systems instead:
	// a built-in pattern (stride, shuffle, random, bijection),
	// podtraffic, a workload-spec preset, a spec.json path, or an
	// inline spec (a JSON object).
	Workload string
	// Schemes are system names or scheme specs (see SystemFor). With a
	// Workload they replace the §4 lineup; with Experiments they
	// restrict "scheme-matrix" and are an error otherwise.
	Schemes []string

	Seed        uint64        // base seed; replicas use Seed, Seed+1, ...
	Seeds       int           // replicas per cell (<= 0 means 1)
	Parallelism int           // worker pool size (<= 0 means GOMAXPROCS)
	CellTimeout time.Duration // wall-clock budget per replica (0 = none)

	Duration, Warmup time.Duration // simulated windows per run (0 = defaults)

	// Shards partitions pod-scale runs into per-pod engine shards;
	// results are bit-identical to serial (<= 1 = serial).
	Shards int
	// Pods and HostsPerLeaf shape the podtraffic workload's Clos
	// (0 = 4 pods, 2 hosts per leaf).
	Pods, HostsPerLeaf int

	// Telemetry, when non-nil, collects the campaign's probes and —
	// when replicas run one at a time — every run's trace and
	// component probes.
	Telemetry *telemetry.Registry
	// Progress, when non-nil, receives per-replica progress lines and
	// notes.
	Progress io.Writer
}

// The podtraffic shape when a Scenario leaves it unset: the pod-scale
// experiment's 4 pods × 2 hosts per leaf.
const defaultPods, defaultHostsPerLeaf = 4, 2

// RunDetail is one scenario replica's full outcome. Workload cells
// attach it as campaign.Result.Detail, so a front-end that prints a
// single run reads the run itself rather than its aggregated metrics.
type RunDetail struct {
	System System
	// Workload is the display name: the pattern, "podtraffic", or a
	// spec's "name(spec hash)".
	Workload string
	// Load carries throughput, fairness and loss, plus RTT and FCT
	// where the workload measures them.
	Load    LoadResult
	Clients []wspec.ClientResult // per-client outcomes of a workload spec
	Pod     *PodTrafficResult    // pod shape and engine counters (podtraffic)
}

// builder compiles a resolved selection for one set of run options.
type builder func(opt Options) (*campaign.Spec, error)

// Campaign compiles the scenario to an executable campaign spec.
//
// Per-run telemetry (Options.Telemetry) is wired only when replicas
// run one at a time — Parallelism 1, or a single replica — because
// the runs share one registry. Otherwise the campaign still reports
// its own probes and a note goes to Progress. Per-run telemetry is
// rejected with Shards > 1 here, before any cell runs.
func (s Scenario) Campaign() (*campaign.Spec, error) {
	build, err := s.selection()
	if err != nil {
		return nil, err
	}
	opt := Options{
		Duration: sim.FromDuration(s.Duration),
		Warmup:   sim.FromDuration(s.Warmup),
		Shards:   s.Shards,
	}
	spec, err := build(opt)
	if err != nil {
		return nil, err
	}
	seeds := max(s.Seeds, 1)
	if s.Telemetry != nil {
		if s.Parallelism == 1 || len(spec.Cells)*seeds == 1 {
			if s.Shards > 1 {
				return nil, fmt.Errorf("per-run telemetry (-trace, -events, -snapshot, -v) needs -shards 1, got -shards %d: tracer state is cross-shard", s.Shards)
			}
			opt.Telemetry = s.Telemetry
			if spec, err = build(opt); err != nil {
				return nil, err
			}
		} else if s.Progress != nil {
			fmt.Fprintln(s.Progress, "note: per-run telemetry probes need -parallel 1; collecting campaign-level telemetry only")
		}
	}
	spec.Seeds = campaign.Seeds(s.Seed, seeds)
	spec.Parallelism = s.Parallelism
	spec.CellTimeout = s.CellTimeout
	spec.Progress = s.Progress
	spec.Telemetry = s.Telemetry
	return spec, nil
}

// selection is the one switch from a front-end's selection to the
// cells it runs.
func (s Scenario) selection() (builder, error) {
	switch {
	case s.Experiments != "" && s.Workload != "":
		return nil, errors.New("an experiment selection and a workload are mutually exclusive")
	case s.Workload != "":
		var systems []System
		for _, name := range s.Schemes {
			sys, err := SystemFor(name)
			if err != nil {
				return nil, fmt.Errorf("scheme: %w", err)
			}
			systems = append(systems, sys)
		}
		if len(systems) == 0 {
			systems = scaleSystems
		}
		return s.workload(systems)
	case len(s.Schemes) > 0:
		if s.Experiments != "scheme-matrix" {
			return nil, fmt.Errorf("schemes need a workload or the scheme-matrix experiment (registered schemes: %s)", strings.Join(SchemeNames(), ", "))
		}
		return func(opt Options) (*campaign.Spec, error) {
			spec, err := SchemeMatrixSpec(s.Schemes, opt)
			if err != nil {
				return nil, fmt.Errorf("scheme: %w", err)
			}
			return spec, nil
		}, nil
	case s.Experiments != "":
		return func(opt Options) (*campaign.Spec, error) { return CampaignSpec(s.Experiments, opt) }, nil
	}
	return nil, errors.New("missing an experiment selection (e.g. fig7 or all) or a workload (pattern, podtraffic, preset, spec path, or inline spec)")
}

// workload resolves the Workload once and sweeps it across systems.
func (s Scenario) workload(systems []System) (builder, error) {
	w := strings.TrimSpace(s.Workload)
	for _, kind := range workloads {
		if strings.EqualFold(w, kind.String()) {
			return sweep("workload/"+kind.String(), nil, systems, func(sys System, opt Options) campaign.Cell {
				return workloadCellFor("workload", fmt.Sprintf("workload/wl=%v/sys=%v", kind, sys), sys, kind, opt)
			}), nil
		}
	}
	if w == "podtraffic" {
		pods, hostsPerLeaf := s.Pods, s.HostsPerLeaf
		if pods <= 0 {
			pods = defaultPods
		}
		if hostsPerLeaf <= 0 {
			hostsPerLeaf = defaultHostsPerLeaf
		}
		shape := map[string]string{"pods": fmt.Sprint(pods), "hosts_per_leaf": fmt.Sprint(hostsPerLeaf)}
		return sweep("workload/podtraffic", shape, systems, func(sys System, opt Options) campaign.Cell {
			return podtrafficCell(sys, pods, hostsPerLeaf, opt)
		}), nil
	}
	var ws *wspec.Spec
	var err error
	if strings.HasPrefix(w, "{") {
		if ws, err = wspec.Parse([]byte(w)); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
	} else if ws, err = wspec.Resolve(w); err != nil {
		return nil, fmt.Errorf("workload %q is neither a built-in pattern (stride | shuffle | random | bijection | podtraffic) nor a workload spec: %w", w, err)
	}
	return func(opt Options) (*campaign.Spec, error) { return SpecWorkloadCampaign(ws, systems, opt), nil }, nil
}

// sweep builds a code-defined workload's campaign: one cell per system,
// with the run windows and params in the spec's identity.
func sweep(name string, params map[string]string, systems []System, cell func(System, Options) campaign.Cell) builder {
	return func(opt Options) (*campaign.Spec, error) {
		opt.fill()
		spec := &campaign.Spec{Name: name, Params: windowParams(opt)}
		spec.Params["mice_interval"] = opt.MiceInterval.String()
		maps.Copy(spec.Params, params)
		for _, sys := range systems {
			spec.Cells = append(spec.Cells, cell(sys, opt))
		}
		return spec, nil
	}
}
