package presto

import (
	"fmt"
	"strings"

	"presto/internal/campaign"
	"presto/internal/cluster"
	"presto/internal/fabric"
	"presto/internal/gro"
	"presto/internal/metrics"
	"presto/internal/sim"
	"presto/internal/tcp"
	"presto/internal/workload"
)

// This file exposes the paper's evaluation as a declarative campaign:
// every figure/table becomes a set of campaign cells (one simulator
// run per parameter point), replicated over seeds and executed on
// internal/campaign's worker pool. cmd/experiments drives all output
// through it; examples can build specs directly.

// scaleSystems are the four systems the scalability, oversubscription,
// and workload sweeps compare (the paper's §4 lineup).
var scaleSystems = []System{SysECMP, SysMPTCP, SysPresto, SysOptimal}

// workloads is the synthetic workload sweep order of Figure 15.
var workloads = []WorkloadKind{Shuffle, Random, Stride, Bijection}

// campaignBuilders maps experiment ID → cell builder, in render order.
var campaignBuilders = []struct {
	id    string
	title string
	cells func(opt Options) []campaign.Cell
}{
	{"fig1", "Flowlet sizes vs competing flows (500us gap)", fig1Cells},
	{"fig5", "GRO reordering microbenchmark (OOO counts, segment sizes)", fig5Cells},
	{"fig6", "Receiver CPU overhead at line rate", fig6Cells},
	{"fig7", "Scalability: throughput vs path count", fig7Cells},
	{"fig8", "Scalability: RTT distribution", fig8Cells},
	{"fig9", "Scalability: loss rate and fairness", fig9Cells},
	{"fig10", "Oversubscription: throughput", fig10Cells},
	{"fig11", "Oversubscription: RTT distribution", fig11Cells},
	{"fig12", "Oversubscription: loss rate and fairness", fig12Cells},
	{"fig13", "Flowlet switching vs Presto (stride)", fig13Cells},
	{"fig14", "Presto shadow-MAC vs Presto+ECMP (stride)", fig14Cells},
	{"fig15", "Elephant throughput across workloads", fig15Cells},
	{"fig16", "Mice FCT across workloads", fig16Cells},
	{"table1", "Trace-driven mice FCT (normalized to ECMP)", table1Cells},
	{"table2", "North-south cross traffic: east-west mice FCT", table2Cells},
	{"fig17", "Failure handling: throughput per stage", fig17Cells},
	{"fig18", "Failure handling: RTT per stage (bijection)", fig18Cells},
	{"ablations", "Design-choice ablations (flowcell size, GRO alpha, buffers, DCTCP, tunnels)", ablationCells},
	{"podtraffic", "Pod-scale cross-pod elephants on a 3-tier Clos (honors -shards)", podtrafficCells},
	{"scheme-matrix", "Scheme registry × workload × topology comparison matrix", schemeMatrixCells},
}

// CampaignExperimentIDs lists the experiment IDs in render order.
func CampaignExperimentIDs() []string {
	out := make([]string, len(campaignBuilders))
	for i, b := range campaignBuilders {
		out[i] = b.id
	}
	return out
}

// CampaignExperimentTitle returns the human title for an experiment
// ID ("" when unknown).
func CampaignExperimentTitle(id string) string {
	for _, b := range campaignBuilders {
		if b.id == id {
			return b.title
		}
	}
	return ""
}

// CampaignSpec builds the campaign for an experiment selection: "all"
// or a comma-separated list of IDs (fig1, fig5, ..., table1, table2,
// ablations). opt seeds each cell's Options; opt.Seed itself is
// ignored — the spec's Seeds field decides replication. Execution
// knobs (Seeds, Parallelism, CellTimeout, Progress, Telemetry) are
// left for the caller to fill in on the returned spec.
func CampaignSpec(sel string, opt Options) (*campaign.Spec, error) {
	opt.fill()
	var ids []string
	if strings.ToLower(sel) == "all" {
		ids = CampaignExperimentIDs()
	} else {
		for _, id := range strings.Split(strings.ToLower(sel), ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if CampaignExperimentTitle(id) == "" {
				return nil, fmt.Errorf("unknown experiment %q (known: %s, all)", id, strings.Join(CampaignExperimentIDs(), ", "))
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("empty experiment selection %q", sel)
		}
	}
	spec := &campaign.Spec{Name: "experiments/" + strings.Join(ids, ","), Params: windowParams(opt)}
	spec.Params["mice_interval"] = opt.MiceInterval.String()
	for _, id := range ids {
		for _, b := range campaignBuilders {
			if b.id == id {
				spec.Cells = append(spec.Cells, b.cells(opt)...)
			}
		}
	}
	return spec, nil
}

// windowParams records the run windows in a spec's identity so golden
// envelopes detect runs taken with different windows.
func windowParams(opt Options) map[string]string {
	return map[string]string{"duration": opt.Duration.String(), "warmup": opt.Warmup.String()}
}

// RunCampaign executes a spec — the facade over internal/campaign.
func RunCampaign(spec *campaign.Spec) (*campaign.Report, error) {
	return campaign.Run(spec)
}

// addDistStats folds a distribution's headline statistics into v under
// prefix (prefix_p50 ... prefix_max, prefix_n).
func addDistStats(v campaign.Values, prefix string, d *metrics.Dist) {
	if d == nil || d.N() == 0 {
		return
	}
	v[prefix+"_p50"] = d.Percentile(50)
	v[prefix+"_p90"] = d.Percentile(90)
	v[prefix+"_p99"] = d.Percentile(99)
	v[prefix+"_p999"] = d.Percentile(99.9)
	v[prefix+"_max"] = d.Max()
	v[prefix+"_n"] = float64(d.N())
}

// loadCellResult converts a LoadResult into campaign metrics + dists.
func loadCellResult(r LoadResult) campaign.Result {
	v := campaign.Values{
		"tput_gbps": r.MeanTput,
		"loss_pct":  r.LossRate * 100,
		"fairness":  r.Fairness,
	}
	addDistStats(v, "rtt_ms", r.RTT)
	dists := map[string]*metrics.Dist{}
	if r.RTT != nil && r.RTT.N() > 0 {
		dists["rtt_ms"] = r.RTT
	}
	if r.FCT != nil && r.FCT.N() > 0 {
		addDistStats(v, "fct_ms", r.FCT)
		v["mice_timeouts"] = float64(r.MiceTimeouts)
		dists["fct_ms"] = r.FCT
	}
	return campaign.Result{Metrics: v, Dists: dists}
}

// seeded returns opt with the replica's seed and per-run telemetry
// passed through (the campaign runner decides whether to wire it).
func seeded(opt Options, seed uint64) Options {
	o := opt
	o.Seed = seed
	return o
}

func fig1Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, competing := range []int{1, 2, 3, 4, 6, 8} {
		competing := competing
		cells = append(cells, campaign.Cell{
			Experiment: "fig1",
			ID:         fmt.Sprintf("fig1/competing=%d", competing),
			Run: func(seed uint64) (campaign.Result, error) {
				r := RunFlowletSizes(competing, 500*sim.Microsecond, 32<<20, seeded(opt, seed))
				v := campaign.Values{
					"flowlets":         float64(r.Count),
					"largest_fraction": r.LargestFraction,
				}
				for i, s := range r.TopSizes {
					if i >= 3 {
						break
					}
					v[fmt.Sprintf("top%d_mb", i+1)] = s
				}
				return campaign.Result{Metrics: v}, nil
			},
		})
	}
	return cells
}

func fig5Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, official := range []bool{true, false} {
		official := official
		name := "presto"
		if official {
			name = "official"
		}
		cells = append(cells, campaign.Cell{
			Experiment: "fig5",
			ID:         "fig5/gro=" + name,
			Run: func(seed uint64) (campaign.Result, error) {
				r := RunGROMicrobench(official, seeded(opt, seed))
				v := campaign.Values{
					"tput_gbps":    r.MeanTput,
					"cpu_util_pct": r.CPUUtil * 100,
					"seg_kb_mean":  r.SegSizes.Mean(),
				}
				addDistStats(v, "ooo", r.OOOCounts)
				addDistStats(v, "seg_kb", r.SegSizes)
				return campaign.Result{Metrics: v, Dists: map[string]*metrics.Dist{
					"ooo_counts": r.OOOCounts,
					"seg_kb":     r.SegSizes,
				}}, nil
			},
		})
	}
	return cells
}

func fig6Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, prestoGRO := range []bool{false, true} {
		prestoGRO := prestoGRO
		name := "official"
		if prestoGRO {
			name = "presto"
		}
		cells = append(cells, campaign.Cell{
			Experiment: "fig6",
			ID:         "fig6/gro=" + name,
			Run: func(seed uint64) (campaign.Result, error) {
				r := RunCPUOverhead(prestoGRO, seeded(opt, seed))
				return campaign.Result{Metrics: campaign.Values{
					"cpu_pct":   r.Mean,
					"tput_gbps": r.MeanTput,
				}}, nil
			},
		})
	}
	return cells
}

// scalabilityCell runs RunScalability at one (paths, system) point.
func scalabilityCell(exp string, id string, sys System, paths int, opt Options) campaign.Cell {
	return campaign.Cell{
		Experiment: exp,
		ID:         id,
		Run: func(seed uint64) (campaign.Result, error) {
			return loadCellResult(RunScalability(sys, paths, seeded(opt, seed))), nil
		},
	}
}

func fig7Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for paths := 2; paths <= 8; paths++ {
		for _, sys := range scaleSystems {
			id := fmt.Sprintf("fig7/paths=%d/sys=%v", paths, sys)
			cells = append(cells, scalabilityCell("fig7", id, sys, paths, opt))
		}
	}
	return cells
}

func fig8Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, sys := range scaleSystems {
		id := fmt.Sprintf("fig8/sys=%v", sys)
		cells = append(cells, scalabilityCell("fig8", id, sys, 8, opt))
	}
	return cells
}

func fig9Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, paths := range []int{2, 4, 8} {
		for _, sys := range scaleSystems {
			id := fmt.Sprintf("fig9/paths=%d/sys=%v", paths, sys)
			cells = append(cells, scalabilityCell("fig9", id, sys, paths, opt))
		}
	}
	return cells
}

// oversubCell runs RunOversubscription at one (flows, system) point.
func oversubCell(exp, id string, sys System, flows int, opt Options) campaign.Cell {
	return campaign.Cell{
		Experiment: exp,
		ID:         id,
		Run: func(seed uint64) (campaign.Result, error) {
			return loadCellResult(RunOversubscription(sys, flows, seeded(opt, seed))), nil
		},
	}
}

func fig10Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, flows := range []int{2, 4, 6, 8} {
		for _, sys := range scaleSystems {
			id := fmt.Sprintf("fig10/flows=%d/sys=%v", flows, sys)
			cells = append(cells, oversubCell("fig10", id, sys, flows, opt))
		}
	}
	return cells
}

func fig11Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, sys := range []System{SysECMP, SysMPTCP, SysPresto} {
		id := fmt.Sprintf("fig11/sys=%v", sys)
		cells = append(cells, oversubCell("fig11", id, sys, 8, opt))
	}
	return cells
}

func fig12Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, flows := range []int{2, 4, 8} {
		for _, sys := range []System{SysECMP, SysMPTCP, SysPresto} {
			id := fmt.Sprintf("fig12/flows=%d/sys=%v", flows, sys)
			cells = append(cells, oversubCell("fig12", id, sys, flows, opt))
		}
	}
	return cells
}

// workloadCellFor runs RunWorkload at one (workload, system) point.
func workloadCellFor(exp, id string, sys System, kind WorkloadKind, opt Options) campaign.Cell {
	return campaign.Cell{
		Experiment: exp,
		ID:         id,
		Run: func(seed uint64) (campaign.Result, error) {
			r := RunWorkload(sys, kind, seeded(opt, seed))
			res := loadCellResult(r)
			res.Detail = RunDetail{System: sys, Workload: kind.String(), Load: r}
			return res, nil
		},
	}
}

func fig13Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, sys := range []System{SysFlowlet100, SysFlowlet500, SysPresto} {
		id := fmt.Sprintf("fig13/sys=%v", sys)
		cells = append(cells, workloadCellFor("fig13", id, sys, Stride, opt))
	}
	return cells
}

func fig14Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, sys := range []System{SysPrestoECMP, SysPresto} {
		id := fmt.Sprintf("fig14/sys=%v", sys)
		cells = append(cells, workloadCellFor("fig14", id, sys, Stride, opt))
	}
	return cells
}

func fig15Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, w := range workloads {
		for _, sys := range scaleSystems {
			id := fmt.Sprintf("fig15/wl=%v/sys=%v", w, sys)
			cells = append(cells, workloadCellFor("fig15", id, sys, w, opt))
		}
	}
	return cells
}

func fig16Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, w := range []WorkloadKind{Stride, Bijection, Shuffle} {
		for _, sys := range scaleSystems {
			id := fmt.Sprintf("fig16/wl=%v/sys=%v", w, sys)
			cells = append(cells, workloadCellFor("fig16", id, sys, w, opt))
		}
	}
	return cells
}

func table1Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, sys := range []System{SysECMP, SysOptimal, SysPresto} {
		sys := sys
		cells = append(cells, campaign.Cell{
			Experiment: "table1",
			ID:         fmt.Sprintf("table1/sys=%v", sys),
			Run: func(seed uint64) (campaign.Result, error) {
				r := RunTrace(sys, seeded(opt, seed))
				v := campaign.Values{
					"elephant_tput_gbps": r.ElephantTput,
					"flows":              float64(r.Flows),
				}
				addDistStats(v, "fct_ms", r.MiceFCT)
				return campaign.Result{Metrics: v, Dists: map[string]*metrics.Dist{"fct_ms": r.MiceFCT}}, nil
			},
		})
	}
	return cells
}

func table2Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, sys := range []System{SysECMP, SysMPTCP, SysPresto, SysOptimal} {
		sys := sys
		cells = append(cells, campaign.Cell{
			Experiment: "table2",
			ID:         fmt.Sprintf("table2/sys=%v", sys),
			Run: func(seed uint64) (campaign.Result, error) {
				r := RunNorthSouth(sys, seeded(opt, seed))
				v := campaign.Values{
					"tput_gbps":     r.MeanTput,
					"mice_timeouts": float64(r.MiceTimeouts),
				}
				addDistStats(v, "fct_ms", r.MiceFCT)
				return campaign.Result{Metrics: v, Dists: map[string]*metrics.Dist{"fct_ms": r.MiceFCT}}, nil
			},
		})
	}
	return cells
}

func fig17Cells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, w := range []FailoverWorkload{FailL1L4, FailL4L1, FailStride, FailBijection} {
		w := w
		cells = append(cells, campaign.Cell{
			Experiment: "fig17",
			ID:         fmt.Sprintf("fig17/wl=%v", w),
			Run: func(seed uint64) (campaign.Result, error) {
				r := RunFailover(w, seeded(opt, seed))
				return campaign.Result{Metrics: campaign.Values{
					"symmetry_gbps": r.SymmetryTput,
					"failover_gbps": r.FailoverTput,
					"weighted_gbps": r.WeightedTput,
				}}, nil
			},
		})
	}
	return cells
}

func fig18Cells(opt Options) []campaign.Cell {
	return []campaign.Cell{{
		Experiment: "fig18",
		ID:         "fig18/wl=bijection",
		Run: func(seed uint64) (campaign.Result, error) {
			r := RunFailover(FailBijection, seeded(opt, seed))
			v := campaign.Values{}
			addDistStats(v, "symmetry_rtt_ms", r.SymmetryRTT)
			addDistStats(v, "failover_rtt_ms", r.FailoverRTT)
			addDistStats(v, "weighted_rtt_ms", r.WeightedRTT)
			return campaign.Result{Metrics: v, Dists: map[string]*metrics.Dist{
				"rtt_symmetry": r.SymmetryRTT,
				"rtt_failover": r.FailoverRTT,
				"rtt_weighted": r.WeightedRTT,
			}}, nil
		},
	}}
}

// ablationStride is the miniature stride harness the design-choice
// sweeps share (20 ms warmup + 90 ms measurement regardless of opt,
// matching bench_ablation_test.go).
func ablationStride(seed uint64, opt Options, mut func(*cluster.Config)) (gbps float64, c *cluster.Cluster) {
	cfg := cluster.Config{Topology: Testbed(), Scheme: cluster.Presto, Seed: seed, Telemetry: opt.Telemetry}
	if mut != nil {
		mut(&cfg)
	}
	c = cluster.New(cfg)
	el := workload.Stride(c, 8)
	c.Eng.Run(20 * sim.Millisecond)
	el.ResetBaseline(c.Eng.Now())
	c.Eng.Run(90 * sim.Millisecond)
	return el.Mean(c.Eng.Now()), c
}

func ablationCells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	add := func(id string, run campaign.RunFunc) {
		cells = append(cells, campaign.Cell{Experiment: "ablations", ID: id, Run: run})
	}
	for _, kb := range []int{16, 32, 64, 128, 256} {
		kb := kb
		add(fmt.Sprintf("ablations/flowcell_kb=%d", kb), func(seed uint64) (campaign.Result, error) {
			g, _ := ablationStride(seed, opt, func(cfg *cluster.Config) { cfg.SchemeParams = map[string]string{"cell": fmt.Sprint(kb << 10)} })
			return campaign.Result{Metrics: campaign.Values{"tput_gbps": g}}, nil
		})
	}
	for _, a := range []float64{0.5, 1, 2, 4} {
		a := a
		add(fmt.Sprintf("ablations/gro_alpha=%g", a), func(seed uint64) (campaign.Result, error) {
			g, c := ablationStride(seed, opt, func(cfg *cluster.Config) { cfg.GROConfig = gro.PrestoConfig{Alpha: a} })
			var fires uint64
			for _, h := range c.Hosts {
				fires += h.NIC.GRO().Stats().TimeoutFires
			}
			return campaign.Result{Metrics: campaign.Values{"tput_gbps": g, "timeout_fires": float64(fires)}}, nil
		})
	}
	for _, kb := range []int{256, 512, 2048, 8192} {
		kb := kb
		add(fmt.Sprintf("ablations/buffer_kb=%d", kb), func(seed uint64) (campaign.Result, error) {
			g, c := ablationStride(seed, opt, func(cfg *cluster.Config) { cfg.Fabric = fabric.Config{SwitchQueueBytes: kb << 10} })
			return campaign.Result{Metrics: campaign.Values{"tput_gbps": g, "loss_pct": c.Net.LossRate() * 100}}, nil
		})
	}
	for _, cc := range []string{"cubic", "reno", "dctcp"} {
		cc := cc
		add("ablations/cc="+cc, func(seed uint64) (campaign.Result, error) {
			g, _ := ablationStride(seed, opt, func(cfg *cluster.Config) {
				cfg.TCP = tcp.Config{CC: cc}
				if cc == "dctcp" {
					cfg.Fabric = fabric.Config{ECNThresholdBytes: 200 << 10}
				}
			})
			return campaign.Result{Metrics: campaign.Values{"tput_gbps": g}}, nil
		})
	}
	for _, tunnel := range []bool{false, true} {
		tunnel := tunnel
		name := "per-host"
		if tunnel {
			name = "tunnel"
		}
		add("ablations/labels="+name, func(seed uint64) (campaign.Result, error) {
			g, c := ablationStride(seed, opt, func(cfg *cluster.Config) { cfg.Ctrl.TunnelMode = tunnel })
			rules := 0
			for _, leaf := range c.Topo.Leaves {
				rules += c.Net.Switch(leaf).LabelCount()
			}
			return campaign.Result{Metrics: campaign.Values{"tput_gbps": g, "leaf_rules": float64(rules)}}, nil
		})
	}
	return cells
}

// podtrafficCells drives cross-pod elephants on a pod-based 3-tier
// Clos. Options.Shards selects the engine partitioning; every metric
// below is bit-identical across shard counts (the events metric pins
// exactly that in golden gates), so the knob only changes wall-clock
// time.
func podtrafficCells(opt Options) []campaign.Cell {
	var cells []campaign.Cell
	for _, sys := range []System{SysECMP, SysPresto} {
		cells = append(cells, podtrafficCell(sys, defaultPods, defaultHostsPerLeaf, opt))
	}
	return cells
}

// podtrafficCell runs RunPodTraffic at one (shape, system) point.
func podtrafficCell(sys System, pods, hostsPerLeaf int, opt Options) campaign.Cell {
	return campaign.Cell{
		Experiment: "podtraffic",
		ID:         fmt.Sprintf("podtraffic/pods=%d/sys=%v", pods, sys),
		Run: func(seed uint64) (campaign.Result, error) {
			r := RunPodTraffic(sys, pods, hostsPerLeaf, seeded(opt, seed))
			load := LoadResult{System: sys, Seed: r.Seed, MeanTput: r.MeanTput, Fairness: r.Fairness, LossRate: r.LossRate}
			return campaign.Result{
				Metrics: campaign.Values{
					"tput_gbps": r.MeanTput,
					"fairness":  r.Fairness,
					"loss_pct":  r.LossRate * 100,
					"events":    float64(r.Events),
				},
				Detail: RunDetail{System: sys, Workload: "podtraffic", Load: load, Pod: &r},
			}, nil
		},
	}
}

// ExperimentsInReport lists the distinct experiment IDs present in a
// report, in cell order.
func ExperimentsInReport(r *campaign.Report) []string {
	seen := map[string]bool{}
	var out []string
	for i := range r.Cells {
		if e := r.Cells[i].Experiment; !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}
