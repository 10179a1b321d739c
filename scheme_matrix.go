package presto

import (
	"fmt"

	"presto/internal/campaign"
	"presto/internal/scheme"
	"presto/internal/topo"
	wspec "presto/internal/workload/spec"
)

// The scheme matrix is the standing scheme × workload × topology
// comparison the ROADMAP calls for: every registered load-balancing
// scheme runs the same declarative workloads on both a 2-tier Clos
// and a low-diameter leaf mesh, and the campaign renders mean FCT,
// p99 FCT, and throughput per cell. The golden gate in CI turns the
// matrix into a regression fence for every scheme at once.

// matrixWorkloads are the workload-spec presets in the matrix grid,
// in render order.
var matrixWorkloads = []string{"elephants", "mice-heavy", "incast32"}

// matrixTopos are the topology columns: the paper's Figure 3 Clos and
// a 4-leaf mesh with the same server count.
var matrixTopos = []struct {
	name  string
	build func() *topo.Topology
}{
	{"clos", Testbed},
	{"mesh", func() *topo.Topology { return topo.LeafMesh(4, 4, topo.LinkConfig{}) }},
}

// SchemeMatrixTopos lists the topology column names in render order.
func SchemeMatrixTopos() []string {
	out := make([]string, len(matrixTopos))
	for i, t := range matrixTopos {
		out[i] = t.name
	}
	return out
}

// SchemeMatrixWorkloads lists the workload rows in render order.
func SchemeMatrixWorkloads() []string { return append([]string(nil), matrixWorkloads...) }

// SchemeMatrixCellID names one matrix cell; IDs are part of the
// golden-gate contract, so the format is frozen.
func SchemeMatrixCellID(schemeName, workload, topoName string) string {
	return fmt.Sprintf("scheme-matrix/scheme=%s/wl=%s/topo=%s", schemeName, workload, topoName)
}

// schemeMatrixCell builds one (scheme, workload, topology) cell.
func schemeMatrixCell(sys System, ws *wspec.Spec, topoName string, build func() *topo.Topology, opt Options) campaign.Cell {
	return campaign.Cell{
		Experiment: "scheme-matrix",
		ID:         SchemeMatrixCellID(sys.SchemeName(), ws.Name, topoName),
		Workload:   ws.Hash(),
		Run: func(seed uint64) (campaign.Result, error) {
			o := opt
			o.Seed = seed
			r, _, err := RunSpecWorkloadOn(sys, build(), ws, o)
			if err != nil {
				return campaign.Result{}, err
			}
			res := loadCellResult(r)
			if r.FCT != nil && r.FCT.N() > 0 {
				res.Metrics["fct_ms_mean"] = r.FCT.Mean()
			}
			return res, nil
		},
	}
}

// schemeMatrixCells builds the full grid over every registered scheme
// (sorted registry order — deterministic by construction).
func schemeMatrixCells(opt Options) []campaign.Cell {
	cells, err := SchemeMatrixCells(nil, opt)
	if err != nil {
		// The built-in grid uses only registry names and preset
		// workloads; failure here is a programming error.
		panic("presto: scheme matrix: " + err.Error())
	}
	return cells
}

// SchemeMatrixCells builds matrix cells for the given scheme specs
// (registry names, optionally with params). nil means every
// registered scheme with default parameters, in sorted order.
func SchemeMatrixCells(schemes []string, opt Options) ([]campaign.Cell, error) {
	opt.fill()
	var systems []System
	if len(schemes) == 0 {
		systems = SchemeSystems()
	} else {
		for _, s := range schemes {
			sys, err := SystemFor(s)
			if err != nil {
				return nil, err
			}
			systems = append(systems, sys)
		}
	}
	var cells []campaign.Cell
	for _, sys := range systems {
		for _, wl := range matrixWorkloads {
			ws, err := wspec.Preset(wl)
			if err != nil {
				return nil, err
			}
			for _, mt := range matrixTopos {
				cells = append(cells, schemeMatrixCell(sys, ws, mt.name, mt.build, opt))
			}
		}
	}
	return cells, nil
}

// SchemeMatrixSpec assembles the scheme-matrix campaign. nil schemes
// means the whole registry; the spec's Seeds/Parallelism/... are left
// for the caller, like CampaignSpec.
func SchemeMatrixSpec(schemes []string, opt Options) (*campaign.Spec, error) {
	opt.fill()
	cells, err := SchemeMatrixCells(schemes, opt)
	if err != nil {
		return nil, err
	}
	name := "scheme-matrix"
	if len(schemes) > 0 {
		name += "/" + fmt.Sprint(len(schemes)) + "-schemes"
	}
	spec := &campaign.Spec{Name: name, Params: windowParams(opt), Cells: cells}
	spec.Params["schemes"] = fmt.Sprint(len(cells) / (len(matrixWorkloads) * len(matrixTopos)))
	return spec, nil
}

// RunSchemeMatrix builds and executes the scheme-matrix campaign over
// the given scheme specs (nil = the whole registry) with the given
// seed replication.
func RunSchemeMatrix(schemes []string, seeds int, opt Options) (*campaign.Report, error) {
	spec, err := SchemeMatrixSpec(schemes, opt)
	if err != nil {
		return nil, err
	}
	if seeds > 0 {
		spec.Seeds = campaign.Seeds(1, seeds)
	}
	return campaign.Run(spec)
}

// SchemeNames exposes the registry listing (sorted) to front-ends
// that do not import internal/scheme.
func SchemeNames() []string { return scheme.Names() }
