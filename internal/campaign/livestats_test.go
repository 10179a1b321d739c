package campaign

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"presto/internal/metrics"
	"presto/internal/telemetry"
)

// statSpec builds a campaign whose replicas emit a deterministic
// "fct_ms" distribution derived from the seed.
func statSpec(stats *LiveStats, reg *telemetry.Registry, parallelism int) *Spec {
	cells := make([]Cell, 3)
	for i := range cells {
		ci := i
		cells[i] = Cell{
			Experiment: "live",
			ID:         fmt.Sprintf("live/cell=%d", ci),
			Run: func(seed uint64) (Result, error) {
				rng := rand.New(rand.NewSource(int64(seed) + int64(ci)<<8))
				d := &metrics.Dist{}
				for j := 0; j < 500; j++ {
					d.Add(rng.Float64() * 100)
				}
				return Result{
					Metrics: Values{"x": float64(seed)},
					Dists:   map[string]*metrics.Dist{"fct_ms": d},
				}, nil
			},
		}
	}
	return &Spec{
		Name:        "livestats",
		Cells:       cells,
		Seeds:       Seeds(1, 4),
		Parallelism: parallelism,
		Stats:       stats,
		Telemetry:   reg,
	}
}

func TestLiveStatsAccumulatesAndIsOrderIndependent(t *testing.T) {
	// Run the same campaign serially and at full parallelism: the
	// accumulated sketches must agree exactly despite different
	// completion orders (merge commutativity).
	s1 := NewLiveStats(0.01)
	if _, err := Run(statSpec(s1, nil, 1)); err != nil {
		t.Fatal(err)
	}
	s2 := NewLiveStats(0.01)
	if _, err := Run(statSpec(s2, nil, 8)); err != nil {
		t.Fatal(err)
	}

	if s1.Replicas() != 12 || s2.Replicas() != 12 {
		t.Fatalf("replicas observed: %d / %d, want 12", s1.Replicas(), s2.Replicas())
	}
	names := s1.Names()
	if len(names) != 1 || names[0] != "fct_ms" {
		t.Fatalf("names = %v", names)
	}
	q1 := s1.Quantiles(0.5, 0.95, 0.99, 0.999)["fct_ms"]
	q2 := s2.Quantiles(0.5, 0.95, 0.99, 0.999)["fct_ms"]
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatalf("quantile %d diverged across parallelism: %v vs %v", i, q1[i], q2[i])
		}
	}
	if sk := s1.Sketch("fct_ms"); sk.N() != 12*500 {
		t.Fatalf("sketch N = %d, want %d", sk.N(), 12*500)
	}
	// Quantiles must be sane: monotone, within observed range.
	for i := 1; i < len(q1); i++ {
		if q1[i] < q1[i-1] {
			t.Fatalf("quantiles not monotone: %v", q1)
		}
	}
}

func TestLiveStatsProbeRegistered(t *testing.T) {
	reg := telemetry.NewRegistry(nil)
	ls := NewLiveStats(0.01)
	if _, err := Run(statSpec(ls, reg, 4)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(0)
	stats := snap.Components["stats"]
	if stats == nil {
		t.Fatal("no stats probe registered")
	}
	for _, k := range []string{"fct_ms.p50", "fct_ms.p95", "fct_ms.p99", "fct_ms.p999", "fct_ms.n", "replicas_observed"} {
		if _, ok := stats[k]; !ok {
			t.Errorf("stats probe missing %q (have %v)", k, stats)
		}
	}
	if stats["replicas_observed"].(uint64) != 12 {
		t.Errorf("replicas_observed = %v", stats["replicas_observed"])
	}
}

func TestLiveStatsNilSafe(t *testing.T) {
	var ls *LiveStats
	ls.observe(Result{})
	if ls.Names() != nil || ls.Quantiles(0.5) != nil || ls.Sketch("x") != nil ||
		ls.Replicas() != 0 || ls.Alpha() != 0 {
		t.Fatal("nil LiveStats recorded state")
	}
	// A spec with nil Stats runs unchanged.
	if _, err := Run(statSpec(nil, nil, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestReportCarriesSketches(t *testing.T) {
	rep, err := Run(statSpec(nil, nil, 4))
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cell("live/cell=0")
	if c == nil || c.Sketches["fct_ms"] == nil {
		t.Fatal("report cell missing fct_ms sketch")
	}
	sk := c.Sketches["fct_ms"]
	if sk.N() != 4*500 {
		t.Fatalf("cell sketch N = %d, want 2000", sk.N())
	}
	// Sketch percentiles must track the exact merged distribution.
	d := c.Dist("fct_ms")
	for _, p := range []float64{50, 95, 99} {
		got, want := sk.Percentile(p), d.Percentile(p)
		if want == 0 {
			continue
		}
		if re := (got - want) / want; re > 0.03 || re < -0.03 {
			t.Errorf("p%v: sketch %v vs exact %v", p, got, want)
		}
	}

	// The sketches survive the JSON artifact round trip.
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	bc := back.Cell("live/cell=0")
	if bc == nil || bc.Sketches["fct_ms"] == nil {
		t.Fatal("decoded report lost sketches")
	}
	if bc.Sketches["fct_ms"].Quantile(0.99) != sk.Quantile(0.99) {
		t.Fatal("sketch quantiles drifted through report.json")
	}

	// And the bytes are identical across parallelism levels.
	rep2, err := Run(statSpec(nil, nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 strings.Builder
	if err := rep2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("report.json bytes differ across parallelism")
	}
}
