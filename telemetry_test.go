package presto

import (
	"bytes"
	"encoding/json"
	"testing"

	"presto/internal/cluster"
	"presto/internal/sim"
	"presto/internal/telemetry"
	"presto/internal/workload"
)

func shortOpt(reg *telemetry.Registry) Options {
	return Options{
		Seed:      42,
		Warmup:    10 * sim.Millisecond,
		Duration:  20 * sim.Millisecond,
		Telemetry: reg,
	}
}

// sameLoadResult asserts every workload metric of two runs is
// bit-identical — the core of the telemetry determinism regression.
func sameLoadResult(t *testing.T, plain, traced LoadResult) {
	t.Helper()
	if plain.MeanTput != traced.MeanTput {
		t.Errorf("MeanTput diverged: %v vs %v", plain.MeanTput, traced.MeanTput)
	}
	if plain.LossRate != traced.LossRate {
		t.Errorf("LossRate diverged: %v vs %v", plain.LossRate, traced.LossRate)
	}
	if plain.Fairness != traced.Fairness {
		t.Errorf("Fairness diverged: %v vs %v", plain.Fairness, traced.Fairness)
	}
	if plain.MiceTimeouts != traced.MiceTimeouts {
		t.Errorf("MiceTimeouts diverged: %d vs %d", plain.MiceTimeouts, traced.MiceTimeouts)
	}
	a, b := plain.RTT.Samples(), traced.RTT.Samples()
	if len(a) != len(b) {
		t.Fatalf("RTT sample counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RTT sample %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	fa, fb := plain.FCT.Samples(), traced.FCT.Samples()
	if len(fa) != len(fb) {
		t.Fatalf("FCT sample counts diverged: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("FCT sample %d diverged: %v vs %v", i, fa[i], fb[i])
		}
	}
}

// TestTelemetryDoesNotPerturbResults is the determinism regression
// test: the same seed must produce bit-identical metrics whether the
// telemetry layer (tracer + probes + link monitor) is on or off.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	plain := RunWorkload(SysPresto, Stride, shortOpt(nil))
	reg := telemetry.NewRegistry(telemetry.NewTracer())
	traced := RunWorkload(SysPresto, Stride, shortOpt(reg))

	sameLoadResult(t, plain, traced)
	if traced.Telemetry == nil {
		t.Fatal("traced run has no snapshot")
	}
	if plain.Telemetry != nil {
		t.Fatal("plain run unexpectedly has a snapshot")
	}
	if len(reg.Tracer().Events()) == 0 {
		t.Fatal("traced run recorded no events")
	}
}

// TestTelemetryEventLimitDoesNotPerturbResults extends the
// determinism regression to a tracer that hits its event limit: a
// run whose later events are counted as dropped must leave every
// workload metric bit-identical to an untraced run.
func TestTelemetryEventLimitDoesNotPerturbResults(t *testing.T) {
	plain := RunWorkload(SysPresto, Stride, shortOpt(nil))

	tr := telemetry.NewTracer()
	tr.SetLimit(512)
	traced := RunWorkload(SysPresto, Stride, shortOpt(telemetry.NewRegistry(tr)))

	sameLoadResult(t, plain, traced)
	if len(tr.Events()) != 512 {
		t.Errorf("buffered %d events, want the limit of 512", len(tr.Events()))
	}
	if tr.Dropped() == 0 {
		t.Fatal("a 512-event limit over a full run dropped nothing")
	}
}

// TestMidRunSnapshotsDoNotPerturbRun drives the same seeded cluster
// twice — once plain, once snapshotting the registry between engine
// chunks — and checks the per-host counters stay bit-identical and
// that snapshotting has no side effect: the last mid-run snapshot
// equals a second one taken at the same instant.
func TestMidRunSnapshotsDoNotPerturbRun(t *testing.T) {
	const horizon = 30 * sim.Millisecond

	ref := cluster.New(cluster.Config{
		Topology: Testbed(),
		Scheme:   cluster.Presto,
		Seed:     42,
	})
	workload.Stride(ref, 8)
	ref.Eng.Run(horizon)

	reg := telemetry.NewRegistry(telemetry.NewTracer())
	c := cluster.New(cluster.Config{
		Topology:  Testbed(),
		Scheme:    cluster.Presto,
		Seed:      42,
		Telemetry: reg,
	})
	workload.Stride(c, 8)
	var last *telemetry.Snapshot
	for until := 2 * sim.Millisecond; until <= horizon; until += 2 * sim.Millisecond {
		c.Eng.Run(until)
		last = reg.Snapshot(c.Eng.Now())
	}

	for i, h := range ref.Hosts {
		th := c.Hosts[i]
		if h.VS.Stats.Flowcells != th.VS.Stats.Flowcells {
			t.Errorf("host %d flowcells diverged: %d vs %d", i, h.VS.Stats.Flowcells, th.VS.Stats.Flowcells)
		}
		if h.NIC.GRO().Stats().SegmentsOut != th.NIC.GRO().Stats().SegmentsOut {
			t.Errorf("host %d GRO segments diverged: %d vs %d",
				i, h.NIC.GRO().Stats().SegmentsOut, th.NIC.GRO().Stats().SegmentsOut)
		}
	}

	// Both sides normalized through JSON so Go integer widths don't
	// matter.
	wantNorm := normalizeJSON(t, reg.Snapshot(c.Eng.Now()).Components)
	gotNorm := normalizeJSON(t, last.Components)
	if !bytes.Equal(wantNorm, gotNorm) {
		t.Errorf("repeated snapshot differs\n got: %.400s\nwant: %.400s", gotNorm, wantNorm)
	}
}

// normalizeJSON round-trips v through JSON so numeric types erase to
// float64 and map keys sort, yielding comparable bytes.
func normalizeJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var norm any
	if err := json.Unmarshal(raw, &norm); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTelemetryCountersConsistent pins the accounting invariants: each
// vSwitch's per-path flowcell counts sum to its total emitted
// flowcells, and each GRO handler's per-reason flush counts sum to its
// total segments pushed up.
func TestTelemetryCountersConsistent(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.NewTracer())
	c := cluster.New(cluster.Config{
		Topology:  Testbed(),
		Scheme:    cluster.Presto,
		Seed:      42,
		Telemetry: reg,
	})
	workload.Stride(c, 8)
	c.Eng.Run(30 * sim.Millisecond)

	var totalCells uint64
	for _, h := range c.Hosts {
		var pathSum uint64
		for _, n := range h.VS.PathFlowcells() {
			pathSum += n
		}
		if pathSum != h.VS.Stats.Flowcells {
			t.Errorf("host %d: per-path flowcells sum %d != total %d",
				h.ID, pathSum, h.VS.Stats.Flowcells)
		}
		totalCells += h.VS.Stats.Flowcells

		st := h.NIC.GRO().Stats()
		var reasonSum uint64
		for _, n := range st.FlushReasons {
			reasonSum += n
		}
		if reasonSum != st.SegmentsOut {
			t.Errorf("host %d: flush reasons sum %d != segments out %d",
				h.ID, reasonSum, st.SegmentsOut)
		}
	}
	if totalCells == 0 {
		t.Fatal("no flowcells emitted under Presto stride")
	}

	// The traced FlowcellEmit events must agree with the counters.
	if got := reg.Tracer().CountKind(telemetry.KindFlowcellEmit); uint64(got) != totalCells {
		t.Errorf("traced FlowcellEmit events %d != counted flowcells %d", got, totalCells)
	}

	// And the snapshot must carry the same numbers through the probes.
	snap := reg.Snapshot(c.Eng.Now())
	vs0 := snap.Components["host0/vswitch"]
	if vs0 == nil {
		t.Fatal("snapshot missing host0/vswitch probe")
	}
	if vs0["flowcells"].(uint64) != c.Hosts[0].VS.Stats.Flowcells {
		t.Errorf("snapshot flowcells %v != live %d", vs0["flowcells"], c.Hosts[0].VS.Stats.Flowcells)
	}
}

// TestTraceExportFromRun drives a full Presto run and checks the Chrome
// trace export carries the load-bearing event types with populated
// arguments.
func TestTraceExportFromRun(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.NewTracer())
	RunWorkload(SysPresto, Stride, shortOpt(reg))

	var buf bytes.Buffer
	if err := reg.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var flowcells, flushes int
	for _, ev := range out.TraceEvents {
		if ev.Phase != "i" {
			continue
		}
		switch ev.Name {
		case "FlowcellEmit":
			flowcells++
		case "GROFlush":
			if r, _ := ev.Args["reason"].(string); r == "" {
				t.Fatalf("GROFlush without reason: %v", ev.Args)
			}
			flushes++
		}
	}
	if flowcells == 0 {
		t.Error("trace has no FlowcellEmit events")
	}
	if flushes == 0 {
		t.Error("trace has no GROFlush events")
	}
}

// TestEngineProbeCountsWork sanity-checks the engine probe fields the
// snapshot reports.
func TestEngineProbeCountsWork(t *testing.T) {
	reg := telemetry.NewRegistry(nil)
	c := cluster.New(cluster.Config{
		Topology:  Testbed(),
		Scheme:    cluster.Presto,
		Seed:      1,
		Telemetry: reg,
	})
	workload.Stride(c, 8)
	c.Eng.Run(5 * sim.Millisecond)
	snap := reg.Snapshot(c.Eng.Now())
	eng := snap.Components["engine"]
	if eng == nil {
		t.Fatal("no engine probe")
	}
	if eng["events"].(uint64) == 0 {
		t.Error("engine executed no events")
	}
	if eng["peak_pending"].(int) <= 0 {
		t.Error("peak heap depth not tracked")
	}
}
