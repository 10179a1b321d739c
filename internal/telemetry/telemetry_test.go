package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"presto/internal/sim"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(0, KindGROFlush, Host(1), 1, 2, "x")
	tr.FlowcellEmit(0, 1, 2, 3)
	tr.GROFlush(0, 1, 2, 3, "in-order")
	tr.QueueDrop(0, 1, 2, "tail-drop")
	tr.SetLimit(10)
	if tr.Events() != nil || tr.Dropped() != 0 || tr.CountKind(KindGROFlush) != 0 {
		t.Fatal("nil tracer recorded state")
	}
	if tr.BeginRun("x") != 0 || tr.RunLabel(0) != "" {
		t.Fatal("nil tracer run scoping not inert")
	}
}

// TestNilTracerEmitAllocs pins the zero-overhead guarantee: the
// disabled emit path must not allocate. All helper signatures take only
// scalars, so there is no interface boxing to hide.
func TestNilTracerEmitAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.FlowcellEmit(1, 2, 3, 4)
		tr.GROFlush(1, 2, 3, 4, "in-order")
		tr.GROHold(1, 2, 3, 4)
		tr.QueueDrop(1, 2, 3, "tail-drop")
		tr.RingDrop(1, 2, 3)
		tr.Retransmit(1, 2, 3, 4, "fast")
		tr.Cwnd(1, 2, 3, 4)
		tr.LinkDown(1, 2)
		tr.LinkUp(1, 2)
		tr.FailoverSwitch(1, 2, 3, 4)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer emit path allocates %v per run, want 0", allocs)
	}
}

func TestTracerRecordsAndCounts(t *testing.T) {
	tr := NewTracer()
	tr.FlowcellEmit(10, 3, 7, 1)
	tr.GROFlush(20, 3, 1500, 1, "in-order")
	tr.GROFlush(30, 4, 3000, 2, "loss-gap")
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Kind != KindFlowcellEmit || evs[0].A != 7 || evs[0].B != 1 {
		t.Fatalf("bad flowcell event: %+v", evs[0])
	}
	if got := tr.CountKind(KindGROFlush); got != 2 {
		t.Fatalf("CountKind(GROFlush)=%d, want 2", got)
	}
	if evs[2].Reason != "loss-gap" {
		t.Fatalf("reason=%q, want loss-gap", evs[2].Reason)
	}
}

func TestTracerLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(2)
	for i := 0; i < 5; i++ {
		tr.RingDrop(sim.Time(i), 0, i)
	}
	if len(tr.Events()) != 2 {
		t.Fatalf("buffered %d events, want 2", len(tr.Events()))
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped=%d, want 3", tr.Dropped())
	}
	if tr.Limit() != 2 {
		t.Fatalf("Limit()=%d, want 2", tr.Limit())
	}
}

// TestTracerEmitAllocs pins the bounded-memory guarantee: once the
// buffer holds the limit, every further emit is counted as dropped in
// place, with zero allocations and the buffered events left as they
// were.
func TestTracerEmitAllocs(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(64)
	for i := 0; i < 64; i++ {
		tr.GROFlush(sim.Time(i), 2, 1500, 1, "in-order")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.GROFlush(1000, 2, 1500, 1, "in-order")
	})
	if allocs != 0 {
		t.Fatalf("emit past the limit allocates %v per op, want 0", allocs)
	}
	evs := tr.Events()
	if len(evs) != 64 || evs[63].At != 63 {
		t.Fatalf("buffer changed past the limit: %d events, last at %d", len(evs), evs[len(evs)-1].At)
	}
	if tr.Dropped() < 1000 {
		t.Fatalf("dropped=%d, want every emit past the limit counted", tr.Dropped())
	}
}

func TestBeginRunScoping(t *testing.T) {
	tr := NewTracer()
	if id := tr.BeginRun("first"); id != 0 {
		t.Fatalf("first BeginRun -> run %d, want 0 (renames implicit run)", id)
	}
	tr.LinkDown(1, 0)
	if id := tr.BeginRun("second"); id != 1 {
		t.Fatalf("second BeginRun -> run %d, want 1", id)
	}
	tr.LinkDown(2, 0)
	evs := tr.Events()
	if evs[0].Run != 0 || evs[1].Run != 1 {
		t.Fatalf("run stamps = %d,%d, want 0,1", evs[0].Run, evs[1].Run)
	}
	if tr.RunLabel(0) != "first" || tr.RunLabel(1) != "second" {
		t.Fatalf("labels = %q,%q", tr.RunLabel(0), tr.RunLabel(1))
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.FlowcellEmit(1500, 2, 9, 3)
	tr.GROFlush(2500, 2, 64000, 44, "boundary-timeout")
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["event"] != "FlowcellEmit" || lines[0]["flowcell"].(float64) != 9 || lines[0]["path"].(float64) != 3 {
		t.Fatalf("bad flowcell line: %v", lines[0])
	}
	if lines[1]["reason"] != "boundary-timeout" || lines[1]["actor"] != "host2" {
		t.Fatalf("bad flush line: %v", lines[1])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.BeginRun("presto")
	tr.FlowcellEmit(1000, 0, 1, 0)
	tr.QueueDrop(2000, 5, 4096, "tail-drop")
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			PID   int32          `json:"pid"`
			TID   int32          `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid chrome trace: %v", err)
	}
	var procName, hostLane, linkLane, instants bool
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Phase == "M" && ev.Name == "process_name":
			if ev.Args["name"] == "presto" {
				procName = true
			}
		case ev.Phase == "M" && ev.Name == "thread_name":
			if ev.Args["name"] == "host0" && ev.TID == 0 {
				hostLane = true
			}
			if ev.Args["name"] == "link5" && ev.TID == 20005 {
				linkLane = true
			}
		case ev.Phase == "i":
			instants = true
			if ev.Name == "FlowcellEmit" && ev.TS != 1.0 {
				t.Fatalf("ts=%v µs, want 1.0", ev.TS)
			}
		}
	}
	if !procName || !hostLane || !linkLane || !instants {
		t.Fatalf("missing trace parts: proc=%v host=%v link=%v instants=%v",
			procName, hostLane, linkLane, instants)
	}
}

func TestRegistrySnapshotAndSummary(t *testing.T) {
	r := NewRegistry(nil)
	r.Register("alpha", func() map[string]any {
		return map[string]any{"x": uint64(3), "nested": map[string]any{"y": 4}}
	})
	r.Register("beta", func() map[string]any {
		return map[string]any{"reasons": map[string]uint64{"in-order": 9}}
	})
	snap := r.Snapshot(12345)
	if snap.TakenAtNs != 12345 {
		t.Fatalf("TakenAtNs=%d", snap.TakenAtNs)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if len(parsed.Components) != 2 {
		t.Fatalf("components=%d, want 2", len(parsed.Components))
	}
	sum := snap.Summary()
	for _, want := range []string{"alpha", "nested.y", "reasons.in-order", "9"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Register("x", func() map[string]any { return nil })
	if r.Snapshot(0) != nil {
		t.Fatal("nil registry returned a snapshot")
	}
	if r.Tracer() != nil {
		t.Fatal("nil registry returned a tracer")
	}
	if r.BeginRun("x") != "" {
		t.Fatal("nil registry returned a prefix")
	}
	var s *Snapshot
	if got := s.Summary(); !strings.Contains(got, "no telemetry") {
		t.Fatalf("nil snapshot summary = %q", got)
	}
}

func TestRegistryRunPrefixes(t *testing.T) {
	r := NewRegistry(NewTracer())
	if p := r.BeginRun("a"); p != "" {
		t.Fatalf("run 0 prefix = %q, want empty", p)
	}
	if p := r.BeginRun("b"); p != "run1/" {
		t.Fatalf("run 1 prefix = %q, want run1/", p)
	}
	if got := r.Tracer().RunLabel(1); got != "b" {
		t.Fatalf("tracer run 1 label = %q, want b", got)
	}
}
