package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"presto"
)

// TestParseSystemAll checks every -system value resolves through the
// shared resolver to its historical display name.
func TestParseSystemAll(t *testing.T) {
	for s, want := range map[string]string{
		"ecmp": "ECMP", "mptcp": "MPTCP", "presto": "Presto", "optimal": "Optimal",
		"flowlet100": "Flowlet-100us", "flowlet500": "Flowlet-500us",
		"presto-ecmp": "Presto+ECMP", "per-packet": "PerPacket",
	} {
		sys, err := presto.SystemFor(s)
		if err != nil {
			t.Errorf("SystemFor(%q): %v", s, err)
		} else if sys.String() != want {
			t.Errorf("SystemFor(%q) = %v, want %s", s, sys, want)
		}
	}
	if _, err := presto.SystemFor("bogus"); err == nil {
		t.Error("SystemFor accepted bogus system")
	}
}

// TestParseWorkloadAll checks every built-in -workload value compiles
// to a one-cell campaign.
func TestParseWorkloadAll(t *testing.T) {
	for _, w := range []string{"stride", "shuffle", "random", "bijection", "podtraffic", "mice-heavy"} {
		spec, err := presto.Scenario{Workload: w, Schemes: []string{"presto"}}.Campaign()
		if err != nil {
			t.Errorf("workload %q: %v", w, err)
		} else if len(spec.Cells) != 1 {
			t.Errorf("workload %q: %d cells, want 1", w, len(spec.Cells))
		}
	}
	if _, err := (presto.Scenario{Workload: "bogus"}).Campaign(); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-system", "nope"}, &out); err == nil {
		t.Error("bad -system accepted")
	}
	if err := run([]string{"-notaflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRunEverySystem smoke-runs each -system value over a tiny window.
func TestRunEverySystem(t *testing.T) {
	for _, sys := range []string{"ecmp", "mptcp", "presto", "optimal", "flowlet100",
		"flowlet500", "presto-ecmp", "per-packet"} {
		var out bytes.Buffer
		err := run([]string{
			"-system", sys, "-workload", "stride",
			"-warmup", "5ms", "-duration", "10ms",
		}, &out)
		if err != nil {
			t.Fatalf("system %s: %v", sys, err)
		}
		if !strings.Contains(out.String(), "elephant throughput") {
			t.Fatalf("system %s: missing output:\n%s", sys, out.String())
		}
	}
}

// TestRunTraceExport runs the flagship invocation from the README and
// parses the emitted Chrome trace back: it must be valid JSON holding
// at least one FlowcellEmit and one GROFlush with a populated reason.
func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	snapPath := filepath.Join(dir, "snap.json")
	var out bytes.Buffer
	err := run([]string{
		"-system", "presto", "-workload", "stride",
		"-warmup", "5ms", "-duration", "10ms",
		"-trace", tracePath, "-events", eventsPath, "-snapshot", snapPath, "-v",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	var flowcells, flushes int
	for _, ev := range trace.TraceEvents {
		if ev.Phase != "i" {
			continue
		}
		switch ev.Name {
		case "FlowcellEmit":
			flowcells++
		case "GROFlush":
			if r, _ := ev.Args["reason"].(string); r == "" {
				t.Fatalf("GROFlush missing reason: %v", ev.Args)
			}
			flushes++
		}
	}
	if flowcells < 1 || flushes < 1 {
		t.Fatalf("trace incomplete: %d FlowcellEmit, %d GROFlush", flowcells, flushes)
	}

	// Events file: every line must be standalone JSON.
	evRaw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(evRaw), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("empty events file")
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("bad JSONL first line: %v", err)
	}

	// Snapshot file: valid JSON with components.
	snapRaw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Components map[string]map[string]any `json:"components"`
	}
	if err := json.Unmarshal(snapRaw, &snap); err != nil {
		t.Fatalf("bad snapshot JSON: %v", err)
	}
	if len(snap.Components) == 0 {
		t.Fatal("snapshot has no components")
	}
	if _, ok := snap.Components["engine"]; !ok {
		t.Fatal("snapshot missing engine probe")
	}

	// -v printed the summary table.
	if !strings.Contains(out.String(), "component") || !strings.Contains(out.String(), "peak_pending") {
		t.Fatalf("-v summary missing:\n%s", out.String())
	}
}

// TestRunSeedReplicas checks -seeds N prints per-metric envelopes and
// that replicated output is deterministic across -parallel settings,
// for a testbed pattern and for the pod-scale workload alike.
func TestRunSeedReplicas(t *testing.T) {
	for _, workload := range [][]string{
		{"-workload", "stride"},
		{"-workload", "podtraffic", "-pods", "2", "-hosts-per-leaf", "1"},
	} {
		replicated := func(parallel string) string {
			var out bytes.Buffer
			err := run(append([]string{
				"-system", "presto",
				"-warmup", "5ms", "-duration", "10ms",
				"-seeds", "3", "-parallel", parallel,
			}, workload...), &out)
			if err != nil {
				t.Fatalf("%v: %v", workload, err)
			}
			return out.String()
		}
		serial := replicated("1")
		if !strings.Contains(serial, "seeds=1..3 (n=3)") {
			t.Fatalf("%v: missing seed range header:\n%s", workload, serial)
		}
		for _, metric := range []string{"tput_gbps", "loss_pct", "fairness"} {
			if !strings.Contains(serial, metric) {
				t.Errorf("%v: envelope output missing %s:\n%s", workload, metric, serial)
			}
		}
		if got := replicated("4"); got != serial {
			t.Errorf("%v: -parallel 4 output differs from -parallel 1:\n--- serial ---\n%s--- parallel ---\n%s", workload, serial, got)
		}
	}
}

// TestRunWritesRequestedFiles checks every output file a flag asks
// for is written, whatever the workload or seed count.
func TestRunWritesRequestedFiles(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		files []string
	}{
		{[]string{"-workload", "podtraffic", "-pods", "2", "-hosts-per-leaf", "1"}, []string{"-cpuprofile", "-memprofile"}},
		{[]string{"-workload", "stride", "-seeds", "2"}, []string{"-trace", "-snapshot"}},
	} {
		dir := t.TempDir()
		args := append([]string{"-warmup", "2ms", "-duration", "5ms"}, tc.args...)
		for _, f := range tc.files {
			args = append(args, f, filepath.Join(dir, f[1:]))
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		for _, f := range tc.files {
			if st, err := os.Stat(filepath.Join(dir, f[1:])); err != nil || st.Size() == 0 {
				t.Errorf("%v: %s file not written (%v)", args, f, err)
			}
		}
	}
}
