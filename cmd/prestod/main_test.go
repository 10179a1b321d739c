package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"presto"
	"presto/internal/campaign"
	"presto/internal/server"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

// TestServerRunMatchesCLIRun is the headline acceptance check: a real
// experiment campaign (fig5, the cheapest simulator cells) submitted
// through the daemon's spec builder and executed server-side at
// parallelism 4 with 2 concurrent server workers must produce a
// report.json byte-identical to the same spec run directly at
// parallelism 1 — the path cmd/experiments -out takes.
func TestServerRunMatchesCLIRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulator cells")
	}
	req := server.JobRequest{
		Experiments: "fig5",
		Seeds:       2,
		Parallelism: 4,
		Duration:    server.Duration(20 * time.Millisecond),
		Warmup:      server.Duration(5 * time.Millisecond),
	}

	// Reference: the exact sequence cmd/experiments performs.
	opt := presto.Options{
		Duration: sim.FromDuration(20 * time.Millisecond),
		Warmup:   sim.FromDuration(5 * time.Millisecond),
	}
	refSpec, err := presto.CampaignSpec("fig5", opt)
	if err != nil {
		t.Fatal(err)
	}
	refSpec.Seeds = campaign.Seeds(1, 2)
	refSpec.Parallelism = 1
	refSpec.CellTimeout = time.Minute
	refReport, err := presto.RunCampaign(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := refReport.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	// Server side: same request through prestod's builder.
	srv, err := server.New(server.Config{
		SpecBuilder: specBuilder(time.Minute),
		DataDir:     t.TempDir(),
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := &server.Client{BaseURL: ts.URL}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	got, err := c.Artifact(ctx, st.ID, "report.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("server report.json differs from direct CLI-style run:\nserver %d bytes, direct %d bytes", len(got), want.Len())
	}
	if final.SpecHash != refReport.SpecHash {
		t.Errorf("spec hash: server %s, direct %s", final.SpecHash, refReport.SpecHash)
	}
}

// TestSpecBuilderDefaults checks the flag-parity defaults: seed 1, one
// seed replica, and the daemon's fallback cell timeout.
func TestSpecBuilderDefaults(t *testing.T) {
	build := specBuilder(90 * time.Second)
	spec, err := build(server.JobRequest{Experiments: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Seeds) != 1 || spec.Seeds[0] != 1 {
		t.Errorf("default seeds = %v, want [1]", spec.Seeds)
	}
	if spec.CellTimeout != 90*time.Second {
		t.Errorf("default cell timeout = %v, want 90s", spec.CellTimeout)
	}
	if _, err := build(server.JobRequest{}); err == nil {
		t.Error("empty experiments accepted, want error")
	}
	if _, err := build(server.JobRequest{Experiments: "nosuch"}); err == nil {
		t.Error("unknown experiment accepted, want error")
	}
	// The workload wire forms: a quoted name or an inline spec object
	// sweeps the §4 lineup; anything else is rejected.
	preset, err := wspec.Preset("mice-heavy")
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{`"mice-heavy"`, string(preset.Canonical()), `"stride"`} {
		spec, err := build(server.JobRequest{Workload: json.RawMessage(raw)})
		if err != nil {
			t.Errorf("workload %.40s: %v", raw, err)
		} else if len(spec.Cells) != 4 {
			t.Errorf("workload %.40s: %d cells, want the 4-system lineup", raw, len(spec.Cells))
		}
	}
	for _, req := range []server.JobRequest{
		{Workload: json.RawMessage(`42`)},
		{Experiments: "fig5", Workload: json.RawMessage(`"mice-heavy"`)},
	} {
		if _, err := build(req); err == nil {
			t.Errorf("request %+v accepted, want error", req)
		}
	}
}

// TestPrestodSIGTERMDrain boots the daemon on an ephemeral port, runs
// a real job through it, then delivers SIGTERM and requires a clean
// exit (code 0) within the drain deadline with artifacts intact.
func TestPrestodSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulator cells and delivers signals")
	}
	dataDir := t.TempDir()
	ready := make(chan string, 1)
	var stderr strings.Builder
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-data", dataDir,
			"-drain-timeout", "30s",
			"-cell-timeout", "1m",
		}, &stderr, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("daemon exited early with code %d\n%s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := &server.Client{BaseURL: "http://" + addr}
	st, err := c.Submit(ctx, server.JobRequest{
		Experiments: "fig5",
		Duration:    server.Duration(10 * time.Millisecond),
		Warmup:      server.Duration(2 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit code %d after SIGTERM, want 0\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	// Completed artifacts survive the drain.
	if _, err := os.Stat(dataDir + "/" + st.ID + "/report.json"); err != nil {
		t.Errorf("artifact missing after drain: %v", err)
	}
	if !strings.Contains(stderr.String(), "drained; exiting") {
		t.Errorf("missing drain log line in stderr:\n%s", stderr.String())
	}
}
