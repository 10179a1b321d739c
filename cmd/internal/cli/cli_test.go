package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"presto/internal/sim"
)

// TestExportReportsTruncatedTrace: a tracer that hit its event limit
// must say so on the notes writer, with the drop count and the limit,
// while the event log still holds the buffered events; a trace under
// its limit adds no note.
func TestExportReportsTruncatedTrace(t *testing.T) {
	for _, tc := range []struct {
		emit, logged int
		note         string
	}{
		{emit: 10, logged: 4, note: "note: trace truncated: 6 events dropped past the 4-event limit\n"},
		{emit: 3, logged: 3, note: ""},
	} {
		events := filepath.Join(t.TempDir(), "e.jsonl")
		o := Observe{Events: events}
		reg := o.Registry()
		tr := reg.Tracer()
		tr.SetLimit(4)
		for i := 0; i < tc.emit; i++ {
			tr.LinkDown(sim.Time(i), 1)
		}
		var summary, notes bytes.Buffer
		if err := o.Export(reg, &summary, &notes); err != nil {
			t.Fatal(err)
		}
		if notes.String() != tc.note {
			t.Errorf("%d events: notes = %q, want %q", tc.emit, notes.String(), tc.note)
		}
		data, err := os.ReadFile(events)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "\n"); n != tc.logged {
			t.Errorf("%d events: event log has %d lines, want %d", tc.emit, n, tc.logged)
		}
	}
}
