// Package cli holds what the presto command-line front-ends share:
// the observability flags (-trace, -events, -snapshot, -v,
// -cpuprofile, -memprofile) with the one telemetry exporter and the
// one profile wrapper behind them, and the git stamp for artifact
// manifests. Every run either CLI makes is traced and profiled the
// same way.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"

	"presto/internal/telemetry"
)

// Observe is the parsed observability flag set.
type Observe struct {
	Trace, Events, Snapshot string
	Verbose                 bool
	CPUProfile, MemProfile  string
}

// Flags registers the observability flags on fs.
func (o *Observe) Flags(fs *flag.FlagSet) {
	fs.StringVar(&o.Trace, "trace", "", "write a Chrome trace-event file of the traced runs (one process per run; open in Perfetto)")
	fs.StringVar(&o.Events, "events", "", "write the raw event log as JSON Lines")
	fs.StringVar(&o.Snapshot, "snapshot", "", "write the final telemetry snapshot JSON")
	fs.BoolVar(&o.Verbose, "v", false, "print the telemetry snapshot summary table")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the simulator")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a pprof heap profile of the simulator")
}

// Registry returns the registry the requested outputs need — with a
// tracer only when a trace or event log is requested — or nil, so runs
// nobody observes take the zero-overhead path.
func (o *Observe) Registry() *telemetry.Registry {
	if o.Trace == "" && o.Events == "" && o.Snapshot == "" && !o.Verbose {
		return nil
	}
	var tr *telemetry.Tracer
	if o.Trace != "" || o.Events != "" {
		tr = telemetry.NewTracer()
	}
	return telemetry.NewRegistry(tr)
}

// Export writes reg's trace, event log and snapshot to the requested
// files once the runs have finished; with -v the snapshot summary goes
// to summary.
func (o *Observe) Export(reg *telemetry.Registry, summary io.Writer) error {
	if reg == nil {
		return nil
	}
	tr := reg.Tracer()
	if o.Trace != "" {
		if err := telemetry.WriteFile(o.Trace, tr.WriteChromeTrace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if o.Events != "" {
		if err := telemetry.WriteFile(o.Events, tr.WriteJSONL); err != nil {
			return fmt.Errorf("writing events: %w", err)
		}
	}
	snap := reg.Snapshot(0)
	if o.Snapshot != "" {
		if err := telemetry.WriteFile(o.Snapshot, snap.WriteJSON); err != nil {
			return fmt.Errorf("writing snapshot: %w", err)
		}
	}
	if o.Verbose {
		fmt.Fprint(summary, snap.Summary())
	}
	return nil
}

// Profile runs fn under the requested CPU profile, then writes the
// requested heap profile.
func (o *Observe) Profile(fn func() error) (err error) {
	if o.CPUProfile != "" {
		f, cerr := os.Create(o.CPUProfile)
		if cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			return errors.Join(fmt.Errorf("cpuprofile: %w", cerr), f.Close())
		}
		// Assigns the named result, so a failed close is reported.
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	if err := fn(); err != nil {
		return err
	}
	if o.MemProfile == "" {
		return nil
	}
	f, err := os.Create(o.MemProfile)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return errors.Join(fmt.Errorf("memprofile: %w", err), f.Close())
	}
	return f.Close()
}

// GitDescribe stamps manifests with the repository state; empty
// outside a git checkout.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
