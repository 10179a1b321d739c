package main

import "time"

// span is one timed call the benchmark made into the simulator.
// Parent is -1 for a root span. Times are nanoseconds since the
// recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// spans records a tree of spans in memory. Spans nest strictly: end
// closes the innermost open span.
type spans struct {
	t0   time.Time
	list []span
	open []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (s *spans) begin(name string) int {
	parent := -1
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(s.t0))})
	s.open = append(s.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (s *spans) end(id int) {
	if n := len(s.open); n == 0 || s.open[n-1] != id {
		panic("perfbench: span closed out of order")
	}
	s.open = s.open[:len(s.open)-1]
	s.list[id].EndNS = int64(time.Since(s.t0))
}

// dur returns span id's duration.
func (s *spans) dur(id int) time.Duration {
	return time.Duration(s.list[id].EndNS - s.list[id].StartNS)
}

// finish fills every span's self time: its duration minus the time
// its children cover. Children of one span never overlap, so that is
// the sum of their durations.
func (s *spans) finish() []span {
	for i := range s.list {
		s.list[i].SelfNS = s.list[i].EndNS - s.list[i].StartNS
	}
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			s.list[sp.Parent].SelfNS -= sp.EndNS - sp.StartNS
		}
	}
	return s.list
}
