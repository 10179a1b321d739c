package sim

import "testing"

func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	// Interleave pushes and pops so the head walks around the buffer
	// while it grows through several sizes.
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ {
			r.Push(next)
			next++
		}
		if got := r.Back(); got != next-1 {
			t.Fatalf("round %d: Back = %d, want %d", round, got, next-1)
		}
		for i := 0; i < round/2+1 && r.Len() > 0; i++ {
			if got := r.Front(); got != want {
				t.Fatalf("round %d: Front = %d, want %d", round, got, want)
			}
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
		if r.Len() != next-want {
			t.Fatalf("round %d: Len = %d, want %d", round, r.Len(), next-want)
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain: Pop = %d, want %d", got, want)
		}
		want++
	}
}

func TestRingDropsReferences(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 5; i++ {
		v := i
		r.Push(&v)
	}
	r.Pop()
	if r.buf[0] != nil {
		t.Fatal("Pop left a reference in the buffer")
	}
	r.Clear()
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("Clear left a reference at %d", i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after Clear = %d", r.Len())
	}
	v := 7
	r.Push(&v)
	if *r.Front() != 7 || r.Len() != 1 {
		t.Fatal("ring unusable after Clear")
	}
}

func TestRingSteadyStateDoesNotAllocate(t *testing.T) {
	var r Ring[int32]
	for i := 0; i < 64; i++ {
		r.Push(int32(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Push(1)
		r.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocated %.1f times", allocs)
	}
}
