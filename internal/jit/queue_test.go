package jit

import (
	"slices"
	"testing"
)

// TestQueueFIFO pins the tracked queue against a slice model, across the
// slot/spill boundary, and its checkpoint helpers.
func TestQueueFIFO(t *testing.T) {
	q := Queue{Len: 0, Slot0: 1, Slots: 3}
	var f [4]uint64
	var spill []int
	var model []int
	for i := 0; i < 6; i++ {
		q.Push(f[:], nil, &spill, 10+i)
		model = append(model, 10+i)
		if i%2 == 1 {
			if got := q.Pop(f[:], nil, &spill); got != model[0] {
				t.Fatalf("pop %d, want %d", got, model[0])
			}
			model = model[1:]
		}
		if got := q.Items(f[:], spill); !slices.Equal(got, model) && len(model) > 0 {
			t.Fatalf("items %v, want %v", got, model)
		}
	}
	var g [4]uint64
	var gs []int
	q.Set(g[:], &gs, q.Items(f[:], spill))
	if g != f || !slices.Equal(gs, spill) {
		t.Fatalf("Set(Items) = %v %v, want %v %v", g, gs, f, spill)
	}
	for q.Count(f[:], nil) > 0 {
		q.Pop(f[:], nil, &spill)
	}
	if f != [4]uint64{} || len(spill) != 0 {
		t.Fatalf("drained queue not canonical: %v %v", f, spill)
	}
}

// TestQueueReplay pins a recorded pop: the front entry is guarded, the
// entries behind it are moved as parameters, so the super-op replays for
// any queue contents with the same front; touching the spill poisons.
func TestQueueReplay(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	q := Queue{Len: 0, Slot0: 1, Slots: 3}
	var spill []int
	pop := func() uint64 { return uint64(q.Pop(m.file[:], m.tap, &spill)) }
	load := func(items ...int) { q.Set(m.file[:], &spill, items) }
	load(4, 5)
	m.trap(26, pop)
	load(4, 9)
	if v, st := m.trap(26, pop); st != Hit || v != 4 {
		t.Fatalf("pop replay: %v %d, want Hit 4", st, v)
	}
	if got := q.Items(m.file[:], spill); !slices.Equal(got, []int{9}) {
		t.Fatalf("replayed pop left %v, want [9]", got)
	}
	load(1, 2, 3, 4) // one entry spilled
	m.trap(27, pop)
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("a pop that refilled from the spill was promoted")
	}
	if got := q.Items(m.file[:], spill); !slices.Equal(got, []int{2, 3, 4}) {
		t.Fatalf("spill refill left %v, want [2 3 4]", got)
	}
}
