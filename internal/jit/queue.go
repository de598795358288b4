package jit

// Queue is a FIFO of small ints kept in a tracked file, for the model's
// variable-length pending-interrupt queues: word Len holds the entry count
// and words Slot0..Slot0+Slots-1 the first Slots entries, front first.
// Entries past the slots spill into a Go slice the owner keeps; any access
// that touches the spill poisons the active recording, since the engine
// can neither guard nor restore it. Popping shifts the slots down with
// declared copies (CopyWord), so a replayed pop moves whatever the live
// queue holds behind the front entry instead of guarding it.
type Queue struct {
	Len, Slot0, Slots int
}

// Count returns the number of queued entries.
func (q Queue) Count(f []uint64, t *FileTap) int {
	t.Read(q.Len)
	return int(f[q.Len])
}

// Push appends v.
func (q Queue) Push(f []uint64, t *FileTap, spill *[]int, v int) {
	n := q.Count(f, t)
	if n < q.Slots {
		t.Write(q.Slot0 + n)
		f[q.Slot0+n] = uint64(v)
	} else {
		t.Poison()
		*spill = append(*spill, v)
	}
	t.Write(q.Len)
	f[q.Len] = uint64(n + 1)
}

// Pop removes and returns the front entry; the queue must be non-empty.
func (q Queue) Pop(f []uint64, t *FileTap, spill *[]int) int {
	n := q.Count(f, t)
	t.Read(q.Slot0)
	v := int(f[q.Slot0])
	last := min(n, q.Slots) - 1
	for i := 0; i < last; i++ {
		CopyWord(t, q.Slot0+i+1, t, q.Slot0+i)
		f[q.Slot0+i] = f[q.Slot0+i+1]
	}
	t.Write(q.Slot0 + last)
	if n > q.Slots {
		t.Poison()
		f[q.Slot0+last] = uint64((*spill)[0])
		*spill = (*spill)[1:]
	} else {
		f[q.Slot0+last] = 0
	}
	t.Write(q.Len)
	f[q.Len] = uint64(n - 1)
	return v
}

// Items returns a copy of the queued entries in order, without notifying
// the tap (checkpoints run outside recordings).
func (q Queue) Items(f []uint64, spill []int) []int {
	n := int(f[q.Len])
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < min(n, q.Slots); i++ {
		out = append(out, int(f[q.Slot0+i]))
	}
	return append(out, spill...)
}

// Set replaces the queue's contents with items, without notifying the tap,
// reusing the spill's storage.
func (q Queue) Set(f []uint64, spill *[]int, items []int) {
	f[q.Len] = uint64(len(items))
	for i := 0; i < q.Slots; i++ {
		f[q.Slot0+i] = 0
		if i < len(items) {
			f[q.Slot0+i] = uint64(items[i])
		}
	}
	*spill = (*spill)[:0]
	if len(items) > q.Slots {
		*spill = append(*spill, items[q.Slots:]...)
	}
}
