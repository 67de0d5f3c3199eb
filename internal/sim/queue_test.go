package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	q := NewQueue()
	var fired []int
	q.Schedule(NS(30), func() { fired = append(fired, 30) })
	q.Schedule(NS(10), func() { fired = append(fired, 10) })
	q.Schedule(NS(20), func() { fired = append(fired, 20) })

	for {
		_, fn, ok := q.Pop()
		if !ok {
			break
		}
		fn()
	}
	want := []int{10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestQueueFIFOWithinSameInstant(t *testing.T) {
	q := NewQueue()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		q.Schedule(NS(5), func() { order = append(order, i) })
	}
	for {
		_, fn, ok := q.Pop()
		if !ok {
			break
		}
		fn()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of schedule order at %d: %v", i, order[:i+1])
		}
	}
}

func TestQueueCancel(t *testing.T) {
	q := NewQueue()
	ran := false
	h := q.Schedule(NS(1), func() { ran = true })
	if !q.Cancel(h) {
		t.Fatal("Cancel of pending event returned false")
	}
	if q.Cancel(h) {
		t.Fatal("double Cancel returned true")
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("cancelled event still popped")
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after cancel, want 0", q.Len())
	}
}

func TestQueueCancelHead(t *testing.T) {
	q := NewQueue()
	h := q.Schedule(NS(1), func() {})
	q.Schedule(NS(2), func() {})
	q.Cancel(h)
	if nt := q.NextTime(); nt != NS(2) {
		t.Fatalf("NextTime after head cancel = %v, want 2ns", nt)
	}
}

func TestQueueNextTimeEmpty(t *testing.T) {
	q := NewQueue()
	if nt := q.NextTime(); nt != MaxTime {
		t.Fatalf("empty queue NextTime = %v, want MaxTime", nt)
	}
	if !q.Empty() {
		t.Fatal("new queue not Empty")
	}
}

func TestQueuePopCountsStats(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 5; i++ {
		q.Schedule(NS(uint64(i)), func() {})
	}
	for {
		if _, _, ok := q.Pop(); !ok {
			break
		}
	}
	if q.Popped() != 5 {
		t.Fatalf("Popped = %d, want 5", q.Popped())
	}
}

// Property: any interleaving of Schedule, Cancel, Pop and PopAt — over a
// handful of timestamps, so most events tie — pops exactly what a model
// that sorts the live events by (at, seq) predicts. Each program byte is
// one operation; its high bits pick the kind and its low bits the operand.
func TestQueuePopMonotonicProperty(t *testing.T) {
	type entry struct {
		at   Time
		seq  int
		live bool
		h    Handle
	}
	f := func(program []byte) bool {
		q := NewQueue()
		var model []*entry // index = schedule sequence = event id
		fired := -1
		earliest := func() *entry {
			var best *entry
			for _, e := range model {
				if e.live && (best == nil || e.at < best.at || (e.at == best.at && e.seq < best.seq)) {
					best = e
				}
			}
			return best
		}
		// popped checks one Pop/PopAt outcome against the model's choice.
		popped := func(want *entry, at Time, fn EventFunc, ok bool) bool {
			if want == nil {
				return !ok
			}
			if !ok || at != want.at {
				return false
			}
			fn()
			want.live = false
			return fired == want.seq && !want.h.Valid()
		}
		for _, b := range program {
			arg := int(b & 0x3f)
			switch b >> 6 {
			case 0, 1: // Schedule at one of four instants
				e := &entry{at: Time(arg % 4), seq: len(model), live: true}
				id := e.seq
				e.h = q.Schedule(e.at, func() { fired = id })
				model = append(model, e)
			case 2: // Cancel any handle ever issued, stale ones included
				if len(model) == 0 {
					continue
				}
				e := model[arg%len(model)]
				if q.Cancel(e.h) != e.live {
					return false
				}
				e.live = false
			case 3:
				want := earliest()
				if arg%2 == 0 {
					at, fn, ok := q.Pop()
					if !popped(want, at, fn, ok) {
						return false
					}
					continue
				}
				// PopAt an instant that is the head's, or one that is not.
				at := Time(arg / 2 % 4)
				if want != nil && want.at != at {
					want = nil
				}
				fn, ok := q.PopAt(at)
				if !popped(want, at, fn, ok) {
					return false
				}
			}
			live := 0
			for _, e := range model {
				if e.live {
					live++
				}
			}
			head := earliest()
			if q.Len() != live || (head == nil) != (q.NextTime() == MaxTime) ||
				(head != nil && q.NextTime() != head.at) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset removes exactly that subset.
func TestQueueCancelSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		q := NewQueue()
		n := 1 + rng.Intn(64)
		handles := make([]Handle, n)
		fired := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			handles[i] = q.Schedule(Time(rng.Intn(10)), func() { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				q.Cancel(handles[i])
			}
		}
		for {
			_, fn, ok := q.Pop()
			if !ok {
				break
			}
			fn()
		}
		for i := 0; i < n; i++ {
			if fired[i] == cancelled[i] {
				t.Fatalf("trial %d: event %d fired=%v cancelled=%v", trial, i, fired[i], cancelled[i])
			}
		}
	}
}
