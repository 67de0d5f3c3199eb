package sim

import "testing"

// TestAllocsSchedulePop pins the timed queue's steady state at zero
// allocations: once the heap slice and the record freelist have grown to
// the working depth, Schedule recycles a record and Pop/PopAt return it.
func TestAllocsSchedulePop(t *testing.T) {
	q := NewQueue()
	fn := EventFunc(func() {})
	const depth = 64
	var now Time
	cycle := func() {
		for i := 0; i < depth; i++ {
			q.Schedule(now+Time(i%7), fn)
		}
		for {
			at, _, ok := q.Pop()
			if !ok {
				break
			}
			now = at
			// Drain the rest of this instant the way a kernel does.
			for _, ok := q.PopAt(at); ok; _, ok = q.PopAt(at) {
			}
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg > raceAllocSlack {
		t.Errorf("Schedule+Pop of %d events: %.2f allocs/run, want 0", depth, avg)
	}
}
