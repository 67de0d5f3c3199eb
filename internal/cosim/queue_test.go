package cosim

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestMsgQueueFIFOAcrossWraps(t *testing.T) {
	q := newMsgQueue(5)
	next, want := uint32(0), uint32(0)
	// Push 3, pop 2, repeatedly: the head walks around the ring many
	// times while the storage grows to the bound.
	for round := 0; round < 50; round++ {
		for i := 0; i < 3 && q.n < q.bound; i++ {
			if err := q.push(Msg{Type: MTDataWrite, Addr: next}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 2; i++ {
			m, err := q.pop(nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.Addr != want {
				t.Fatalf("round %d: popped addr %d, want %d", round, m.Addr, want)
			}
			want++
		}
	}
	for q.n > 0 {
		m, _, _ := q.tryPop()
		if m.Addr != want {
			t.Fatalf("final drain: popped addr %d, want %d", m.Addr, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d messages, pushed %d", want, next)
	}
}

func TestMsgQueueStorageStaysWithinBound(t *testing.T) {
	for _, bound := range []int{1, 3, 8, 100, 4096} {
		q := newMsgQueue(bound)
		if len(q.buf) != 0 {
			t.Fatalf("bound %d: %d slots before the first push", bound, len(q.buf))
		}
		// Stream 3×bound messages without ever emptying the queue: keep
		// it at bound-1 or full.
		for i := 0; i < 3*bound; i++ {
			if q.n == bound {
				if _, err := q.pop(nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := q.push(Msg{Type: MTInterrupt}); err != nil {
				t.Fatal(err)
			}
			if len(q.buf) > bound {
				t.Fatalf("bound %d: storage grew to %d slots", bound, len(q.buf))
			}
		}
		if q.n != bound {
			t.Fatalf("bound %d: holds %d messages", bound, q.n)
		}
	}
	// Storage follows the traffic, not the bound.
	q := newMsgQueue(4096)
	for i := 0; i < 10; i++ {
		q.push(Msg{Type: MTInterrupt})
		q.pop(nil)
	}
	if len(q.buf) != queueMinSlots {
		t.Fatalf("one-deep traffic grew storage to %d slots, want %d", len(q.buf), queueMinSlots)
	}
}

func TestMsgQueueFullPushBlocksUntilPop(t *testing.T) {
	q := newMsgQueue(2)
	q.push(Msg{Addr: 1})
	q.push(Msg{Addr: 2})
	pushed := make(chan error, 1)
	go func() { pushed <- q.push(Msg{Addr: 3}) }()
	select {
	case err := <-pushed:
		t.Fatalf("push on a full queue returned %v without a pop", err)
	case <-time.After(20 * time.Millisecond):
	}
	if m, err := q.pop(nil); err != nil || m.Addr != 1 {
		t.Fatalf("pop = %+v, %v", m, err)
	}
	if err := <-pushed; err != nil {
		t.Fatalf("blocked push: %v", err)
	}
	for _, want := range []uint32{2, 3} {
		if m, err := q.pop(nil); err != nil || m.Addr != want {
			t.Fatalf("pop = %+v, %v; want addr %d", m, err, want)
		}
	}
}

func TestMsgQueueCloseUnblocksPushAndPop(t *testing.T) {
	full := newMsgQueue(1)
	full.push(Msg{})
	empty := newMsgQueue(1)
	pushed := make(chan error, 1)
	popped := make(chan error, 1)
	go func() { pushed <- full.push(Msg{}) }()
	go func() { _, err := empty.pop(nil); popped <- err }()
	time.Sleep(10 * time.Millisecond)
	full.close(nil)
	empty.close(nil)
	for name, c := range map[string]chan error{"push": pushed, "pop": popped} {
		select {
		case err := <-c:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("blocked %s returned %v, want ErrClosed", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("close did not unblock %s", name)
		}
	}
	if err := full.push(Msg{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close = %v, want ErrClosed", err)
	}
	full.close(nil) // closing twice is harmless
}

func TestMsgQueuePopAfterCloseDrains(t *testing.T) {
	q := newMsgQueue(4)
	for i := uint32(1); i <= 3; i++ {
		q.push(Msg{Addr: i})
	}
	q.close(nil)
	if m, ok, err := q.tryPop(); !ok || err != nil || m.Addr != 1 {
		t.Fatalf("tryPop after close = %+v, %v, %v", m, ok, err)
	}
	for _, want := range []uint32{2, 3} {
		if m, err := q.pop(nil); err != nil || m.Addr != want {
			t.Fatalf("pop after close = %+v, %v; want addr %d", m, err, want)
		}
	}
	if _, err := q.pop(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("pop of a drained closed queue = %v, want ErrClosed", err)
	}
	if _, ok, err := q.tryPop(); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("tryPop of a drained closed queue = %v, %v", ok, err)
	}
}

func TestMsgQueuePopTimesOut(t *testing.T) {
	q := newMsgQueue(1)
	if _, err := q.pop(time.After(time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("pop of an empty queue = %v, want ErrTimeout", err)
	}
	q.push(Msg{Addr: 7})
	if m, err := q.pop(time.After(time.Millisecond)); err != nil || m.Addr != 7 {
		t.Fatalf("pop = %+v, %v", m, err)
	}
}

// TestMsgQueueConcurrentNoLostWakeups: several pushers and poppers on a
// small queue, so both sides block often; every message arrives and
// nobody stays asleep.
func TestMsgQueueConcurrentNoLostWakeups(t *testing.T) {
	const workers, each = 3, 2000
	q := newMsgQueue(4)
	var wg sync.WaitGroup
	got := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := q.push(Msg{Type: MTInterrupt}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			n := 0
			for i := 0; i < each; i++ {
				if _, err := q.pop(nil); err != nil {
					break
				}
				n++
			}
			got <- n
		}()
	}
	total := 0
	timeout := time.After(30 * time.Second)
	for w := 0; w < workers; w++ {
		select {
		case n := <-got:
			total += n
		case <-timeout:
			q.close(nil)
			t.Fatalf("a worker stayed blocked: %d of %d messages popped", total, workers*each)
		}
	}
	wg.Wait()
	if total != workers*each {
		t.Fatalf("popped %d messages, pushed %d", total, workers*each)
	}
}

// TestInProcSendAfterCloseFails: once either side closes, Send reports
// ErrClosed every time, from both sides.
func TestInProcSendAfterCloseFails(t *testing.T) {
	hw, board := NewInProcPair(8)
	hw.Close()
	for i := 0; i < 200; i++ {
		for _, tr := range []Transport{hw, board} {
			m := Msg{Type: MTDataWrite, Words: []uint32{1, 2, 3, 4}}
			if err := tr.Send(ChanData, m); !errors.Is(err, ErrClosed) {
				t.Fatalf("send %d after close = %v, want ErrClosed", i, err)
			}
		}
	}
}
