package rtos

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestIRQVectorRangeChecked: every vector-taking entry point rejects a
// vector outside the table with the same named cause, rather than a bare
// index panic or (with the pending/enabled bitmasks) a shift that silently
// touches no bit.
func TestIRQVectorRangeChecked(t *testing.T) {
	k := NewKernel(testCfg())
	ops := []struct {
		name string
		call func(irq int)
	}{
		{"AttachInterrupt", func(irq int) { k.AttachInterrupt(irq, nil, nil) }},
		{"PostIRQ", func(irq int) { k.PostIRQ(irq) }},
		{"MaskInterrupt", func(irq int) { k.MaskInterrupt(irq) }},
		{"UnmaskInterrupt", func(irq int) { k.UnmaskInterrupt(irq) }},
		{"IRQPending", func(irq int) { k.IRQPending(irq) }},
	}
	for _, op := range ops {
		for _, irq := range []int{-1, NumIRQs, NumIRQs + 31, 64} {
			t.Run(fmt.Sprintf("%s/%d", op.name, irq), func(t *testing.T) {
				defer func() {
					r := recover()
					want := fmt.Sprintf("rtos: IRQ %d out of range", irq)
					if msg, _ := r.(string); msg != want {
						t.Fatalf("panic %v, want %q", r, want)
					}
				}()
				op.call(irq)
			})
		}
	}
	if k.irq.pend != 0 || k.irq.enab != 0 {
		t.Fatalf("rejected vectors touched the masks: pend=%#x enab=%#x", k.irq.pend, k.irq.enab)
	}
}

// linearPick is the reference scheduler: the scan of all NumPriorities run
// queues the ready bitmap replaces. It reports the thread pickNext must
// return, and where it sits, without dequeuing it.
func linearPick(k *Kernel) (*Thread, int) {
	for p := 0; p < NumPriorities; p++ {
		for i, t := range k.runq[p] {
			if k.state == StateIdle && !t.comm {
				continue
			}
			return t, i
		}
	}
	return nil, -1
}

// linearPending is the reference interrupt controller: vector numbers of
// every pending, enabled line in the order a vector-table scan claims them.
func linearPending(k *Kernel) []int {
	var out []int
	for i := range k.irq.lines {
		if l := &k.irq.lines[i]; l.pending && l.enabled {
			out = append(out, i)
		}
	}
	return out
}

// checkBitmaps asserts the two O(1)-dispatch invariants: bit p of the
// ready bitmap ⇔ runq[p] non-empty, and the pending/enabled masks ⇔ the
// per-line flags.
func checkBitmaps(t *testing.T, k *Kernel, step int, op string) {
	t.Helper()
	for p := 0; p < NumPriorities; p++ {
		if bit, nonEmpty := k.readyMask&(1<<p) != 0, len(k.runq[p]) > 0; bit != nonEmpty {
			t.Fatalf("step %d (%s): ready bit %d = %v but len(runq[%d]) = %d",
				step, op, p, bit, p, len(k.runq[p]))
		}
	}
	for n := range k.irq.lines {
		l := &k.irq.lines[n]
		if bit := k.irq.pend&(1<<n) != 0; bit != l.pending {
			t.Fatalf("step %d (%s): pending bit %d = %v, line flag %v", step, op, n, bit, l.pending)
		}
		if bit := k.irq.enab&(1<<n) != 0; bit != l.enabled {
			t.Fatalf("step %d (%s): enabled bit %d = %v, line flag %v", step, op, n, bit, l.enabled)
		}
	}
}

// TestDispatchMatchesLinearScan is a seeded differential test of the
// bitmap scheduler and interrupt controller against linear-scan reference
// models. Each seed interleaves thread creation (comm and non-comm, mixed
// priorities, same-priority peers), external and priority-inheritance
// SetPriority, IRQ posts, masks and unmasks, granted quanta, and single
// scheduler picks in both OS states. Every pick must equal the reference
// pick, every quantum's ISRs must run in the reference vector order, and
// both bitmap invariants must hold after every step.
func TestDispatchMatchesLinearScan(t *testing.T) {
	var commBehind int // IDLE picks that skipped a non-comm thread queued ahead
	for seed := int64(1); seed <= 24; seed++ {
		commBehind += dispatchDifferential(t, seed)
	}
	if commBehind == 0 {
		t.Fatal("no IDLE pick took a comm thread queued behind a non-comm peer")
	}
}

func dispatchDifferential(t *testing.T, seed int64) (commBehind int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := testCfg()
	cfg.TimesliceTicks = uint64(rng.Intn(3)) // 0 disables slicing
	k := NewKernel(cfg)
	defer k.Shutdown()

	mu := k.NewMutexPI("pi")
	sem := k.NewSemaphore("wake", 0)
	var isrLog []int
	var threads []*Thread
	create := func(prio int, comm bool) {
		name := fmt.Sprintf("t%d", len(threads))
		body := func(c *ThreadCtx) {
			for {
				switch rng.Intn(4) {
				case 0: // hold the PI mutex across a yield so waiters boost us
					mu.Lock(c)
					c.Charge(uint64(1 + rng.Intn(150)))
					mu.Unlock(c)
				case 1:
					sem.Wait(c)
				case 2:
					c.Sleep(uint64(1 + rng.Intn(3)))
				}
				c.Charge(uint64(1 + rng.Intn(120)))
				c.Yield()
			}
		}
		var opts []ThreadOpt
		if comm {
			opts = append(opts, Comm())
		}
		threads = append(threads, k.CreateThread(name, prio, body, opts...))
	}
	// Guaranteed coverage of the IDLE filter: a comm thread queued behind a
	// non-comm peer of the same priority.
	create(7, false)
	create(7, true)

	// Spread the attached vectors across the table, both ends included.
	var vectors []int
	for _, v := range []int{0, 3, 9, 16, 17, 30, 31} {
		if v == 0 || v == 31 || rng.Intn(2) == 0 {
			vectors = append(vectors, v)
			v := v
			k.AttachInterrupt(v, func() bool { isrLog = append(isrLog, v); return v%2 == 0 },
				func() { sem.Post() })
		}
	}

	for step := 0; step < 400; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 12 && !k.started:
			op = "create"
			create(rng.Intn(NumPriorities), rng.Intn(3) == 0)
		case r < 24:
			op = "setprio"
			k.SetPriority(threads[rng.Intn(len(threads))], rng.Intn(NumPriorities))
		case r < 40:
			op = "post"
			k.PostIRQ(vectors[rng.Intn(len(vectors))])
		case r < 48:
			op = "mask"
			k.MaskInterrupt(vectors[rng.Intn(len(vectors))])
		case r < 58:
			op = "unmask"
			k.UnmaskInterrupt(vectors[rng.Intn(len(vectors))])
		case r < 66:
			op = "state"
			if k.state == StateIdle {
				k.enterNormal()
			} else {
				k.enterIdle()
			}
		case r < 84:
			op = "pick"
			want, at := linearPick(k)
			got := k.pickNext()
			if got != want {
				t.Fatalf("seed %d step %d: pickNext (%v) = %s, linear scan = %s",
					seed, step, k.state, threadName(got), threadName(want))
			}
			if got != nil {
				if k.state == StateIdle && at > 0 {
					commBehind++
				}
				k.runThread(got)
			}
		default:
			op = "advance"
			if k.state == StateNormal {
				k.enterIdle()
			}
			want := linearPending(k)
			isrLog = isrLog[:0]
			// Zero kernel costs: the quantum's opening dispatch drains every
			// latched line before any cycle elapses, and nothing in this
			// test posts from inside a quantum.
			k.Advance(uint64(1 + rng.Intn(400)))
			if fmt.Sprint(isrLog) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d: ISR order %v, linear scan %v", seed, step, isrLog, want)
			}
		}
		checkBitmaps(t, k, step, op)
	}
	return commBehind
}

func threadName(t *Thread) string {
	if t == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s(prio %d, comm %v)", t.name, t.prio, t.comm)
}
