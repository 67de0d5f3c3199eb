package rtos

import "testing"

// The idle-quantum and interrupt-dispatch floors are gated in the Kernel/
// family of cmd/cosim-bench; these cover the thread paths.

// BenchmarkAdvanceBusyThread measures a quantum spent charging one thread.
func BenchmarkAdvanceBusyThread(b *testing.B) {
	k := NewKernel(DefaultConfig())
	k.CreateThread("spin", 10, func(c *ThreadCtx) {
		for {
			c.Charge(1000)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Advance(1000)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkContextSwitchPingPong measures mailbox handoff between two
// threads: the kernel's rendezvous fast path.
func BenchmarkContextSwitchPingPong(b *testing.B) {
	k := NewKernel(DefaultConfig())
	ping := k.NewMailbox("ping", 1)
	pong := k.NewMailbox("pong", 1)
	k.CreateThread("a", 10, func(c *ThreadCtx) {
		for {
			ping.Put(c, []uint32{1})
			pong.Get(c)
		}
	})
	k.CreateThread("b", 10, func(c *ThreadCtx) {
		for {
			ping.Get(c)
			c.Charge(10)
			pong.Put(c, []uint32{2})
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Advance(1000)
	}
	b.StopTimer()
	k.Shutdown()
}
