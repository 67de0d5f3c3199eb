package router

import (
	"fmt"

	"repro/internal/hdlsim"
	"repro/internal/packet"
)

// Producer is the "SystemC model of the packet generator": it drives one
// router input with randomly-addressed packets at a fixed period.
type Producer struct {
	hdlsim.BaseModule
	generated uint64
	done      bool
}

// NewProducer attaches a producer to input signal in. It emits `count`
// packets, one every `period` clock cycles, starting after `phase` cycles
// (staggering producers avoids artificial burst alignment).
func NewProducer(s *hdlsim.Simulator, clk *hdlsim.Clock, in *hdlsim.Signal[*packet.Packet],
	gen *packet.Generator, count int, period, phase uint64) *Producer {
	if period == 0 {
		panic("router: producer period must be ≥ 1 cycle")
	}
	p := &Producer{BaseModule: hdlsim.BaseModule{Name: fmt.Sprintf("producer%d", gen.Generated())}}
	s.Thread(fmt.Sprintf("producer.%s", in.SignalName()), func(c *hdlsim.Ctx) {
		c.WaitCycles(clk, phase)
		for i := 0; i < count; i++ {
			c.WaitCycles(clk, period)
			pkt := gen.Next()
			in.Write(&pkt)
			p.generated++
		}
		p.done = true
	})
	return p
}

// Generated returns how many packets this producer has emitted.
func (p *Producer) Generated() uint64 { return p.generated }

// Done reports whether the producer finished its quota.
func (p *Producer) Done() bool { return p.done }

// ConsumerStats counts what a consumer observed.
type ConsumerStats struct {
	Received       uint64
	IntegrityError uint64 // checksum mismatch at the consumer (must be 0)
	Misrouted      uint64 // packet arrived on the wrong output port
}

// Consumer is the "SystemC model of the packet destination": it checks
// the integrity of every packet delivered on one output port.
type Consumer struct {
	hdlsim.BaseModule
	stats ConsumerStats
}

// NewConsumer attaches a consumer to output signal out for port index
// `port`; routeOf is the router's routing function, used to detect
// misrouted deliveries.
func NewConsumer(s *hdlsim.Simulator, out *hdlsim.Signal[*packet.Packet],
	port int, routeOf func(uint16) int) *Consumer {
	c := &Consumer{BaseModule: hdlsim.BaseModule{Name: fmt.Sprintf("consumer%d", port)}}
	s.Method(fmt.Sprintf("consumer%d", port), func() {
		p := out.Read()
		if p == nil {
			return
		}
		c.stats.Received++
		if !p.Valid() {
			c.stats.IntegrityError++
		}
		if p.IsMulticast() {
			if p.PortMask()&(1<<port) == 0 {
				c.stats.Misrouted++
			}
		} else if routeOf(p.Dst) != port {
			c.stats.Misrouted++
		}
	}, out.Changed()).DontInitialize()
	return c
}

// Stats returns the consumer's counters.
func (c *Consumer) Stats() ConsumerStats { return c.stats }
