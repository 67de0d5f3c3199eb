package cosim

import "time"

// DelayTransport wraps a Transport and adds a fixed wall-clock latency to
// every Send. It emulates the paper's physical setup — host PC and SCM2x0
// board joined by Ethernet — whose per-message cost dominated their
// co-simulation overhead (their Figure 5/6 regime). Without it, loopback
// TCP on one machine is so fast relative to their link that the overhead
// curves, while preserving their shape, compress by roughly the ratio of
// the two link latencies.
//
// The delay is charged on the sender's goroutine, which also models the
// sender-side socket/syscall cost the paper attributes to "the increased
// cost of communication". A SessionTransport above writes through, so
// its user's Send pays the delay too; only acks, nacks, heartbeats and
// re-sends pay it on the session's control writer.
type DelayTransport struct {
	inner Transport
	delay time.Duration
}

// NewDelayTransport wraps inner with a per-send latency.
func NewDelayTransport(inner Transport, delay time.Duration) *DelayTransport {
	return &DelayTransport{inner: inner, delay: delay}
}

// Send implements Transport.
func (d *DelayTransport) Send(ch Channel, m Msg) error {
	if d.delay > 0 {
		time.Sleep(d.delay) //cosim:wallclock -- DelayTransport models host link latency by real sleeping
	}
	return d.inner.Send(ch, m)
}

// Recv implements Transport.
func (d *DelayTransport) Recv(ch Channel) (Msg, error) { return d.inner.Recv(ch) }

// TryRecv implements Transport.
func (d *DelayTransport) TryRecv(ch Channel) (Msg, bool, error) { return d.inner.TryRecv(ch) }

// Close implements Transport.
func (d *DelayTransport) Close() error { return d.inner.Close() }

// Unwrap implements Unwrapper.
func (d *DelayTransport) Unwrap() Transport { return d.inner }
