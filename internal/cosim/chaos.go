package cosim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// NumChannels is the number of logical channels, exported for sizing
// per-channel fault-scenario tables.
const NumChannels = int(numChannels)

// FaultProfile sets independent per-frame fault probabilities for one
// channel direction. All fields are in [0,1].
type FaultProfile struct {
	Drop      float64 // frame silently discarded
	Duplicate float64 // frame sent twice
	Reorder   float64 // frame held back and sent after its successor
	Corrupt   float64 // one bit of the encoded body flipped
	Truncate  float64 // encoded body cut short
	Delay     float64 // wall-clock stall before the send
	// MaxDelay bounds the stall drawn when Delay fires (default 1ms).
	MaxDelay time.Duration
}

// Scenario is a reproducible fault-injection schedule: a seed plus one
// FaultProfile per channel. Two ChaosTransports built from the same
// Scenario injure exactly the same frame indices on each channel.
type Scenario struct {
	Seed    int64
	Profile [NumChannels]FaultProfile
}

// Validate rejects a probability outside [0,1] (NaN included), naming
// the channel and the field.
func (sc Scenario) Validate() error {
	fields := [...]string{"Drop", "Duplicate", "Reorder", "Corrupt", "Truncate", "Delay"}
	for ch, p := range sc.Profile {
		for i, v := range [...]float64{p.Drop, p.Duplicate, p.Reorder, p.Corrupt, p.Truncate, p.Delay} {
			if !(v >= 0 && v <= 1) {
				return fmt.Errorf("cosim: invalid Scenario: %s channel %s probability %v is outside [0,1]", Channel(ch), fields[i], v)
			}
		}
	}
	return nil
}

// UniformScenario applies the same profile to all three channels.
func UniformScenario(seed int64, p FaultProfile) Scenario {
	sc := Scenario{Seed: seed}
	for i := range sc.Profile {
		sc.Profile[i] = p
	}
	return sc
}

// WithSeed returns a copy of the scenario under a different seed (used to
// give the two directions of a link independent fault streams).
func (sc Scenario) WithSeed(seed int64) Scenario {
	sc.Seed = seed
	return sc
}

// ChaosStats counts the faults a ChaosTransport injected.
type ChaosStats struct {
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Corrupted  uint64
	Truncated  uint64
	Delayed    uint64
}

// Injured is the total number of frames tampered with in any way.
func (s ChaosStats) Injured() uint64 {
	return s.Dropped + s.Duplicated + s.Reordered + s.Corrupted + s.Truncated + s.Delayed
}

type chaosLane struct {
	mu   sync.Mutex
	rng  *rand.Rand
	prof FaultProfile
	held *Msg // frame stashed by a reorder fault
}

// ChaosTransport is a deterministic, seeded fault-injection decorator for
// the send direction of a Transport: it drops, duplicates, reorders,
// delays, truncates, and bit-flips frames per channel according to a
// Scenario. A fixed number of random draws is consumed per frame, so the
// fault schedule is a pure function of (seed, channel, frame index) and
// is reproducible regardless of cross-channel timing. Wrap both peers'
// transports to injure both directions.
//
// Corruption operates on the encoded wire body: the tampered bytes are
// re-decoded, and a frame that no longer parses is lost, exactly as a
// CRC-failing frame vanishes at a real NIC. Use it beneath a
// SessionTransport, which detects and repairs every one of these faults.
type ChaosTransport struct {
	inner Transport
	lanes [numChannels]chaosLane

	dropped, duplicated, reordered atomic.Uint64
	corrupted, truncated, delayed  atomic.Uint64
}

// NewChaosTransport wraps inner with the scenario's fault schedule.
func NewChaosTransport(inner Transport, sc Scenario) *ChaosTransport {
	c := &ChaosTransport{inner: inner}
	for i := range c.lanes {
		c.lanes[i].rng = rand.New(rand.NewSource(sc.Seed ^ int64(i+1)*0x9E3779B9))
		c.lanes[i].prof = sc.Profile[i]
	}
	return c
}

// Send implements Transport, injecting faults per the scenario.
func (c *ChaosTransport) Send(ch Channel, m Msg) error {
	if ch >= numChannels {
		return fmt.Errorf("cosim: invalid channel %d", ch)
	}
	l := &c.lanes[ch]
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.prof
	// Exactly nine draws per frame, always, so the schedule depends only
	// on the frame's index within its channel.
	drop := l.rng.Float64() < p.Drop
	dup := l.rng.Float64() < p.Duplicate
	reorder := l.rng.Float64() < p.Reorder
	corrupt := l.rng.Float64() < p.Corrupt
	truncate := l.rng.Float64() < p.Truncate
	delay := l.rng.Float64() < p.Delay
	bitPos := l.rng.Float64()
	cutPos := l.rng.Float64()
	delayFrac := l.rng.Float64()

	if delay {
		c.delayed.Add(1)
		maxD := p.MaxDelay
		if maxD <= 0 {
			maxD = time.Millisecond
		}
		time.Sleep(time.Duration(delayFrac * float64(maxD))) //cosim:wallclock -- fault-injection delay models host link latency, not simulated time
	}

	out, lost := m, false
	if truncate || corrupt {
		body := m.appendBody(nil)
		if truncate {
			c.truncated.Add(1)
			body = body[:1+int(cutPos*float64(len(body)-1))]
		}
		if corrupt {
			c.corrupted.Add(1)
			bit := int(bitPos * float64(len(body)*8))
			if bit >= len(body)*8 {
				bit = len(body)*8 - 1
			}
			body[bit/8] ^= 1 << (bit % 8)
		}
		dm, err := decodeBody(body)
		if err != nil {
			lost = true // unparseable on the wire: the frame is gone
		} else {
			out = dm // the damaged copy owns fresh payloads
		}
	}
	if drop {
		c.dropped.Add(1)
		lost = true
	}

	var queue []Msg
	stashed := false
	if !lost {
		if reorder && l.held == nil {
			c.reordered.Add(1)
			// Stash an independent copy: a session body may be reused
			// after a nack-healed ack before the held frame is finally
			// sent.
			held := clonePayloads(out)
			l.held = &held
			stashed = true
		} else {
			queue = append(queue, out)
			if dup {
				c.duplicated.Add(1)
				// The duplicate gets its own payload copy so the two
				// receivers never share a backing array.
				queue = append(queue, clonePayloads(out))
			}
		}
	}
	// A held frame is released after a later frame overtakes it.
	if l.held != nil && !stashed && len(queue) > 0 {
		queue = append(queue, *l.held)
		l.held = nil
	}
	for _, q := range queue {
		if err := c.inner.Send(ch, q); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements Transport (faults are injected on the send side only).
func (c *ChaosTransport) Recv(ch Channel) (Msg, error) { return c.inner.Recv(ch) }

// TryRecv implements Transport.
func (c *ChaosTransport) TryRecv(ch Channel) (Msg, bool, error) { return c.inner.TryRecv(ch) }

func (c *ChaosTransport) recvTimeout(ch Channel, d time.Duration) (Msg, error) {
	if rt, ok := c.inner.(recvTimeouter); ok {
		return rt.recvTimeout(ch, d)
	}
	return RecvTimeout(c.inner, ch, d)
}

// Close implements Transport, flushing any frame still held by a reorder
// fault so the stream's tail is not lost. A lane whose Send is in
// progress is skipped: that Send may be blocked on a full link, and
// closing the inner transport is what unblocks it.
func (c *ChaosTransport) Close() error {
	for ch := range c.lanes {
		l := &c.lanes[ch]
		if !l.mu.TryLock() {
			continue
		}
		if l.held != nil {
			_ = c.inner.Send(Channel(ch), *l.held)
			l.held = nil
		}
		l.mu.Unlock()
	}
	return c.inner.Close()
}

// ChaosStats returns a snapshot of the injected-fault counters.
func (c *ChaosTransport) ChaosStats() ChaosStats {
	return ChaosStats{
		Dropped:    c.dropped.Load(),
		Duplicated: c.duplicated.Load(),
		Reordered:  c.reordered.Load(),
		Corrupted:  c.corrupted.Load(),
		Truncated:  c.truncated.Load(),
		Delayed:    c.delayed.Load(),
	}
}

// LinkStats implements linkStatser for chaos-without-session runs.
func (c *ChaosTransport) LinkStats() LinkStats {
	return LinkStats{FramesInjured: c.ChaosStats().Injured()}
}

// Unwrap implements Unwrapper.
func (c *ChaosTransport) Unwrap() Transport { return c.inner }

var _ Transport = (*ChaosTransport)(nil)
var _ recvTimeouter = (*ChaosTransport)(nil)
