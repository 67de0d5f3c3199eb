package cosim

import (
	"errors"
	"fmt"
	"time"
)

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("cosim: transport closed")

// ErrTimeout is returned by RecvTimeout when the deadline passes with no
// message.
var ErrTimeout = errors.New("cosim: receive timed out")

// recvTimeouter is implemented by transports that support bounded waits.
type recvTimeouter interface {
	recvTimeout(ch Channel, d time.Duration) (Msg, error)
}

// RecvTimeout waits for a message on ch for at most d (d ≤ 0 blocks
// indefinitely, like Recv). It returns ErrTimeout when the deadline
// passes — the hook endpoints use to detect a dead peer instead of
// hanging a co-simulation forever.
func RecvTimeout(tr Transport, ch Channel, d time.Duration) (Msg, error) {
	if d <= 0 {
		return tr.Recv(ch)
	}
	if rt, ok := tr.(recvTimeouter); ok {
		return rt.recvTimeout(ch, d)
	}
	// Fallback for wrappers that do not expose the capability: poll.
	deadline := time.Now().Add(d) //cosim:wallclock -- receive timeout bounds host I/O, not simulated time
	for {
		m, ok, err := tr.TryRecv(ch)
		if err != nil {
			return Msg{}, err
		}
		if ok {
			return m, nil
		}
		if time.Now().After(deadline) { //cosim:wallclock -- receive timeout bounds host I/O, not simulated time
			return Msg{}, ErrTimeout
		}
		time.Sleep(50 * time.Microsecond) //cosim:wallclock -- poll backoff between host-side TryRecv attempts
	}
}

// Transport moves protocol messages across the three logical channels.
// Implementations must preserve per-channel FIFO order; no ordering is
// guaranteed *across* channels (TCP gives none), which is why the protocol
// carries explicit drain counts in grants and acks.
//
// Send may be called from the owning side's simulation goroutine; Recv and
// TryRecv from the same. A transport connects exactly two peers.
//
// # Buffer ownership
//
// Payloads are owned by value. Send hands the message's payload slices
// (Words, Raw) to the transport stack: the caller must not write them
// afterwards, because an in-process transport gives the very same slices
// to the receiving peer. A message returned by Recv/TryRecv owns its
// payloads outright: the receiver may keep or modify them for as long as
// it likes, and nothing is returned to any pool. A layer that duplicates
// or stashes a frame (chaos fault injection) copies its payloads first.
type Transport interface {
	// Send enqueues m on channel ch.
	Send(ch Channel, m Msg) error
	// Recv blocks until a message arrives on ch (or the transport closes).
	Recv(ch Channel) (Msg, error)
	// TryRecv returns the next message on ch if one is already available.
	TryRecv(ch Channel) (Msg, bool, error)
	// Close tears the link down; blocked Recv calls return ErrClosed or a
	// transport-specific error.
	Close() error
}

// Unwrapper is implemented by decorating transports (trace, delay,
// chaos, session) so capability probes — most importantly the
// link-stats harvest in Metrics — can walk the wrapper chain instead of
// seeing only the outermost layer.
type Unwrapper interface {
	// Unwrap returns the next transport down the stack.
	Unwrap() Transport
}

// BaseTransportName walks tr's wrapper chain to its base transport and
// names it: "inproc", "tcp", "unix", or "shm" ("unknown" for a base this
// package did not build). Results describe the link actually carrying
// frames, so callers reporting a transport kind — the router's RunResult,
// the farm's metrics — cannot drift from the configuration that built
// the stack.
func BaseTransportName(tr Transport) string {
	for {
		u, ok := tr.(Unwrapper)
		if !ok {
			break
		}
		tr = u.Unwrap()
	}
	switch t := tr.(type) {
	case *inprocTransport:
		return "inproc"
	case *tcpTransport:
		for _, c := range t.conns {
			if c != nil {
				return c.LocalAddr().Network()
			}
		}
		return "tcp"
	case *ShmTransport:
		return "shm"
	default:
		return "unknown"
	}
}

// inprocTransport is the in-process Transport: one bounded message
// queue per channel and direction. It gives the same interface and
// message-granularity semantics as the TCP transport with ~100ns per
// message instead of a socket round trip, so deterministic experiments
// can sweep large parameter grids quickly.
type inprocTransport struct {
	send, recv [numChannels]*msgQueue
}

// NewInProcPair creates a connected pair of in-process transports; hw is
// handed to the hardware-simulator endpoint and board to the board
// endpoint. capacity bounds each channel's queue (≥1): a Send on a full
// channel blocks until the peer receives or either side closes. Queue
// storage grows with use up to that bound.
func NewInProcPair(capacity int) (hw, board Transport) {
	var h2b, b2h [numChannels]*msgQueue
	for i := range h2b {
		h2b[i] = newMsgQueue(capacity)
		b2h[i] = newMsgQueue(capacity)
	}
	return &inprocTransport{send: h2b, recv: b2h}, &inprocTransport{send: b2h, recv: h2b}
}

// Send implements Transport. After either side's Close it fails with
// ErrClosed.
func (t *inprocTransport) Send(ch Channel, m Msg) error {
	if ch >= numChannels {
		return fmt.Errorf("cosim: invalid channel %d", ch)
	}
	return t.send[ch].push(m)
}

// Recv implements Transport. After close it drains what is already
// queued before reporting ErrClosed, so a shutdown race cannot lose the
// final ack.
func (t *inprocTransport) Recv(ch Channel) (Msg, error) {
	if ch >= numChannels {
		return Msg{}, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	return t.recv[ch].pop(nil)
}

func (t *inprocTransport) recvTimeout(ch Channel, d time.Duration) (Msg, error) {
	if ch >= numChannels {
		return Msg{}, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	timer := time.NewTimer(d) //cosim:wallclock -- receive timeout bounds host I/O, not simulated time
	defer timer.Stop()
	return t.recv[ch].pop(timer.C)
}

// TryRecv implements Transport.
func (t *inprocTransport) TryRecv(ch Channel) (Msg, bool, error) {
	if ch >= numChannels {
		return Msg{}, false, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	return t.recv[ch].tryPop()
}

// Close implements Transport: it closes both directions, so it acts for
// both sides.
func (t *inprocTransport) Close() error {
	for ch := range t.send {
		t.send[ch].close(nil)
		t.recv[ch].close(nil)
	}
	return nil
}
