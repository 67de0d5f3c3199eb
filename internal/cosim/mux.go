package cosim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSessionRejected is returned by DialTCPSession when the listener
// refuses the attach handshake (unknown session ID, duplicate channel,
// or version mismatch).
var ErrSessionRejected = errors.New("cosim: session rejected by listener")

// ErrSessionExists is returned by MuxListener.Expect for a session ID
// that is already registered and not yet accepted.
var ErrSessionExists = errors.New("cosim: session id already expected")

// muxHandshakeTimeout bounds the attach handshake of one connection, so
// a stalled or hostile client cannot pin listener resources forever.
const muxHandshakeTimeout = 10 * time.Second

// MuxListener is a multiplexing TCP listener: where Listener serves
// exactly one board, a MuxListener serves many concurrent boards on one
// address. Each dialing board extends the per-channel handshake with an
// attach frame naming its session ID (see DialTCPSession); the listener
// groups the three channel connections by that ID and hands the
// assembled Transport to whichever caller registered the session with
// Expect. Connections attaching to an unknown session ID are rejected
// (closed), which the dialer observes as ErrSessionRejected.
//
// This is the farm's front door: one listener, N in-flight sessions.
type MuxListener struct {
	ln net.Listener

	mu      sync.Mutex
	pending map[uint64]*PendingSession
	closed  bool

	rejected atomic.Uint64
}

// ListenMux starts a multiplexing listener on addr (e.g. "127.0.0.1:0")
// and begins accepting connections immediately.
func ListenMux(addr string) (*MuxListener, error) { return ListenMuxNet("tcp", addr) }

// ListenMuxUDS is ListenMux over a Unix-domain socket at path. The
// attach handshake is byte-identical, so DialSession("unix", ...) works
// unchanged against it.
func ListenMuxUDS(path string) (*MuxListener, error) { return ListenMuxNet("unix", path) }

// ListenMuxNet starts a multiplexing listener on an arbitrary stream
// network ("tcp", "unix").
func ListenMuxNet(network, addr string) (*MuxListener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	l := &MuxListener{ln: ln, pending: make(map[uint64]*PendingSession)}
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound address (a host:port for TCP — useful with
// port 0 — or the socket path for UDS).
func (l *MuxListener) Addr() string { return l.ln.Addr().String() }

// Network returns the listener's network ("tcp", "unix").
func (l *MuxListener) Network() string { return l.ln.Addr().Network() }

// Rejected returns the number of connections refused so far (unknown
// session ID, duplicate channel, bad handshake) — an observability hook
// for the farm's metrics.
func (l *MuxListener) Rejected() uint64 { return l.rejected.Load() }

// Close stops the listener and cancels every pending session.
// Already-accepted transports stay open.
func (l *MuxListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	pend := make([]*PendingSession, 0, len(l.pending))
	for _, p := range l.pending {
		pend = append(pend, p)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	for _, p := range pend {
		p.Cancel()
	}
	return err
}

// Expect registers a session ID and returns its pending handle: the
// board that attaches with this ID will be routed to it. Registration
// must happen before the board dials, or the dial is rejected.
func (l *MuxListener) Expect(id uint64) (*PendingSession, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if _, dup := l.pending[id]; dup {
		return nil, fmt.Errorf("%w: %d", ErrSessionExists, id)
	}
	p := &PendingSession{l: l, id: id, ready: make(chan Transport, 1)}
	l.pending[id] = p
	return p, nil
}

// AcceptSession is Expect followed by Accept: it registers id and blocks
// until the board with that session ID has attached all three channels
// (or ctx is done). On error the registration is cancelled.
func (l *MuxListener) AcceptSession(ctx context.Context, id uint64) (Transport, error) {
	p, err := l.Expect(id)
	if err != nil {
		return nil, err
	}
	return p.Accept(ctx)
}

func (l *MuxListener) acceptLoop() {
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go l.handshake(c)
	}
}

// reject closes a connection that failed the handshake. The dialer sees
// the close as an EOF on its accept-ack read, i.e. ErrSessionRejected.
func (l *MuxListener) reject(c net.Conn) {
	l.rejected.Add(1)
	c.Close()
}

// handshake validates one inbound connection: channel tag byte, hello,
// attach; on success it acknowledges with a hello of its own and files
// the connection under its session.
func (l *MuxListener) handshake(c net.Conn) {
	_ = c.SetDeadline(time.Now().Add(muxHandshakeTimeout)) //cosim:wallclock -- handshake deadline guards the host TCP connection
	var tag [1]byte
	if _, err := c.Read(tag[:]); err != nil {
		l.reject(c)
		return
	}
	ch := Channel(tag[0])
	if ch >= numChannels {
		l.reject(c)
		return
	}
	hello, err := Decode(c)
	// Release on both arms: a well-formed hello carries only scalars, and
	// a stray frame may carry pooled payloads.
	if err != nil || hello.Type != MTHello || hello.Version != ProtocolVersion {
		hello.Release()
		l.reject(c)
		return
	}
	hello.Release()
	attach, err := Decode(c)
	if err != nil || attach.Type != MTAttach || attach.Version != ProtocolVersion {
		attach.Release()
		l.reject(c)
		return
	}
	sessionID := attach.Seq
	attach.Release() // attach frame carries only scalars

	l.mu.Lock()
	p := l.pending[sessionID]
	l.mu.Unlock()
	if p == nil {
		l.reject(c) // unknown session ID
		return
	}
	if !p.addConn(ch, c) {
		l.reject(c) // duplicate channel or session cancelled meanwhile
		return
	}
	// Accept-ack: the dialer blocks on this frame, so a rejected dial
	// fails fast instead of discovering the dead link at first use.
	ack := Msg{Type: MTHello, Version: ProtocolVersion}
	if err := ack.Encode(c); err != nil {
		p.dropConn(ch, c)
		l.reject(c)
		return
	}
	_ = c.SetDeadline(time.Time{})
	p.maybeComplete()
}

// PendingSession is one registered-but-not-yet-connected session on a
// MuxListener.
type PendingSession struct {
	l  *MuxListener
	id uint64

	mu       sync.Mutex
	conns    [numChannels]net.Conn
	seen     int
	done     bool
	canceled bool

	ready chan Transport // buffered 1; receives the assembled transport
}

// ID returns the session ID this handle was registered under.
func (p *PendingSession) ID() uint64 { return p.id }

// addConn files one handshaken connection, reporting false when the
// channel is already taken or the session is no longer pending.
func (p *PendingSession) addConn(ch Channel, c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.canceled || p.done || p.conns[ch] != nil {
		return false
	}
	p.conns[ch] = c
	p.seen++
	return true
}

// dropConn undoes addConn after a failed accept-ack write.
func (p *PendingSession) dropConn(ch Channel, c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conns[ch] == c {
		p.conns[ch] = nil
		p.seen--
	}
}

// maybeComplete assembles and publishes the transport once all three
// channels are connected. The publish happens under the session lock
// (the ready channel is buffered and has a single sender, so the send
// cannot block), which lets Cancel deterministically reclaim a
// transport nobody accepted.
func (p *PendingSession) maybeComplete() {
	p.mu.Lock()
	if p.canceled || p.done || p.seen < int(numChannels) {
		p.mu.Unlock()
		return
	}
	p.done = true
	p.ready <- newTCPTransport(p.conns)
	p.mu.Unlock()

	p.l.mu.Lock()
	delete(p.l.pending, p.id)
	p.l.mu.Unlock()
}

// Accept blocks until the session's board has attached all three
// channels, returning the assembled transport. When ctx ends first the
// registration is cancelled and any partial connections are closed.
func (p *PendingSession) Accept(ctx context.Context) (Transport, error) {
	select {
	case tr := <-p.ready:
		return tr, nil
	case <-ctx.Done():
		p.Cancel()
		return nil, ctx.Err()
	}
}

// Cancel withdraws the registration and closes any partially attached
// connections. Safe to call at any time, from any goroutine.
func (p *PendingSession) Cancel() {
	p.mu.Lock()
	if p.canceled {
		p.mu.Unlock()
		return
	}
	p.canceled = true
	if p.done {
		// Assembled but possibly unclaimed: if Accept has not taken the
		// transport yet it is still in the buffer; close it rather than
		// leak its reader goroutines. If Accept already has it, the
		// caller owns it and this select falls through.
		select {
		case tr := <-p.ready:
			tr.Close()
		default:
		}
	} else {
		for _, c := range p.conns {
			if c != nil {
				c.Close()
			}
		}
	}
	p.mu.Unlock()

	p.l.mu.Lock()
	delete(p.l.pending, p.id)
	p.l.mu.Unlock()
}

// DialTCPSession connects the board side to a MuxListener, attaching all
// three channels to the given session ID. Each channel performs the tag
// + hello handshake of DialTCP followed by an attach frame, then waits
// for the listener's accept-ack; a listener that does not know the
// session ID closes the connection instead, surfaced here as
// ErrSessionRejected.
func DialTCPSession(addr string, sessionID uint64) (Transport, error) {
	return DialSession("tcp", addr, sessionID)
}

// DialUDSSession is DialTCPSession over a Unix-domain socket path.
func DialUDSSession(path string, sessionID uint64) (Transport, error) {
	return DialSession("unix", path, sessionID)
}

// DialSession attaches all three channels to sessionID over an arbitrary
// stream network ("tcp", "unix"); see DialTCPSession.
func DialSession(network, addr string, sessionID uint64) (Transport, error) {
	var conns [numChannels]net.Conn
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	for ch := Channel(0); ch < numChannels; ch++ {
		c, err := net.Dial(network, addr)
		if err != nil {
			closeAll()
			return nil, err
		}
		conns[ch] = c
		_ = c.SetDeadline(time.Now().Add(muxHandshakeTimeout)) //cosim:wallclock -- handshake deadline guards the host TCP connection
		if _, err := c.Write([]byte{byte(ch)}); err != nil {
			closeAll()
			return nil, err
		}
		hello := Msg{Type: MTHello, Version: ProtocolVersion}
		if err := hello.Encode(c); err != nil {
			closeAll()
			return nil, err
		}
		attach := Msg{Type: MTAttach, Version: ProtocolVersion, Seq: sessionID}
		if err := attach.Encode(c); err != nil {
			closeAll()
			return nil, err
		}
		ack, err := Decode(c)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("%w (session %d, %v channel)", ErrSessionRejected, sessionID, ch)
		}
		if ack.Type != MTHello || ack.Version != ProtocolVersion {
			ack.Release() // a stray frame may carry pooled payloads
			closeAll()
			return nil, fmt.Errorf("cosim: bad accept-ack %v on %v channel", ack.Type, ch)
		}
		ack.Release() // accept-ack carries only scalars
		_ = c.SetDeadline(time.Time{})
	}
	return newTCPTransport(conns), nil
}
