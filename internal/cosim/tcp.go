package cosim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// The TCP transport realizes the paper's three TCP/IP ports. To stay
// friendly to test environments (a single well-known address instead of
// three), all three logical channels connect to one listener; the first
// byte each connection sends identifies which logical port it is. Each
// channel then carries framed Msg records (see proto.go).

// tcpTransport is a Transport over three connections, one per channel.
//
// CLOCK is read on the caller's goroutine: Recv, recvTimeout and TryRecv
// decode its frames straight off the connection, so a grant or an ack
// costs no goroutine hand-over. DATA and INT each keep one reader
// goroutine feeding a bounded queue. They carry a whole quantum's
// traffic ahead of the CLOCK frame that counts it, and one MaxWords
// write (256 KiB) can exceed the kernel's socket buffers: a peer blocked
// writing DATA or INT while this side waits on CLOCK must still be
// drained by someone, or the two sides could deadlock. CLOCK never has more
// than two frames in flight each way (a grant plus one pipelined grant,
// or an ack), which the socket buffers always hold.
type tcpTransport struct {
	conns [numChannels]net.Conn
	wmu   [numChannels]sync.Mutex

	// DATA and INT: filled by readLoop.
	inbox [ChanClock]*msgQueue

	// CLOCK: cmu serializes the callers reading the connection;
	// deadline records whether a read deadline is set on it.
	cmu      sync.Mutex
	clock    frameReader
	deadline bool

	once sync.Once
}

const tcpInboxDepth = 4096

func newTCPTransport(conns [numChannels]net.Conn) *tcpTransport {
	t := &tcpTransport{conns: conns}
	for ch := range t.inbox {
		t.inbox[ch] = newMsgQueue(tcpInboxDepth)
		go t.readLoop(Channel(ch))
	}
	return t
}

// readLoop decodes DATA or INT frames into the channel's queue until the
// connection fails or the transport closes.
func (t *tcpTransport) readLoop(ch Channel) {
	var r frameReader
	for {
		m, err := r.next(t.conns[ch])
		if err != nil {
			t.inbox[ch].close(fmt.Errorf("cosim: %v channel: %w", ch, err))
			return
		}
		if t.inbox[ch].push(m) != nil {
			return // closed under the push
		}
	}
}

func (t *tcpTransport) Send(ch Channel, m Msg) error {
	if ch >= numChannels {
		return fmt.Errorf("cosim: invalid channel %d", ch)
	}
	t.wmu[ch].Lock()
	err := m.Encode(t.conns[ch])
	t.wmu[ch].Unlock()
	return err
}

func (t *tcpTransport) Recv(ch Channel) (Msg, error) {
	switch {
	case ch == ChanClock:
		t.cmu.Lock()
		defer t.cmu.Unlock()
		return t.readClock(time.Time{})
	case ch < ChanClock:
		return t.inbox[ch].pop(nil)
	}
	return Msg{}, fmt.Errorf("cosim: invalid channel %d", ch)
}

func (t *tcpTransport) recvTimeout(ch Channel, d time.Duration) (Msg, error) {
	if ch == ChanClock {
		t.cmu.Lock()
		defer t.cmu.Unlock()
		return t.readClock(time.Now().Add(d)) //cosim:wallclock -- receive timeout bounds host I/O, not simulated time
	}
	if ch > ChanClock {
		return Msg{}, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	timer := time.NewTimer(d) //cosim:wallclock -- receive timeout bounds host I/O, not simulated time
	defer timer.Stop()
	return t.inbox[ch].pop(timer.C)
}

func (t *tcpTransport) TryRecv(ch Channel) (Msg, bool, error) {
	switch {
	case ch == ChanClock:
		if !t.cmu.TryLock() {
			return Msg{}, false, nil // another caller is reading CLOCK
		}
		defer t.cmu.Unlock()
		// A frame that is not complete within a millisecond counts as
		// not there; its bytes so far stay buffered for the next read.
		m, err := t.readClock(time.Now().Add(time.Millisecond)) //cosim:wallclock -- bounds a host-side poll, not simulated time
		if err == ErrTimeout {
			return Msg{}, false, nil
		}
		return m, err == nil, err
	case ch < ChanClock:
		return t.inbox[ch].tryPop()
	}
	return Msg{}, false, fmt.Errorf("cosim: invalid channel %d", ch)
}

// readClock reads the next CLOCK frame on the caller's goroutine (cmu
// held), giving up with ErrTimeout at deadline (none when zero). A frame
// cut short by the deadline stays buffered for the next call.
func (t *tcpTransport) readClock(deadline time.Time) (Msg, error) {
	if !deadline.IsZero() || t.deadline {
		if err := t.conns[ChanClock].SetReadDeadline(deadline); err != nil {
			return Msg{}, fmt.Errorf("cosim: %v channel: %w", ChanClock, err)
		}
		t.deadline = !deadline.IsZero()
	}
	m, err := t.clock.next(t.conns[ChanClock])
	switch {
	case err == nil:
		return m, nil
	case errors.Is(err, os.ErrDeadlineExceeded):
		return Msg{}, ErrTimeout
	}
	return Msg{}, fmt.Errorf("cosim: %v channel: %w", ChanClock, err)
}

// frameReader decodes frames from a connection read in place: CLOCK on
// the caller's goroutine, DATA and INT on their reader goroutines. Bytes
// read but not yet decoded stay in buf across calls, so a read that times
// out mid-frame loses nothing; any other read error, and any decode
// error, is sticky. decodeBody copies every payload out of buf, so a
// returned message never aliases it and buf is compacted and reused.
type frameReader struct {
	buf  []byte
	r, w int // buf[r:w] is read but not yet decoded
	err  error
}

// next returns the next frame, reading from src until one is complete.
// Complete bodies go to decodeBody after Decode's length check.
func (f *frameReader) next(src io.Reader) (Msg, error) {
	for f.err == nil {
		need := frameHeaderLen
		if f.w-f.r >= frameHeaderLen {
			n, err := frameLen(f.buf[f.r:])
			if err != nil {
				f.err = err
				break
			}
			need += n
			if f.w-f.r >= need {
				body := f.buf[f.r+frameHeaderLen : f.r+need]
				f.r += need
				m, err := decodeBody(body)
				if err != nil {
					f.err = err
					break
				}
				return m, nil
			}
		}
		f.reserve(need)
		k, err := src.Read(f.buf[f.w:])
		f.w += k
		switch {
		case err == nil:
		case errors.Is(err, os.ErrDeadlineExceeded):
			return Msg{}, err
		case err == io.EOF && f.r < f.w:
			f.err = fmt.Errorf("cosim: truncated frame: %w", io.ErrUnexpectedEOF)
		default:
			f.err = err
		}
	}
	return Msg{}, f.err
}

// reserve makes room after w for a frame of need bytes starting at r.
func (f *frameReader) reserve(need int) {
	if f.r == f.w {
		f.r, f.w = 0, 0
	}
	if len(f.buf)-f.r >= need {
		return // w < r+need: there is room to read into
	}
	if len(f.buf) >= need && f.r > 0 {
		f.w = copy(f.buf, f.buf[f.r:f.w])
		f.r = 0
		return
	}
	buf := make([]byte, max(need, 2*len(f.buf), 512))
	f.w = copy(buf, f.buf[f.r:f.w])
	f.buf, f.r = buf, 0
}

func (t *tcpTransport) Close() error {
	var first error
	t.once.Do(func() {
		for _, c := range t.conns {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		// A reader blocked on a full queue must not outlive the link.
		for _, q := range t.inbox {
			q.close(nil)
		}
	})
	return first
}

// Listener accepts the three channel connections of one co-simulation
// session on the hardware-simulator side. It is network-agnostic: the
// same framing and handshake run over TCP ("tcp") and Unix-domain
// sockets ("unix").
type Listener struct {
	ln net.Listener
}

// ListenTCP starts listening for a board connection. addr is a TCP address
// such as "127.0.0.1:0".
func ListenTCP(addr string) (*Listener, error) { return ListenNet("tcp", addr) }

// ListenUDS starts listening for a board connection on a Unix-domain
// socket at path. The socket file is created by the listener and removed
// by its Close; the wire protocol is byte-identical to the TCP one, so
// every layer above (session, batch, mux attach) works unchanged.
func ListenUDS(path string) (*Listener, error) { return ListenNet("unix", path) }

// ListenNet starts a listener on an arbitrary stream network ("tcp",
// "unix").
func ListenNet(network, addr string) (*Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ln: ln}, nil
}

// Addr returns the bound address (a host:port for TCP — useful with
// port 0 — or the socket path for UDS).
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Network returns the listener's network ("tcp", "unix").
func (l *Listener) Network() string { return l.ln.Addr().Network() }

// Accept waits for the board to open all three channels and returns the
// assembled transport. The first byte on each accepted connection selects
// its logical channel; a hello message follows on each.
func (l *Listener) Accept() (Transport, error) {
	var conns [numChannels]net.Conn
	seen := 0
	for seen < int(numChannels) {
		c, err := l.ln.Accept()
		if err != nil {
			return nil, err
		}
		var tag [1]byte
		if _, err := c.Read(tag[:]); err != nil {
			c.Close()
			return nil, fmt.Errorf("cosim: reading channel tag: %w", err)
		}
		ch := Channel(tag[0])
		if ch >= numChannels || conns[ch] != nil {
			c.Close()
			return nil, fmt.Errorf("cosim: bad or duplicate channel tag %d", tag[0])
		}
		m, err := Decode(c)
		if err != nil || m.Type != MTHello {
			c.Close()
			return nil, fmt.Errorf("cosim: missing hello on %v channel: %v", ch, err)
		}
		if m.Version != ProtocolVersion {
			c.Close()
			return nil, fmt.Errorf("cosim: protocol version mismatch: board %d, simulator %d", m.Version, ProtocolVersion)
		}
		conns[ch] = c
		seen++
	}
	return newTCPTransport(conns), nil
}

// Close stops the listener (already-accepted transports stay open).
func (l *Listener) Close() error { return l.ln.Close() }

// DialTCP connects the board side to a listening simulator, opening the
// three channel connections and performing the hello handshake.
func DialTCP(addr string) (Transport, error) { return DialNet("tcp", addr) }

// DialUDS is DialTCP over a Unix-domain socket path.
func DialUDS(path string) (Transport, error) { return DialNet("unix", path) }

// DialNet connects the board side over an arbitrary stream network
// ("tcp", "unix"), opening the three channel connections and performing
// the hello handshake.
func DialNet(network, addr string) (Transport, error) {
	var conns [numChannels]net.Conn
	for ch := Channel(0); ch < numChannels; ch++ {
		c, err := net.Dial(network, addr)
		if err != nil {
			for i := Channel(0); i < ch; i++ {
				conns[i].Close()
			}
			return nil, err
		}
		if _, err := c.Write([]byte{byte(ch)}); err != nil {
			c.Close()
			return nil, err
		}
		hello := Msg{Type: MTHello, Version: ProtocolVersion}
		if err := hello.Encode(c); err != nil {
			c.Close()
			return nil, err
		}
		conns[ch] = c
	}
	return newTCPTransport(conns), nil
}
