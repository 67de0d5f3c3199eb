package cosim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPeerDead is returned by session transports when the heartbeat
// watchdog declares the peer unreachable.
var ErrPeerDead = errors.New("cosim: peer heartbeat lost")

// SessionConfig tunes the resilience layer. The zero value of every field
// selects the default from DefaultSessionConfig; heartbeats are opt-in
// (HeartbeatInterval 0 disables them).
type SessionConfig struct {
	// RetransmitTimeout is the Go-Back-N retransmission timeout: unacked
	// envelopes older than this are re-sent.
	RetransmitTimeout time.Duration
	// HeartbeatInterval, when positive, emits a heartbeat on CLOCK at this
	// period and watches peer traffic for liveness.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is the number of silent intervals after which the peer
	// is declared dead.
	HeartbeatMiss int
}

// Validate rejects a negative tuning field, naming it. Zero is not an
// error: it selects the default.
func (c SessionConfig) Validate() error {
	fields := [...]struct {
		name     string
		negative bool
		value    any
	}{
		{"RetransmitTimeout", c.RetransmitTimeout < 0, c.RetransmitTimeout},
		{"HeartbeatInterval", c.HeartbeatInterval < 0, c.HeartbeatInterval},
		{"HeartbeatMiss", c.HeartbeatMiss < 0, c.HeartbeatMiss},
	}
	for _, f := range fields {
		if f.negative {
			return fmt.Errorf("cosim: invalid SessionConfig: %s %v is negative; use 0 for the default", f.name, f.value)
		}
	}
	return nil
}

// DefaultSessionConfig returns the default resilience tuning.
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{
		RetransmitTimeout: 100 * time.Millisecond,
		HeartbeatMiss:     3,
	}
}

// LinkStats aggregates the resilience-layer counters of one session (and
// the fault-injection counters of a ChaosTransport beneath it, if any).
type LinkStats struct {
	Retransmits      uint64 // envelopes re-sent (RTO or nack)
	HeartbeatsSent   uint64
	HeartbeatsMissed uint64 // silent heartbeat intervals observed
	DupsDropped      uint64 // duplicate envelopes discarded
	CrcDropped       uint64 // envelopes failing the CRC check or too short for an ack vector
	GapsSeen         uint64 // out-of-order arrivals (nack triggers)
	AliensDropped    uint64 // non-session frames discarded by the session
	FramesInjured    uint64 // frames tampered with by a chaos layer below
}

// linkStatser is implemented by transports that expose resilience
// counters; endpoint Metrics harvest them after a run.
type linkStatser interface{ LinkStats() LinkStats }

// chaosStatser is implemented by ChaosTransport.
type chaosStatser interface{ ChaosStats() ChaosStats }

// seqCRC is crc32.Update(0, IEEE, seq-as-8-LE-bytes) computed without
// materializing the header slice: the byte array would escape to the heap
// on every frame, and this runs once per message on the hot path. The
// unfolded loop is the table-driven IEEE algorithm crc32.Update uses, so
// the value is bit-identical.
func seqCRC(seq uint64) uint32 {
	c := ^uint32(0)
	for i := 0; i < 64; i += 8 {
		c = crc32.IEEETable[byte(c)^byte(seq>>i)] ^ (c >> 8)
	}
	return ^c
}

// sessionCRC covers the sequence number and the raw body, so corruption
// of either is detected at the session layer.
func sessionCRC(seq uint64, body []byte) uint32 {
	return crc32.Update(seqCRC(seq), crc32.IEEETable, body)
}

// envAckLen is the length of an envelope's ack vector: the sender's
// cumulative ack for each channel, one u64 apiece in channel order, in
// front of the inner body in Raw and covered by the CRC.
const envAckLen = 8 * int(numChannels)

// controlCRC is sessionCRC over the single-byte body {typ}, slice-free
// for the same escape reason as seqCRC.
func controlCRC(seq uint64, typ MsgType) uint32 {
	c := ^seqCRC(seq)
	c = crc32.IEEETable[byte(c)^byte(typ)] ^ (c >> 8)
	return ^c
}

// controlMsg builds an ack/nack/heartbeat frame. Control frames carry a
// CRC binding the sequence number to the frame type, so a bit-flipped
// ack cannot prune undelivered frames (or masquerade as a nack).
func controlMsg(typ MsgType, seq uint64) Msg {
	return Msg{Type: typ, Seq: seq, Crc: controlCRC(seq, typ)}
}

// validControl reports whether a received control frame is intact.
func validControl(m Msg) bool {
	return m.Crc == controlCRC(m.Seq, m.Type)
}

type pendingEnv struct {
	env    Msg
	sentAt time.Time
}

type sessionSendState struct {
	nextSeq uint64
	unacked []pendingEnv
	// bodyFree recycles envelope body buffers (mu-guarded, like unacked).
	// A body is taken at Send, lives in unacked while retransmittable, and
	// returns here when the cumulative ack prunes its envelope. The first
	// transmission may alias the buffer (an in-process peer reads it), but
	// the ack that triggers recycling can only arrive after the peer has
	// finished reading it, so reuse cannot race that reader; retransmits
	// send their own snapshots (see writeControl). The freelist pays for
	// itself: an envelope body is the one buffer every session Send
	// fills, and without it the bytes allocated by 150
	// adaptive-stack-tcp-shaped router.Runs rose from 25.3 to 36.4 MB
	// (+44%).
	bodyFree [][]byte
	// resendFrom, when nonzero, is the lowest sequence number a nack
	// asked to have re-sent; it waits for the control writer.
	resendFrom uint64
}

type sessionRecvState struct {
	lastDelivered uint64    // highest sequence number accepted in order
	delivered     uint64    // highest one decoded and delivered: the most an ack may cover
	advertised    uint64    // highest ack sent, explicit or riding an envelope
	tickDelivered uint64    // delivered as of the control writer's previous tick
	ackOwed       uint64    // sequence number an explicit ack is due for, 0 if none
	nackOwed      uint64    // sequence number a nack is due for, 0 if none
	lastNacked    uint64    // last sequence number a nack asked for
	nackedAt      time.Time // when it was asked for (suppresses nack storms)
}

// SessionTransport decorates a Transport with per-channel sequence
// numbers, cumulative acks, Go-Back-N retransmission, duplicate
// suppression, CRC corruption detection and an optional CLOCK-channel
// heartbeat. Endpoints on top of it observe an unbroken FIFO stream per
// channel even when the link beneath drops, duplicates, reorders, or
// corrupts frames — which is what keeps the virtual-tick protocol
// deterministic across faults. The inner link is fixed for the session's
// life: its first read or write error ends the session, naming the
// channel, and recovery is left to whoever runs the session.
//
// Send writes through: the envelope reaches the inner transport on the
// caller's goroutine, so a blocking link (or a DelayTransport beneath)
// is charged to the sender; it carries this side's acks for all three
// channels, so a message costs one frame. Explicit acks, nacks,
// heartbeats and retransmits are written by one control-writer
// goroutine; the read loops and the heartbeat watchdog only record what
// they owe, so a full link can never block them. A live session runs
// four goroutines — three read loops and the control writer — and a
// fifth, the watchdog, when heartbeats are on.
type SessionTransport struct {
	cfg SessionConfig

	// obsSide is the side label ("hw" / "board") stamped on published
	// metrics, set by the endpoint's Observe walk via setObserveSide.
	obsSide string

	// wmu serializes the writes on each channel of the inner transport.
	// Send holds it across its envelope's write and the control writer
	// across every retransmit, so an envelope is always on the wire
	// before a retransmit can copy it. Lock order: wmu before mu.
	wmu [numChannels]sync.Mutex

	inner Transport // fixed for the session's life

	mu     sync.Mutex
	send   [numChannels]sessionSendState
	recvSt [numChannels]sessionRecvState
	hbOwed uint64 // heartbeat sequence number due on CLOCK, 0 if none

	inbox [numChannels]*msgQueue
	wake  chan struct{} // control work is owed (capacity 1)

	done     chan struct{} // terminal failure or close
	failOnce sync.Once
	err      error // the terminal error: written once, before done closes

	lastRecv atomic.Int64 // unix nanos of last frame from the peer

	retransmits                       atomic.Uint64
	hbSent, hbMissed                  atomic.Uint64
	dupsDropped, crcDropped, gapsSeen atomic.Uint64
	aliensDropped                     atomic.Uint64
}

// NewSessionTransport wraps inner in a resilient session. Both peers must
// wrap their side: envelopes are not understood by plain endpoints.
func NewSessionTransport(inner Transport, cfg SessionConfig) *SessionTransport {
	def := DefaultSessionConfig()
	if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = def.RetransmitTimeout
	}
	if cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = def.HeartbeatMiss
	}
	s := &SessionTransport{
		cfg:   cfg,
		inner: inner,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	for i := range s.inbox {
		s.inbox[i] = newMsgQueue(tcpInboxDepth)
	}
	s.lastRecv.Store(time.Now().UnixNano()) //cosim:wallclock -- liveness stamp feeds the host-side heartbeat watchdog
	for ch := Channel(0); ch < numChannels; ch++ {
		go s.readLoop(ch)
	}
	go s.controlWriter()
	if cfg.HeartbeatInterval > 0 {
		go s.watchdog()
	}
	return s
}

// fail ends the session with err. It closes the inboxes and the inner
// transport, which unblocks a Send stuck on a full link and ends the
// read loops, so no session goroutine outlives a terminal failure. Only
// the first call has effect; it returns the inner transport's Close
// error.
func (s *SessionTransport) fail(err error) (cerr error) {
	s.failOnce.Do(func() {
		s.err = err
		close(s.done)
		for _, q := range s.inbox {
			q.close(err)
		}
		cerr = s.inner.Close()
	})
	return cerr
}

// linkFailed ends the session on an inner read or write error on ch and
// returns the session error: the first failure's, which may predate err
// when the session ended (and closed the link) under the call.
func (s *SessionTransport) linkFailed(ch Channel, err error) error {
	s.fail(fmt.Errorf("cosim: %v channel: %w", ch, err))
	return s.err
}

// Send implements Transport: it wraps m in a sequenced, CRC-protected
// envelope, buffers it for retransmission, and writes it to the inner
// link on the caller's goroutine. A write error fails the session, and a
// terminal failure while Send is blocked on a full link makes it return
// the session error.
func (s *SessionTransport) Send(ch Channel, m Msg) error {
	if ch >= numChannels {
		return fmt.Errorf("cosim: invalid channel %d", ch)
	}
	select {
	case <-s.done:
		return s.err
	default:
	}
	s.wmu[ch].Lock()
	defer s.wmu[ch].Unlock()
	s.mu.Lock()
	st := &s.send[ch]
	var body []byte
	if n := len(st.bodyFree); n > 0 {
		body = st.bodyFree[n-1][:0]
		st.bodyFree[n-1] = nil
		st.bodyFree = st.bodyFree[:n-1]
	} else {
		// Miss (cold start, or a sender outrunning the ack pipeline):
		// pre-size for a typical envelope so appendBody pays one
		// allocation instead of a growth cascade.
		body = make([]byte, 0, envAckLen+64)
	}
	for c := range s.recvSt {
		rs := &s.recvSt[c]
		rs.advertised = rs.delivered
		body = binary.LittleEndian.AppendUint64(body, rs.delivered)
	}
	body = m.appendBody(body)
	st.nextSeq++
	env := Msg{Type: MTSessionData, Seq: st.nextSeq, Crc: sessionCRC(st.nextSeq, body), Raw: body}
	st.unacked = append(st.unacked, pendingEnv{env: env, sentAt: time.Now()}) //cosim:wallclock -- RTO clock: retransmission timing is host-side link recovery
	s.mu.Unlock()
	if err := s.inner.Send(ch, env); err != nil {
		return s.linkFailed(ch, err)
	}
	return nil
}

// wakeWriter tells the control writer that control work is owed.
func (s *SessionTransport) wakeWriter() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *SessionTransport) readLoop(ch Channel) {
	for {
		m, err := s.inner.Recv(ch)
		if err != nil {
			s.linkFailed(ch, err)
			return
		}
		s.lastRecv.Store(time.Now().UnixNano()) //cosim:wallclock -- liveness stamp feeds the host-side heartbeat watchdog
		switch m.Type {
		case MTSessionData:
			if !s.handleData(ch, m) {
				return
			}
		case MTSessionAck, MTSessionNack:
			switch {
			case !validControl(m):
				s.crcDropped.Add(1) // loss is safe: the RTO re-sends
			case m.Type == MTSessionAck:
				s.mu.Lock()
				s.handleAck(ch, m.Seq)
				s.mu.Unlock()
			default:
				s.handleNack(ch, m.Seq)
			}
		case MTHeartbeat:
			// Liveness only; lastRecv updated above.
		default:
			// Anything else is a corrupted frame that happened to decode
			// as a plain message: both peers of a session speak envelopes
			// only, so deliver nothing the CRC has not vouched for.
			s.aliensDropped.Add(1)
		}
	}
}

// maybeNack requests retransmission from the next undelivered sequence
// number, suppressing repeats while one is already outstanding: a burst
// of out-of-order arrivals must not snowball into a storm of full-window
// resends.
func (s *SessionTransport) maybeNack(ch Channel) {
	s.mu.Lock()
	rs := &s.recvSt[ch]
	next := rs.lastDelivered + 1
	now := time.Now() //cosim:wallclock -- nack-storm suppression runs on the host clock
	if rs.lastNacked == next && now.Sub(rs.nackedAt) < s.cfg.RetransmitTimeout {
		s.mu.Unlock()
		return
	}
	rs.lastNacked = next
	rs.nackedAt = now
	rs.nackOwed = next
	s.mu.Unlock()
	s.wakeWriter()
}

// handleData processes one envelope; it reports false when the session
// has failed terminally.
func (s *SessionTransport) handleData(ch Channel, env Msg) bool {
	if len(env.Raw) <= envAckLen || sessionCRC(env.Seq, env.Raw) != env.Crc {
		s.crcDropped.Add(1)
		s.maybeNack(ch)
		return true
	}
	s.mu.Lock()
	// The acks are cumulative: a duplicate's or a gap's stale vector
	// prunes nothing new.
	for c := range s.send {
		s.handleAck(Channel(c), binary.LittleEndian.Uint64(env.Raw[8*c:]))
	}
	rs := &s.recvSt[ch]
	switch {
	case env.Seq == rs.lastDelivered+1:
		rs.lastDelivered = env.Seq
		s.mu.Unlock()
		inner, err := decodeBody(env.Raw[envAckLen:])
		if err != nil {
			s.fail(fmt.Errorf("cosim: undecodable session payload on %v: %w", ch, err))
			return false
		}
		// Only now may an ack cover this envelope, as it lets the peer
		// recycle the body just read; and before the delivery, so the
		// first envelope the user sends after receiving it carries it.
		s.mu.Lock()
		rs.delivered = max(rs.delivered, env.Seq)
		s.mu.Unlock()
		_ = s.inbox[ch].push(inner) // fails only when the session ended under the push
	case env.Seq <= rs.lastDelivered:
		// Refresh the peer's ack state so it can prune its buffer.
		rs.ackOwed = max(rs.ackOwed, rs.delivered)
		s.mu.Unlock()
		s.dupsDropped.Add(1)
		s.wakeWriter()
	default:
		s.mu.Unlock()
		s.gapsSeen.Add(1)
		s.maybeNack(ch)
	}
	return true
}

// handleAck prunes channel ch's envelopes up to upTo (mu held).
func (s *SessionTransport) handleAck(ch Channel, upTo uint64) {
	st := &s.send[ch]
	i := 0
	for i < len(st.unacked) && st.unacked[i].env.Seq <= upTo {
		// Acked: the peer has read the body, so the buffer can be reused
		// by a future Send.
		st.bodyFree = append(st.bodyFree, st.unacked[i].env.Raw)
		i++
	}
	if i > 0 {
		tail := copy(st.unacked, st.unacked[i:])
		for j := tail; j < len(st.unacked); j++ {
			st.unacked[j] = pendingEnv{}
		}
		st.unacked = st.unacked[:tail]
	}
}

func (s *SessionTransport) handleNack(ch Channel, from uint64) {
	s.mu.Lock()
	st := &s.send[ch]
	from = max(from, 1) // sequence numbers start at 1
	if st.resendFrom == 0 || from < st.resendFrom {
		st.resendFrom = from
	}
	s.mu.Unlock()
	s.wakeWriter()
}

// controlWriter is the only session goroutine that writes the inner
// transport. Each wake writes, per channel, what the read loops and the
// watchdog owe — one heartbeat, one cumulative ack, one nack — then any
// nack or retransmission-timeout (Go-Back-N) re-sends. Its ticker is the
// retransmission timer, and an ack no envelope carried since the
// previous tick goes out explicitly: an ack waits at most two ticks,
// half the timeout, even when this side has nothing to send.
func (s *SessionTransport) controlWriter() {
	t := time.NewTicker(max(s.cfg.RetransmitTimeout/4, time.Millisecond)) //cosim:wallclock -- RTO scan ticker is host-side link recovery
	defer t.Stop()
	for {
		tick := false
		select {
		case <-s.done:
			return
		case <-s.wake:
		case <-t.C:
			tick = true
		}
		now := time.Now() //cosim:wallclock -- RTO clock: retransmission timing is host-side link recovery
		// Peek without the write locks: a Send blocked on one channel's
		// full link must not hold up the other channels' acks.
		var due [numChannels]bool
		s.mu.Lock()
		for ch := range due {
			if tick {
				rs := &s.recvSt[ch]
				if rs.tickDelivered > rs.advertised {
					rs.ackOwed = max(rs.ackOwed, rs.delivered)
				}
				rs.tickDelivered = rs.delivered
			}
			due[ch] = s.owes(Channel(ch), now)
		}
		s.mu.Unlock()
		for ch, d := range due {
			if d {
				s.writeControl(Channel(ch), now)
			}
		}
	}
}

// owes reports whether channel ch has control work due (mu held).
func (s *SessionTransport) owes(ch Channel, now time.Time) bool {
	st, rs := &s.send[ch], &s.recvSt[ch]
	return rs.ackOwed != 0 || rs.nackOwed != 0 || st.resendFrom != 0 ||
		(ch == ChanClock && s.hbOwed != 0) ||
		(len(st.unacked) > 0 && now.Sub(st.unacked[0].sentAt) >= s.cfg.RetransmitTimeout)
}

// writeControl writes channel ch's owed control frames and re-sends
// under its write lock.
func (s *SessionTransport) writeControl(ch Channel, now time.Time) {
	s.wmu[ch].Lock()
	defer s.wmu[ch].Unlock()
	s.mu.Lock()
	st, rs := &s.send[ch], &s.recvSt[ch]
	var buf [3]Msg
	out := buf[:0]
	if ch == ChanClock && s.hbOwed != 0 {
		out = append(out, controlMsg(MTHeartbeat, s.hbOwed))
		s.hbOwed = 0
	}
	if rs.ackOwed != 0 {
		out = append(out, controlMsg(MTSessionAck, rs.ackOwed))
		rs.advertised = max(rs.advertised, rs.ackOwed)
		rs.ackOwed = 0
	}
	if rs.nackOwed != 0 {
		out = append(out, controlMsg(MTSessionNack, rs.nackOwed))
		rs.nackOwed = 0
	}
	from := st.resendFrom // re-send unacked envelopes from this sequence on
	if len(st.unacked) > 0 && now.Sub(st.unacked[0].sentAt) >= s.cfg.RetransmitTimeout {
		from = 1
	}
	st.resendFrom = 0
	for i := 0; from != 0 && i < len(st.unacked); i++ {
		if st.unacked[i].env.Seq >= from {
			st.unacked[i].sentAt = now
			env := st.unacked[i].env
			// Send a snapshot: an in-process peer reads the body after
			// the write returns, and an ack racing the original may
			// recycle the original's buffer meanwhile. Re-sends are the
			// fault path, so the copy is cheap relative to what it heals.
			env.Raw = append([]byte(nil), env.Raw...)
			out = append(out, env)
		}
	}
	s.mu.Unlock()
	for _, m := range out {
		if err := s.inner.Send(ch, m); err != nil {
			s.linkFailed(ch, err)
			return
		}
		switch m.Type {
		case MTHeartbeat:
			s.hbSent.Add(1)
		case MTSessionData:
			s.retransmits.Add(1)
		}
	}
}

// watchdog runs only with heartbeats on: each interval it owes the peer
// a heartbeat and declares the peer dead after HeartbeatMiss silent
// intervals. It is not the control writer, so a writer blocked on a full
// link cannot stop it from declaring a silent peer dead.
func (s *SessionTransport) watchdog() {
	t := time.NewTicker(s.cfg.HeartbeatInterval) //cosim:wallclock -- heartbeat ticker is host-side liveness detection
	defer t.Stop()
	var beats uint64
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		beats++
		s.mu.Lock()
		s.hbOwed = beats
		s.mu.Unlock()
		s.wakeWriter()
		if err := s.peerSilence(); err != nil {
			s.fail(err)
			return
		}
	}
}

// peerSilence counts a missed heartbeat interval when the peer has been
// silent for one, and returns ErrPeerDead after HeartbeatMiss of them.
func (s *SessionTransport) peerSilence() error {
	iv := s.cfg.HeartbeatInterval
	silent := time.Since(time.Unix(0, s.lastRecv.Load())) //cosim:wallclock -- heartbeat silence window is host-side liveness detection
	if silent <= iv {
		return nil
	}
	s.hbMissed.Add(1)
	if silent <= time.Duration(s.cfg.HeartbeatMiss)*iv {
		return nil
	}
	return ErrPeerDead
}

// Recv implements Transport.
func (s *SessionTransport) Recv(ch Channel) (Msg, error) { return s.recv(ch, nil) }

func (s *SessionTransport) recvTimeout(ch Channel, d time.Duration) (Msg, error) {
	timer := time.NewTimer(d) //cosim:wallclock -- receive timeout bounds host I/O, not simulated time
	defer timer.Stop()
	return s.recv(ch, timer.C)
}

// recv takes the next delivered message on ch, failing with ErrTimeout
// when timeout fires (a nil timeout never does). After a terminal
// failure it drains already-delivered messages before reporting it.
func (s *SessionTransport) recv(ch Channel, timeout <-chan time.Time) (Msg, error) {
	if ch >= numChannels {
		return Msg{}, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	return s.inbox[ch].pop(timeout)
}

// TryRecv implements Transport.
func (s *SessionTransport) TryRecv(ch Channel) (Msg, bool, error) {
	if ch >= numChannels {
		return Msg{}, false, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	return s.inbox[ch].tryPop()
}

// Close implements Transport.
func (s *SessionTransport) Close() error { return s.fail(ErrClosed) }

// LinkStats implements linkStatser: a snapshot of the session's
// resilience counters, including chaos injuries from the layer below.
func (s *SessionTransport) LinkStats() LinkStats {
	ls := LinkStats{
		Retransmits:      s.retransmits.Load(),
		HeartbeatsSent:   s.hbSent.Load(),
		HeartbeatsMissed: s.hbMissed.Load(),
		DupsDropped:      s.dupsDropped.Load(),
		CrcDropped:       s.crcDropped.Load(),
		GapsSeen:         s.gapsSeen.Load(),
		AliensDropped:    s.aliensDropped.Load(),
	}
	if cs, ok := s.inner.(chaosStatser); ok {
		ls.FramesInjured = cs.ChaosStats().Injured()
	}
	return ls
}

// Unwrap implements Unwrapper, returning the inner transport.
func (s *SessionTransport) Unwrap() Transport { return s.inner }

var _ Transport = (*SessionTransport)(nil)
var _ recvTimeouter = (*SessionTransport)(nil)
