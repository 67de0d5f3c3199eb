package cosim

import (
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
	// AckEvery is the cumulative-ack cadence in delivered frames.
	AckEvery int
	// RetransmitTimeout is the Go-Back-N retransmission timeout: unacked
	// envelopes older than this are re-sent.
	RetransmitTimeout time.Duration
	// HeartbeatInterval, when positive, emits a heartbeat on CLOCK at this
	// period and watches peer traffic for liveness.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is the number of silent intervals after which the peer
	// is declared dead.
	HeartbeatMiss int
	// Redial, when set, re-establishes the underlying transport after a
	// failure (board side: DialTCP; simulator side: Listener.Accept).
	// Unacked envelopes are replayed on the new link. When nil, an inner
	// failure is fatal to the session.
	Redial func() (Transport, error)
	// MaxRedials bounds consecutive failed redial attempts per outage.
	MaxRedials int
	// RedialBackoff is the initial redial backoff; it doubles per failed
	// attempt up to RedialBackoffMax.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
}

// Validate rejects a negative tuning field, naming it. Zero is not an
// error: it selects the default.
func (c SessionConfig) Validate() error {
	fields := [...]struct {
		name     string
		negative bool
		value    any
	}{
		{"AckEvery", c.AckEvery < 0, c.AckEvery},
		{"RetransmitTimeout", c.RetransmitTimeout < 0, c.RetransmitTimeout},
		{"HeartbeatInterval", c.HeartbeatInterval < 0, c.HeartbeatInterval},
		{"HeartbeatMiss", c.HeartbeatMiss < 0, c.HeartbeatMiss},
		{"MaxRedials", c.MaxRedials < 0, c.MaxRedials},
		{"RedialBackoff", c.RedialBackoff < 0, c.RedialBackoff},
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
		AckEvery:          1,
		RetransmitTimeout: 100 * time.Millisecond,
		HeartbeatMiss:     3,
		MaxRedials:        8,
		RedialBackoff:     5 * time.Millisecond,
		RedialBackoffMax:  time.Second,
	}
}

// LinkStats aggregates the resilience-layer counters of one session (and
// the fault-injection counters of a ChaosTransport beneath it, if any).
type LinkStats struct {
	Retransmits      uint64 // envelopes re-sent (RTO, nack, or replay)
	Reconnects       uint64 // successful redials
	HeartbeatsSent   uint64
	HeartbeatsMissed uint64 // silent heartbeat intervals observed
	DupsDropped      uint64 // duplicate envelopes discarded
	CrcDropped       uint64 // envelopes failing the CRC check
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
	// and replays send their own snapshots (see writeControl).
	bodyFree [][]byte
	// resendFrom, when nonzero, is the lowest sequence number a nack
	// asked to have re-sent; replay marks every unacked envelope for
	// re-sending on a new link. Both wait for the control writer.
	resendFrom uint64
	replay     bool
}

type sessionRecvState struct {
	lastDelivered uint64
	sinceAck      int
	ackOwed       uint64    // sequence number a cumulative ack is due for, 0 if none
	nackOwed      uint64    // sequence number a nack is due for, 0 if none
	lastNacked    uint64    // last sequence number a nack asked for
	nackedAt      time.Time // when it was asked for (suppresses nack storms)
}

type failEvent struct {
	gen int
	err error
}

// SessionTransport decorates a Transport with per-channel sequence
// numbers, cumulative acks, Go-Back-N retransmission, duplicate
// suppression, CRC corruption detection, an optional CLOCK-channel
// heartbeat, and optional redial-with-backoff reconnection. Endpoints on
// top of it observe an unbroken FIFO stream per channel even when the
// link beneath drops, duplicates, reorders, or corrupts frames — which
// is what keeps the virtual-tick protocol deterministic across faults.
//
// Send writes through: the envelope reaches the inner transport on the
// caller's goroutine, so a blocking link (or a DelayTransport beneath)
// is charged to the sender. Acks, nacks, heartbeats, retransmits and the
// post-reconnect replay are written by one control-writer goroutine;
// the read loops and the supervisor only record what they owe, so a full
// link can never block them. A live session runs five goroutines: three
// read loops, the supervisor and the control writer.
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

	mu           sync.Mutex
	inner        Transport
	gen          int
	reconnecting bool
	send         [numChannels]sessionSendState
	recvSt       [numChannels]sessionRecvState
	hbOwed       uint64 // heartbeat sequence number due on CLOCK, 0 if none
	injuredBase  uint64 // chaos injuries accumulated from replaced inners

	inbox [numChannels]chan Msg
	wake  chan struct{} // control work is owed (capacity 1)

	done     chan struct{} // terminal failure or close
	failOnce sync.Once
	err      error // the terminal error: written once, before done closes

	failc    chan failEvent
	lastRecv atomic.Int64 // unix nanos of last frame from the peer

	retransmits, reconnects           atomic.Uint64
	hbSent, hbMissed                  atomic.Uint64
	dupsDropped, crcDropped, gapsSeen atomic.Uint64
	aliensDropped                     atomic.Uint64
}

// NewSessionTransport wraps inner in a resilient session. Both peers must
// wrap their side: envelopes are not understood by plain endpoints.
func NewSessionTransport(inner Transport, cfg SessionConfig) *SessionTransport {
	def := DefaultSessionConfig()
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = def.AckEvery
	}
	if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = def.RetransmitTimeout
	}
	if cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = def.HeartbeatMiss
	}
	if cfg.MaxRedials <= 0 {
		cfg.MaxRedials = def.MaxRedials
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = def.RedialBackoff
	}
	if cfg.RedialBackoffMax < cfg.RedialBackoff {
		cfg.RedialBackoffMax = max(def.RedialBackoffMax, cfg.RedialBackoff)
	}
	s := &SessionTransport{
		cfg:   cfg,
		inner: inner,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		failc: make(chan failEvent, 2*int(numChannels)),
	}
	for i := range s.inbox {
		s.inbox[i] = make(chan Msg, tcpInboxDepth)
	}
	s.lastRecv.Store(time.Now().UnixNano()) //cosim:wallclock -- liveness stamp feeds the host-side heartbeat supervisor
	for ch := Channel(0); ch < numChannels; ch++ {
		go s.readLoop(0, inner, ch)
	}
	go s.supervise()
	go s.controlWriter()
	return s
}

// fail ends the session with err. It closes the inner transport, which
// unblocks a Send stuck on a full link and ends the read loops, so no
// session goroutine outlives a terminal failure. Only the first call has
// effect; it returns the inner transport's Close error.
func (s *SessionTransport) fail(err error) (cerr error) {
	s.failOnce.Do(func() {
		s.err = err
		close(s.done)
		s.mu.Lock()
		inner := s.inner
		s.mu.Unlock()
		cerr = inner.Close()
	})
	return cerr
}

// Send implements Transport: it wraps m in a sequenced, CRC-protected
// envelope, buffers it for retransmission, and writes it to the current
// inner link on the caller's goroutine. While the link is down and a
// Redial is configured, Send succeeds without writing — the frame is
// replayed after reconnection. A write error without a Redial fails the
// session, and a terminal failure while Send is blocked on a full link
// makes it return the session error.
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
		body = make([]byte, 0, 64)
	}
	body = m.appendBody(body)
	st.nextSeq++
	env := Msg{Type: MTSessionData, Seq: st.nextSeq, Crc: sessionCRC(st.nextSeq, body), Raw: body}
	st.unacked = append(st.unacked, pendingEnv{env: env, sentAt: time.Now()}) //cosim:wallclock -- RTO clock: retransmission timing is host-side link recovery
	inner, gen := s.inner, s.gen
	down := s.reconnecting || st.replay
	s.mu.Unlock()
	// The payload is copied into the envelope body, so a pooled message
	// (e.g. a batch flush) can be released here — the session is its
	// terminal consumer.
	m.Release()
	if down {
		return nil // the replay on the new link carries it
	}
	if err := inner.Send(ch, env); err != nil {
		return s.writeFailed(gen, err)
	}
	return nil
}

// writeFailed handles an inner write error on link generation gen and
// returns what Send reports: the session error once the session has
// ended, nil when the supervisor will redial and replay.
func (s *SessionTransport) writeFailed(gen int, err error) error {
	select {
	case <-s.done:
		return s.err // the session ended (and closed the link) under the write
	default:
	}
	if s.cfg.Redial == nil {
		s.fail(err)
		return s.err
	}
	s.notifyFail(gen, err)
	return nil
}

func (s *SessionTransport) notifyFail(gen int, err error) {
	select {
	case s.failc <- failEvent{gen: gen, err: err}:
	default:
	}
}

// wakeWriter tells the control writer that control work is owed.
func (s *SessionTransport) wakeWriter() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *SessionTransport) readLoop(gen int, tr Transport, ch Channel) {
	for {
		m, err := tr.Recv(ch)
		if err != nil {
			s.notifyFail(gen, fmt.Errorf("cosim: %v channel: %w", ch, err))
			return
		}
		s.lastRecv.Store(time.Now().UnixNano()) //cosim:wallclock -- liveness stamp feeds the host-side heartbeat supervisor
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
				s.handleAck(ch, m.Seq)
			default:
				s.handleNack(ch, m.Seq)
			}
			m.Release() // control frame: a corrupt one may carry stray payloads
		case MTHeartbeat:
			// Liveness only; lastRecv updated above.
			m.Release()
		default:
			// Anything else is a corrupted frame that happened to decode
			// as a plain message: both peers of a session speak envelopes
			// only, so deliver nothing the CRC has not vouched for.
			m.Release()
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
	if len(env.Raw) == 0 || sessionCRC(env.Seq, env.Raw) != env.Crc {
		env.Release()
		s.crcDropped.Add(1)
		s.maybeNack(ch)
		return true
	}
	s.mu.Lock()
	rs := &s.recvSt[ch]
	switch {
	case env.Seq == rs.lastDelivered+1:
		rs.lastDelivered = env.Seq
		rs.sinceAck++
		ackDue := rs.sinceAck >= s.cfg.AckEvery
		if ackDue {
			rs.sinceAck = 0
		}
		s.mu.Unlock()
		inner, err := decodeBody(env.Raw)
		// decodeBody copied what it needed out of the envelope, so the
		// session — the envelope's terminal consumer — releases it here.
		// Over TCP this recycles one pooled frame body per message.
		env.Release()
		if err != nil {
			s.fail(fmt.Errorf("cosim: undecodable session payload on %v: %w", ch, err))
			return false
		}
		s.deliver(ch, inner)
		if ackDue {
			// Only now, and only up to this envelope: the ack lets the
			// peer recycle the body just read.
			s.mu.Lock()
			rs.ackOwed = max(rs.ackOwed, env.Seq)
			s.mu.Unlock()
			s.wakeWriter()
		}
	case env.Seq <= rs.lastDelivered:
		// Refresh the peer's ack state so it can prune its buffer.
		rs.ackOwed = max(rs.ackOwed, rs.lastDelivered)
		s.mu.Unlock()
		env.Release()
		s.dupsDropped.Add(1)
		s.wakeWriter()
	default:
		s.mu.Unlock()
		env.Release()
		s.gapsSeen.Add(1)
		s.maybeNack(ch)
	}
	return true
}

func (s *SessionTransport) handleAck(ch Channel, upTo uint64) {
	s.mu.Lock()
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
	s.mu.Unlock()
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

func (s *SessionTransport) deliver(ch Channel, m Msg) {
	select {
	case s.inbox[ch] <- m:
	case <-s.done:
	}
}

// controlWriter is the only session goroutine that writes the inner
// transport. Each wake writes, per channel, what the read loops and the
// supervisor owe — one heartbeat, one cumulative ack, one nack — then
// any nack, replay or retransmission-timeout (Go-Back-N) re-sends. Its
// ticker is the retransmission timer.
func (s *SessionTransport) controlWriter() {
	t := time.NewTicker(max(s.cfg.RetransmitTimeout/4, time.Millisecond)) //cosim:wallclock -- RTO scan ticker is host-side link recovery
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-s.wake:
		case <-t.C:
		}
		now := time.Now() //cosim:wallclock -- RTO clock: retransmission timing is host-side link recovery
		// Peek without the write locks: a Send blocked on one channel's
		// full link must not hold up the other channels' acks.
		var due [numChannels]bool
		s.mu.Lock()
		for ch := range due {
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
	return !s.reconnecting && (rs.ackOwed != 0 || rs.nackOwed != 0 || st.replay || st.resendFrom != 0 ||
		(ch == ChanClock && s.hbOwed != 0) ||
		(len(st.unacked) > 0 && now.Sub(st.unacked[0].sentAt) >= s.cfg.RetransmitTimeout))
}

// writeControl writes channel ch's owed control frames and re-sends
// under its write lock.
func (s *SessionTransport) writeControl(ch Channel, now time.Time) {
	s.wmu[ch].Lock()
	defer s.wmu[ch].Unlock()
	s.mu.Lock()
	if s.reconnecting {
		s.mu.Unlock()
		return // owed work waits for the new link
	}
	inner, gen := s.inner, s.gen
	st, rs := &s.send[ch], &s.recvSt[ch]
	var buf [3]Msg
	out := buf[:0]
	if ch == ChanClock && s.hbOwed != 0 {
		out = append(out, controlMsg(MTHeartbeat, s.hbOwed))
		s.hbOwed = 0
	}
	if rs.ackOwed != 0 {
		out = append(out, controlMsg(MTSessionAck, rs.ackOwed))
		rs.ackOwed = 0
	}
	if rs.nackOwed != 0 {
		out = append(out, controlMsg(MTSessionNack, rs.nackOwed))
		rs.nackOwed = 0
	}
	from := st.resendFrom // re-send unacked envelopes from this sequence on
	if st.replay || (len(st.unacked) > 0 && now.Sub(st.unacked[0].sentAt) >= s.cfg.RetransmitTimeout) {
		from = 1
	}
	st.resendFrom, st.replay = 0, false
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
		if err := inner.Send(ch, m); err != nil {
			s.writeFailed(gen, err)
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

// supervise owns failure handling and liveness. Without a Redial the
// first inner failure is terminal; with one it reconnects. With
// heartbeats on, each interval it owes the peer a heartbeat and declares
// the peer dead after HeartbeatMiss silent intervals.
func (s *SessionTransport) supervise() {
	var beat <-chan time.Time
	if iv := s.cfg.HeartbeatInterval; iv > 0 {
		t := time.NewTicker(iv) //cosim:wallclock -- heartbeat ticker is host-side liveness detection
		defer t.Stop()
		beat = t.C
	}
	var beats uint64
	for {
		var err error
		select {
		case <-s.done:
			return
		case ev := <-s.failc:
			s.mu.Lock()
			stale := ev.gen != s.gen
			s.mu.Unlock()
			if stale {
				continue // report from a replaced transport
			}
			err = ev.err
		case <-beat:
			beats++
			s.mu.Lock()
			s.hbOwed = beats
			s.mu.Unlock()
			s.wakeWriter()
			if err = s.peerSilence(); err == nil {
				continue
			}
		}
		if s.cfg.Redial == nil {
			s.fail(err)
			return
		}
		if !s.reconnect() {
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

// reconnect closes the dead link, redials with capped exponential
// backoff, restarts the read loops on the new link and has the control
// writer replay every unacked envelope there. It reports false when the
// session has ended.
func (s *SessionTransport) reconnect() bool {
	s.mu.Lock()
	s.gen++
	gen := s.gen
	s.reconnecting = true
	old := s.inner
	if cs, ok := old.(chaosStatser); ok {
		s.injuredBase += cs.ChaosStats().Injured()
	}
	s.mu.Unlock()
	old.Close()

	backoff := s.cfg.RedialBackoff
	var tr Transport
	for attempts := 1; tr == nil; attempts++ {
		select {
		case <-s.done:
			return false
		default:
		}
		t2, err := s.cfg.Redial()
		if err == nil {
			tr = t2
			break
		}
		if attempts >= s.cfg.MaxRedials {
			s.fail(fmt.Errorf("cosim: redial failed after %d attempts: %w", attempts, err))
			return false
		}
		select {
		case <-s.done:
			return false
		case <-time.After(backoff): //cosim:wallclock -- redial backoff paces host reconnection attempts
		}
		backoff = min(2*backoff, s.cfg.RedialBackoffMax)
	}

	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		tr.Close()
		return false
	default:
	}
	s.inner = tr
	s.reconnecting = false
	for ch := range s.send {
		s.send[ch].replay = true
	}
	s.mu.Unlock()
	s.lastRecv.Store(time.Now().UnixNano()) //cosim:wallclock -- liveness stamp feeds the host-side heartbeat supervisor
	s.reconnects.Add(1)
	for ch := Channel(0); ch < numChannels; ch++ {
		go s.readLoop(gen, tr, ch)
	}
	s.wakeWriter()
	return true
}

// Recv implements Transport.
func (s *SessionTransport) Recv(ch Channel) (Msg, error) { return s.recv(ch, nil) }

func (s *SessionTransport) recvTimeout(ch Channel, d time.Duration) (Msg, error) {
	timer := time.NewTimer(d) //cosim:wallclock -- receive timeout bounds host I/O, not simulated time
	defer timer.Stop()
	return s.recv(ch, timer.C)
}

// recv takes the next delivered message on ch, failing with ErrTimeout
// when timeout fires (a nil timeout never does).
func (s *SessionTransport) recv(ch Channel, timeout <-chan time.Time) (Msg, error) {
	if ch >= numChannels {
		return Msg{}, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	select {
	case m := <-s.inbox[ch]:
		return m, nil
	case <-s.done:
		// Drain already-delivered messages before reporting failure.
		select {
		case m := <-s.inbox[ch]:
			return m, nil
		default:
			return Msg{}, s.err
		}
	case <-timeout:
		return Msg{}, ErrTimeout
	}
}

// TryRecv implements Transport.
func (s *SessionTransport) TryRecv(ch Channel) (Msg, bool, error) {
	if ch >= numChannels {
		return Msg{}, false, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	select {
	case m := <-s.inbox[ch]:
		return m, true, nil
	default:
		select {
		case <-s.done:
			return Msg{}, false, s.err
		default:
			return Msg{}, false, nil
		}
	}
}

// Close implements Transport.
func (s *SessionTransport) Close() error { return s.fail(ErrClosed) }

// LinkStats implements linkStatser: a snapshot of the session's
// resilience counters, including chaos injuries from the layer below.
func (s *SessionTransport) LinkStats() LinkStats {
	ls := LinkStats{
		Retransmits:      s.retransmits.Load(),
		Reconnects:       s.reconnects.Load(),
		HeartbeatsSent:   s.hbSent.Load(),
		HeartbeatsMissed: s.hbMissed.Load(),
		DupsDropped:      s.dupsDropped.Load(),
		CrcDropped:       s.crcDropped.Load(),
		GapsSeen:         s.gapsSeen.Load(),
		AliensDropped:    s.aliensDropped.Load(),
	}
	s.mu.Lock()
	injured := s.injuredBase
	if cs, ok := s.inner.(chaosStatser); ok {
		injured += cs.ChaosStats().Injured()
	}
	s.mu.Unlock()
	ls.FramesInjured = injured
	return ls
}

// Unwrap implements Unwrapper, returning the current inner transport
// (which changes across reconnects).
func (s *SessionTransport) Unwrap() Transport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

var _ Transport = (*SessionTransport)(nil)
var _ recvTimeouter = (*SessionTransport)(nil)
