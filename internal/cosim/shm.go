package cosim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// The shared-memory transport is the zero-copy local path: both sides of
// a link map the same file and exchange frames through two lock-free
// single-producer/single-consumer ring buffers, one per direction. A
// steady-state Send encodes the message directly into the mapped region
// (the frame bytes are written exactly once, in place — no intermediate
// encode buffer, no write syscall) and a steady-state Recv decodes
// directly out of it (no read syscall, no frame copy); payloads are
// copied into slices the received message owns, exactly as on every
// other transport. Waiting is a futex-free busy/park hybrid: a bounded
// hot spin, a few scheduler yields, then short sleeps, so a rendezvous
// that arrives within microseconds never pays a syscall. See
// docs/TRANSPORTS.md.

// ErrShmUnsupported is returned by the shared-memory constructors on
// platforms without mmap support (see shm_map_stub.go). Callers selecting
// a transport at runtime should probe with ShmSupported and fall back to
// UDS or TCP.
var ErrShmUnsupported = errors.New("cosim: shared-memory transport unsupported on this platform (no mmap)")

// ShmSupported reports whether the shared-memory transport can be
// constructed on this platform.
func ShmSupported() bool { return shmMapSupported }

// Shared-memory segment layout. One file carries both directions:
//
//	offset 0    magic (u64), layout version (u32), ring capacity (u32)
//	offset 64   ring A header: head / tail / closed, one cache line each
//	offset 256  ring B header
//	offset 512  ring A data (capacity bytes)   creator → opener
//	offset 512+C ring B data (capacity bytes)  opener → creator
//
// Each ring is a power-of-two byte buffer with free-running head (writer)
// and tail (reader) indices living in the segment itself, so two
// processes mapping the file share them coherently. Records are
// length-prefixed frames, 4-byte aligned:
//
//	u32 body length | u8 channel | body (type byte + payload)
//
// A record never straddles the wrap point: when the contiguous space at
// the end of the buffer cannot hold the next record, the writer stamps a
// wrap marker (length 0xFFFFFFFF) and continues at offset 0; the reader
// skips the dead space when it meets the marker.
const (
	shmMagic      uint64 = 0x434F53494D53484D // "COSIMSHM"
	shmLayoutVer  uint32 = 1
	shmHdrAOff           = 64
	shmHdrBOff           = 256
	shmDataOff           = 512
	shmWrapMarker uint32 = 0xFFFFFFFF

	// ShmMinRingBytes / ShmDefaultRingBytes bound the per-direction ring
	// capacity. The minimum leaves room for several maximum-size frames;
	// the default comfortably holds a whole quantum's traffic.
	ShmMinRingBytes     = 1 << 16
	ShmDefaultRingBytes = 1 << 20
)

// shmWait tuning: the busy/park hybrid. A blocked side first re-polls
// the indices in a short tight loop (nanoseconds, catches an in-flight
// peer), then yields the processor many times — on a loaded or
// single-core host the peer only makes progress when we yield, so the
// yield budget, not the hot spin, must cover a rendezvous turnaround —
// and finally parks in short sleeps so an idle link does not burn a
// core indefinitely.
const (
	shmHotSpins   = 8
	shmYieldSpins = shmHotSpins + 4096
	shmParkSleep  = 50 * time.Microsecond
)

// errShmFull / errShmEmpty are the non-blocking ring verbs' backpressure
// signals; the transport's wait loops (and the fuzz harness) translate
// them into the busy/park policy.
var (
	errShmFull  = errors.New("cosim: shm ring full")
	errShmEmpty = errors.New("cosim: shm ring empty")
)

// shmRingHdr is the shared control block of one ring direction. Each
// field sits on its own cache line so the two sides' atomics do not
// false-share; the struct lives inside the mapped segment.
type shmRingHdr struct {
	head atomic.Uint64 // next byte the writer will fill (free-running)
	_    [56]byte
	tail atomic.Uint64 // next byte the reader will consume (free-running)
	_    [56]byte
	// closed is set by either side's Close; writers fail fast and the
	// reader drains what remains, then reports ErrClosed.
	closed atomic.Uint32
	_      [60]byte
}

// shmRing is one direction's view over the mapped segment.
type shmRing struct {
	hdr  *shmRingHdr
	data []byte
	size uint64 // len(data), power of two
	mask uint64
	// raceSync shows -race builds each publication, since the detector
	// does not track atomics in mmap'd memory; both ends of an
	// in-process pair share the ring view.
	raceSync atomic.Uint64
}

// shmSegmentSize returns the whole segment's byte size for one ring
// capacity.
func shmSegmentSize(ringBytes int) int { return shmDataOff + 2*ringBytes }

// shmRingAt builds the ring view for the header at hdrOff and the data
// region [dataOff, dataOff+ringBytes).
func shmRingAt(seg []byte, hdrOff, dataOff, ringBytes int) *shmRing {
	return &shmRing{
		hdr:  (*shmRingHdr)(unsafe.Pointer(&seg[hdrOff])),
		data: seg[dataOff : dataOff+ringBytes],
		size: uint64(ringBytes),
		mask: uint64(ringBytes) - 1,
	}
}

// shmRecordBytes is the aligned on-ring footprint of a body of l bytes.
func shmRecordBytes(l int) uint64 { return (uint64(l) + 5 + 3) &^ 3 }

// tryPush appends one record without blocking. It returns errShmFull
// when the reader has not yet freed enough space, the frame's wire byte
// count (body + length prefix, measured before publication — the moment
// the head advances the peer may consume, ack, and recycle the
// message's session envelope body, so nothing may read m afterwards),
// and whether the record wrapped past the end of the buffer. The message
// is encoded directly into the mapped region.
func (r *shmRing) tryPush(ch Channel, m *Msg) (n int, wrapped bool, err error) {
	bodyLen := m.WireSize() - 4
	need := shmRecordBytes(bodyLen)
	if need > r.size/2 {
		return 0, false, fmt.Errorf("cosim: %d-byte frame exceeds shm ring capacity %d; raise ShmConfig.RingBytes", bodyLen, r.size)
	}
	h := r.hdr.head.Load()
	t := r.hdr.tail.Load()
	free := r.size - (h - t)
	off := h & r.mask
	contig := r.size - off
	if contig < need {
		// The record would straddle the wrap point: burn the tail of the
		// buffer with a marker and start over at offset 0. Alignment keeps
		// contig ≥ 4, so the marker always fits.
		if free < contig+need {
			return 0, false, errShmFull
		}
		binary.LittleEndian.PutUint32(r.data[off:], shmWrapMarker)
		r.writeRecord(0, ch, m, bodyLen)
		if raceEnabled {
			r.raceSync.Add(1)
		}
		r.hdr.head.Store(h + contig + need)
		return bodyLen + 4, true, nil
	}
	if free < need {
		return 0, false, errShmFull
	}
	r.writeRecord(off, ch, m, bodyLen)
	if raceEnabled {
		r.raceSync.Add(1)
	}
	r.hdr.head.Store(h + need)
	return bodyLen + 4, false, nil
}

// writeRecord stamps the length prefix and channel byte, then encodes the
// body in place. appendBody appends exactly WireSize()-4 bytes, so the
// three-index slice can never grow past its record.
func (r *shmRing) writeRecord(off uint64, ch Channel, m *Msg, bodyLen int) {
	binary.LittleEndian.PutUint32(r.data[off:], uint32(bodyLen))
	r.data[off+4] = byte(ch)
	o := int(off) + 5
	dst := r.data[o : o : o+bodyLen]
	if got := m.appendBody(dst); len(got) != bodyLen {
		panic(fmt.Sprintf("cosim: shm encode wrote %d bytes for a %d-byte body", len(got), bodyLen))
	}
}

// tryPop returns the next record's channel and body without blocking
// (errShmEmpty otherwise). The body slice points into the mapped region
// and is valid only until the caller advances the tail to the returned
// index — decode first, then store newTail. A torn or corrupt length
// prefix is reported as a terminal error, never a hang or a panic.
func (r *shmRing) tryPop() (ch Channel, body []byte, newTail uint64, err error) {
	for {
		t := r.hdr.tail.Load()
		h := r.hdr.head.Load()
		if t == h {
			return 0, nil, 0, errShmEmpty
		}
		if raceEnabled {
			r.raceSync.Load()
		}
		off := t & r.mask
		l := binary.LittleEndian.Uint32(r.data[off:])
		if l == shmWrapMarker {
			if off == 0 {
				// A writer only stamps a marker when the record would not
				// fit before the wrap point, which can never happen at
				// offset 0 — this is corruption, and skipping it would
				// loop forever.
				return 0, nil, 0, errors.New("cosim: shm ring corrupt: wrap marker at offset 0")
			}
			// Dead space up to the wrap point; skip it and retry.
			r.hdr.tail.Store(t + (r.size - off))
			continue
		}
		rec := shmRecordBytes(int(l))
		if l == 0 || int(l) > maxFrameBody || off+rec > r.size || h-t < rec {
			return 0, nil, 0, fmt.Errorf("cosim: shm ring corrupt: implausible record length %d at offset %d", l, off)
		}
		ch = Channel(r.data[off+4])
		o := int(off) + 5
		return ch, r.data[o : o+int(l)], t + rec, nil
	}
}

// close marks the ring down; both sides observe the flag.
func (r *shmRing) close() { r.hdr.closed.Store(1) }

func (r *shmRing) isClosed() bool { return r.hdr.closed.Load() != 0 }

// ShmConfig tunes a shared-memory link. The zero value is usable.
type ShmConfig struct {
	// RingBytes is the per-direction ring capacity in bytes (rounded up
	// to a power of two, minimum ShmMinRingBytes; default
	// ShmDefaultRingBytes). A frame larger than half the ring is
	// rejected at Send.
	RingBytes int
	// InboxDepth bounds each channel's queue of decoded messages
	// (default 4096, like the TCP transport). Queue storage grows with
	// use up to that bound.
	InboxDepth int
}

func (c ShmConfig) withDefaults() ShmConfig {
	if c.RingBytes <= 0 {
		c.RingBytes = ShmDefaultRingBytes
	}
	if c.RingBytes < ShmMinRingBytes {
		c.RingBytes = ShmMinRingBytes
	}
	// Round up to a power of two so index masking works.
	n := 1
	for n < c.RingBytes {
		n <<= 1
	}
	c.RingBytes = n
	if c.InboxDepth <= 0 {
		c.InboxDepth = tcpInboxDepth
	}
	return c
}

// ShmTransport is the Transport over one side of a shared-memory
// segment: a reader goroutine pumps the inbound ring, which interleaves
// all three channels, into one bounded queue per channel (so a receive
// on one channel never waits behind another's records), and
// Send encodes straight into the outbound ring. Like the TCP
// transport, it copies payloads on both sides: Send into the ring, Recv
// out of it into slices the caller owns.
type ShmTransport struct {
	tx, rx *shmRing
	wmu    sync.Mutex // serializes writers (session acks/heartbeats ride alongside endpoint sends)
	inbox  [numChannels]*msgQueue

	done     chan struct{} // local close signal: unblocks reader and Recv
	once     sync.Once
	readerWG sync.WaitGroup
	closeErr error

	// unmap tears the segment mapping down once every local user of it
	// has closed (the in-process pair shares one mapping).
	unmap func() error

	// Hot-path counters, published by Observe.
	framesSent atomic.Uint64
	framesRecv atomic.Uint64
	bytesSent  atomic.Uint64
	ringWraps  atomic.Uint64
	sendParks  atomic.Uint64
	recvParks  atomic.Uint64

	side string // observability label, set by the endpoint's Observe walk
}

// newShmTransport wires one side over an already-mapped segment.
func newShmTransport(tx, rx *shmRing, inboxDepth int, unmap func() error) *ShmTransport {
	t := &ShmTransport{tx: tx, rx: rx, done: make(chan struct{}), unmap: unmap}
	for i := range t.inbox {
		t.inbox[i] = newMsgQueue(inboxDepth)
	}
	t.readerWG.Add(1)
	go t.readLoop()
	return t
}

// initShmSegment stamps the layout header of a fresh (zeroed) segment.
func initShmSegment(seg []byte, ringBytes int) {
	le := binary.LittleEndian
	le.PutUint64(seg[0:], shmMagic)
	le.PutUint32(seg[8:], shmLayoutVer)
	le.PutUint32(seg[12:], uint32(ringBytes))
}

// checkShmSegment validates a mapped segment's header and returns the
// ring capacity.
func checkShmSegment(seg []byte) (int, error) {
	le := binary.LittleEndian
	if len(seg) < shmDataOff {
		return 0, fmt.Errorf("cosim: shm segment truncated (%d bytes)", len(seg))
	}
	if m := le.Uint64(seg[0:]); m != shmMagic {
		return 0, fmt.Errorf("cosim: shm segment has bad magic %#x (not a cosim shm link, or the creator has not initialized it yet)", m)
	}
	if v := le.Uint32(seg[8:]); v != shmLayoutVer {
		return 0, fmt.Errorf("cosim: shm layout version mismatch: segment %d, this binary %d", v, shmLayoutVer)
	}
	ringBytes := int(le.Uint32(seg[12:]))
	if ringBytes < ShmMinRingBytes || ringBytes&(ringBytes-1) != 0 || len(seg) < shmSegmentSize(ringBytes) {
		return 0, fmt.Errorf("cosim: shm segment declares implausible ring capacity %d for %d mapped bytes", ringBytes, len(seg))
	}
	return ringBytes, nil
}

// segmentRings builds the two directional ring views of a mapped segment.
func segmentRings(seg []byte, ringBytes int) (a, b *shmRing) {
	a = shmRingAt(seg, shmHdrAOff, shmDataOff, ringBytes)
	b = shmRingAt(seg, shmHdrBOff, shmDataOff+ringBytes, ringBytes)
	return a, b
}

// NewShmPair creates a connected in-process pair of shared-memory
// transports over a fresh anonymous temp file (unlinked immediately, so
// nothing lingers on disk); hw is handed to the hardware-simulator
// endpoint and board to the board endpoint. This is the fast local path
// router.Run uses for TransportShm. Returns ErrShmUnsupported where mmap
// is unavailable.
func NewShmPair(cfg ShmConfig) (hw, board Transport, err error) {
	cfg = cfg.withDefaults()
	if !shmMapSupported {
		return nil, nil, ErrShmUnsupported
	}
	f, err := os.CreateTemp("", "cosim-shm-*")
	if err != nil {
		return nil, nil, fmt.Errorf("cosim: shm backing file: %w", err)
	}
	// The mapping keeps the pages alive; the name can go right away.
	defer os.Remove(f.Name())
	defer f.Close()
	size := shmSegmentSize(cfg.RingBytes)
	if err := f.Truncate(int64(size)); err != nil {
		return nil, nil, fmt.Errorf("cosim: shm backing file: %w", err)
	}
	seg, unmap, err := shmMapFile(f, size)
	if err != nil {
		return nil, nil, fmt.Errorf("cosim: shm map: %w", err)
	}
	initShmSegment(seg, cfg.RingBytes)
	a, b := segmentRings(seg, cfg.RingBytes)
	// Both sides share one mapping; the second Close unmaps it.
	var users atomic.Int32
	users.Store(2)
	release := func() error {
		if users.Add(-1) == 0 {
			return unmap()
		}
		return nil
	}
	hw = newShmTransport(a, b, cfg.InboxDepth, release)
	board = newShmTransport(b, a, cfg.InboxDepth, release)
	return hw, board, nil
}

// CreateShm creates and maps the shared-memory link file at path and
// returns the creator side of the transport (its sends travel ring A).
// The peer process attaches with OpenShm once CreateShm has returned —
// the header is stamped before this function returns, so an opener never
// observes a half-initialized segment. The caller owns the file's
// lifetime; unlinking it after both sides attached is safe (mappings
// survive the unlink).
func CreateShm(path string, cfg ShmConfig) (Transport, error) {
	cfg = cfg.withDefaults()
	if !shmMapSupported {
		return nil, ErrShmUnsupported
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("cosim: shm create: %w", err)
	}
	defer f.Close()
	size := shmSegmentSize(cfg.RingBytes)
	if err := f.Truncate(int64(size)); err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("cosim: shm create: %w", err)
	}
	seg, unmap, err := shmMapFile(f, size)
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("cosim: shm map: %w", err)
	}
	initShmSegment(seg, cfg.RingBytes)
	a, b := segmentRings(seg, cfg.RingBytes)
	return newShmTransport(a, b, cfg.InboxDepth, unmap), nil
}

// OpenShm maps an existing shared-memory link file created by CreateShm
// and returns the opener side of the transport (its sends travel ring
// B). The segment's magic, layout version, and ring capacity are
// validated before any frame is exchanged.
func OpenShm(path string) (Transport, error) {
	if !shmMapSupported {
		return nil, ErrShmUnsupported
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("cosim: shm open: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("cosim: shm open: %w", err)
	}
	seg, unmap, err := shmMapFile(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("cosim: shm map: %w", err)
	}
	ringBytes, err := checkShmSegment(seg)
	if err != nil {
		unmap()
		return nil, err
	}
	a, b := segmentRings(seg, ringBytes)
	return newShmTransport(b, a, ShmConfig{}.withDefaults().InboxDepth, unmap), nil
}

// localDone reports whether this side's Close has begun.
func (t *ShmTransport) localDone() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Send implements Transport: the message is framed directly into the
// outbound ring.
func (t *ShmTransport) Send(ch Channel, m Msg) error {
	if ch >= numChannels {
		return fmt.Errorf("cosim: invalid channel %d", ch)
	}
	t.wmu.Lock()
	err := t.sendLocked(ch, &m)
	t.wmu.Unlock()
	return err
}

func (t *ShmTransport) sendLocked(ch Channel, m *Msg) error {
	spins := 0
	for {
		// localDone first: once this side has closed, the ring may be
		// unmapped and must not be read.
		if t.localDone() || t.tx.isClosed() {
			return ErrClosed
		}
		n, wrapped, err := t.tx.tryPush(ch, m)
		if err == nil {
			if wrapped {
				t.ringWraps.Add(1)
			}
			t.framesSent.Add(1)
			// The byte count comes from tryPush, measured before the record
			// was published: once the head advances, the peer may consume,
			// ack, and recycle this message's envelope body at any instant, so
			// no send-side code may touch m's payloads after a successful
			// push.
			t.bytesSent.Add(uint64(n))
			return nil
		}
		if !errors.Is(err, errShmFull) {
			return err
		}
		// Ring full: the reader is behind. Busy/park hybrid.
		spins++
		switch {
		case spins < shmHotSpins:
		case spins < shmYieldSpins:
			runtime.Gosched()
		default:
			t.sendParks.Add(1)
			time.Sleep(shmParkSleep) //cosim:wallclock -- host-side backpressure park between ring-full polls
			spins = shmHotSpins      // keep yielding/parking, skip re-spinning hot
		}
	}
}

// readLoop is the single consumer of the inbound ring: it decodes each
// record in place and dispatches the message to its channel inbox. It
// exits — closing every inbox — when the link closes (either side) or a
// corrupt record poisons the ring.
func (t *ShmTransport) readLoop() {
	defer t.readerWG.Done()
	t.closeInboxes(t.pump())
}

// pump moves records from the ring into the inboxes until the link
// closes (nil) or a corrupt record poisons the ring (its error).
func (t *ShmTransport) pump() error {
	spins := 0
	for {
		ch, body, newTail, err := t.rx.tryPop()
		if err != nil {
			if !errors.Is(err, errShmEmpty) {
				return err
			}
			if t.localDone() {
				return nil
			}
			if t.rx.isClosed() {
				// Peer closed: one final drain pass so a shutdown race
				// cannot lose the last ack, then report closure.
				if _, _, _, err := t.rx.tryPop(); errors.Is(err, errShmEmpty) {
					return nil
				}
				continue
			}
			spins++
			switch {
			case spins < shmHotSpins:
			case spins < shmYieldSpins:
				runtime.Gosched()
			default:
				t.recvParks.Add(1)
				time.Sleep(shmParkSleep) //cosim:wallclock -- host-side park between empty-ring polls
				spins = shmHotSpins
			}
			continue
		}
		spins = 0
		m, derr := decodeBody(body)
		// decodeBody copied the payloads out of the ring; its space can
		// be recycled now.
		t.rx.hdr.tail.Store(newTail)
		if derr != nil {
			return fmt.Errorf("cosim: shm decode: %w", derr)
		}
		if ch >= numChannels {
			return fmt.Errorf("cosim: shm record on invalid channel %d", ch)
		}
		t.framesRecv.Add(1)
		if t.inbox[ch].push(m) != nil {
			return nil // closed under the push
		}
	}
}

// closeInboxes closes every inbox: receives drain what is queued, then
// report err (ErrClosed when nil). The first close wins.
func (t *ShmTransport) closeInboxes(err error) {
	for _, q := range t.inbox {
		q.close(err)
	}
}

// Recv implements Transport.
func (t *ShmTransport) Recv(ch Channel) (Msg, error) {
	if ch >= numChannels {
		return Msg{}, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	return t.inbox[ch].pop(nil)
}

func (t *ShmTransport) recvTimeout(ch Channel, d time.Duration) (Msg, error) {
	if ch >= numChannels {
		return Msg{}, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	timer := time.NewTimer(d) //cosim:wallclock -- receive timeout bounds host I/O, not simulated time
	defer timer.Stop()
	return t.inbox[ch].pop(timer.C)
}

// TryRecv implements Transport.
func (t *ShmTransport) TryRecv(ch Channel) (Msg, bool, error) {
	if ch >= numChannels {
		return Msg{}, false, fmt.Errorf("cosim: invalid channel %d", ch)
	}
	return t.inbox[ch].tryPop()
}

// Close implements Transport: both directions are marked down (the peer
// observes the flag through the shared segment), the reader goroutine is
// joined, and the mapping is released once every local user is done.
// Blocked Recv calls return ErrClosed after draining what already
// arrived.
func (t *ShmTransport) Close() error {
	t.once.Do(func() {
		t.tx.close()
		t.rx.close()
		close(t.done)
		t.closeInboxes(nil) // unblocks a reader waiting on a full inbox
		t.readerWG.Wait()
		// A sender already past its closed check may still be pushing;
		// wmu waits it out, and later senders see done before they touch
		// the ring.
		t.wmu.Lock()
		if t.unmap != nil {
			t.closeErr = t.unmap()
		}
		t.wmu.Unlock()
	})
	return t.closeErr
}

// ShmStats is a snapshot of one side's ring counters.
type ShmStats struct {
	// FramesSent / FramesRecv count protocol frames through the rings.
	FramesSent, FramesRecv uint64
	// BytesSent counts frame bytes written into the outbound ring.
	BytesSent uint64
	// RingWraps counts outbound records that wrapped past the buffer end.
	RingWraps uint64
	// SendParks / RecvParks count times a side exhausted its busy-wait
	// budget and slept — the slow-path indicator (zero in a well-sized
	// steady state on the send side).
	SendParks, RecvParks uint64
}

// Stats snapshots the transport's counters.
func (t *ShmTransport) Stats() ShmStats {
	return ShmStats{
		FramesSent: t.framesSent.Load(),
		FramesRecv: t.framesRecv.Load(),
		BytesSent:  t.bytesSent.Load(),
		RingWraps:  t.ringWraps.Load(),
		SendParks:  t.sendParks.Load(),
		RecvParks:  t.recvParks.Load(),
	}
}

// setObserveSide implements sideSetter.
func (t *ShmTransport) setObserveSide(side string) { t.side = side }

// Observe implements Instrumentable: the endpoint Observe walk reaches
// the base of the stack and publishes the ring counters, so a scrape
// sees shm traffic and park pressure live.
func (t *ShmTransport) Observe(reg *obs.Registry) {
	side := t.side
	if side == "" {
		side = "link"
	}
	name := func(base string) string { return obs.Name(base, "side", side) }
	reg.CounterFunc(name("cosim_shm_frames_sent_total"), t.framesSent.Load)
	reg.CounterFunc(name("cosim_shm_frames_recv_total"), t.framesRecv.Load)
	reg.CounterFunc(name("cosim_shm_bytes_sent_total"), t.bytesSent.Load)
	reg.CounterFunc(name("cosim_shm_ring_wraps_total"), t.ringWraps.Load)
	reg.CounterFunc(name("cosim_shm_send_parks_total"), t.sendParks.Load)
	reg.CounterFunc(name("cosim_shm_recv_parks_total"), t.recvParks.Load)
}

// newHeapShmSegment allocates an 8-aligned in-heap segment with the same
// layout as a mapped file — the fuzz harness and ring unit tests exercise
// the ring mechanics without touching mmap, so they run on every
// platform.
func newHeapShmSegment(ringBytes int) []byte {
	words := make([]uint64, shmSegmentSize(ringBytes)/8)
	seg := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	initShmSegment(seg, ringBytes)
	return seg
}
