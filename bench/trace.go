package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosim"
)

// Span sides, levels and operations.
const (
	sideHW uint8 = iota
	sideBoard
)

const (
	levelTop  uint8 = iota // between the endpoint and the decorator stack
	levelBase              // between the stack and the base transport
)

const (
	opSend uint8 = iota
	opRecv
)

var (
	sideNames  = [...]string{"hw", "board"}
	levelNames = [...]string{"top", "base"}
	opNames    = [...]string{"send", "recv"}
)

// span is one transport call seen from outside the program.
type span struct {
	run   int32
	side  uint8
	level uint8
	op    uint8
	ch    cosim.Channel
	typ   cosim.MsgType
	bytes int32
	start int64 // ns since the tracer's epoch
	end   int64
}

// recorder collects the spans of one wrapper. Base wrappers under the
// session layer are called from its reader and writer goroutines too, so
// appends are locked.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	frames []cosim.Msg // copies of sent base frames, for the codec replay
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// tracer owns the recorders of one traced pass: hw/board × top/base.
type tracer struct {
	epoch time.Time
	run   atomic.Int32
	// keepFrames is set for the one run whose base frames are replayed
	// through the codec.
	keepFrames atomic.Bool
	recs       [2][2]*recorder // [side][level]
}

// newTracer preallocates room for spanHint spans per wrapper.
func newTracer(spanHint int) *tracer {
	t := &tracer{epoch: time.Now()}
	for s := range t.recs {
		for l := range t.recs[s] {
			t.recs[s][l] = &recorder{spans: make([]span, 0, spanHint)}
		}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// wrap puts a timing layer around tr for one side and level.
func (t *tracer) wrap(tr cosim.Transport, side, level uint8) cosim.Transport {
	return &timedTransport{inner: tr, t: t, rec: t.recs[side][level], side: side, level: level}
}

// spansOf returns one wrapper's spans of run r, in start order for the
// single-goroutine top level.
func (t *tracer) spansOf(side, level uint8, r int32) []span {
	rec := t.recs[side][level]
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []span
	for _, s := range rec.spans {
		if s.run == r {
			out = append(out, s)
		}
	}
	return out
}

// frames returns the base frames kept for the codec replay.
func (t *tracer) frames() []cosim.Msg {
	var out []cosim.Msg
	for s := range t.recs {
		rec := t.recs[s][levelBase]
		rec.mu.Lock()
		out = append(out, rec.frames...)
		rec.mu.Unlock()
	}
	return out
}

// timedTransport times every call into the transport below it. It sits
// only at the top of a stack and at its base, never between decorators:
// the session layer type-asserts its direct inner transport.
type timedTransport struct {
	inner       cosim.Transport
	t           *tracer
	rec         *recorder
	side, level uint8
}

func (tt *timedTransport) Send(ch cosim.Channel, m cosim.Msg) error {
	typ, n := m.Type, int32(m.WireSize())
	if tt.level == levelBase && tt.t.keepFrames.Load() {
		c := copyMsg(m)
		tt.rec.mu.Lock()
		tt.rec.frames = append(tt.rec.frames, c)
		tt.rec.mu.Unlock()
	}
	start := tt.t.now()
	err := tt.inner.Send(ch, m)
	end := tt.t.now()
	tt.rec.add(span{run: tt.t.run.Load(), side: tt.side, level: tt.level, op: opSend,
		ch: ch, typ: typ, bytes: n, start: start, end: end})
	return err
}

func (tt *timedTransport) Recv(ch cosim.Channel) (cosim.Msg, error) {
	start := tt.t.now()
	m, err := tt.inner.Recv(ch)
	end := tt.t.now()
	if err == nil {
		tt.rec.add(span{run: tt.t.run.Load(), side: tt.side, level: tt.level, op: opRecv,
			ch: ch, typ: m.Type, bytes: int32(m.WireSize()), start: start, end: end})
	}
	return m, err
}

// TryRecv records only calls that returned a message; empty polls are
// not link work.
func (tt *timedTransport) TryRecv(ch cosim.Channel) (cosim.Msg, bool, error) {
	start := tt.t.now()
	m, ok, err := tt.inner.TryRecv(ch)
	end := tt.t.now()
	if ok && err == nil {
		tt.rec.add(span{run: tt.t.run.Load(), side: tt.side, level: tt.level, op: opRecv,
			ch: ch, typ: m.Type, bytes: int32(m.WireSize()), start: start, end: end})
	}
	return m, ok, err
}

func (tt *timedTransport) Close() error { return tt.inner.Close() }

// Unwrap lets the program's capability probes (transport kind, link and
// batch statistics, metrics) see through the timing layer.
func (tt *timedTransport) Unwrap() cosim.Transport { return tt.inner }

// copyMsg copies a frame's exported fields into fresh, unpooled payloads
// before Send hands the original's buffers to the transport.
func copyMsg(m cosim.Msg) cosim.Msg {
	c := cosim.Msg{
		Type: m.Type, Addr: m.Addr, Count: m.Count, IRQ: m.IRQ,
		Ticks: m.Ticks, HWCycle: m.HWCycle, BoardCycle: m.BoardCycle, SWTick: m.SWTick,
		DataCount: m.DataCount, IntCount: m.IntCount, Lookahead: m.Lookahead,
		Version: m.Version, Seq: m.Seq, Crc: m.Crc,
	}
	if m.Words != nil {
		c.Words = append([]uint32(nil), m.Words...)
	}
	if m.Raw != nil {
		c.Raw = append([]byte(nil), m.Raw...)
	}
	return c
}

// runLayers is traced runs split by layer, summed over the runs, all in
// nanoseconds.
type runLayers struct {
	wall       int64
	hdlSelf    int64   // wall minus every hw top-level call
	boardSelf  int64   // board quanta minus the board's link calls inside them
	grants     int     // board quanta seen
	hwNonClock int64   // hw top-level DATA/INT call time
	waits      []int64 // hw top-level CLOCK receives
	rtts       []int64 // hw grant→ack interval minus the board's quantum
	// topSend is the time both endpoints spend handing messages to the
	// stack. The session layer sends on its own goroutines, so this is not
	// a superset of baseSend.
	topSend   int64
	topMsgs   int
	baseSend  int64 // base-level send time, both sides
	baseSends []int64
	baseBytes int64
}

// analyzeRun adds the layer split of one run, derived from its spans, to
// r. In alternating mode the hw side's wall is its own HDL compute plus
// its calls into the link; each grant→ack interval is the board's
// quantum plus the link round trip.
func analyzeRun(r *runLayers, hwTop, boardTop, hwBase, boardBase []span, wall time.Duration) {
	r.wall += int64(wall)
	var hwCalls int64
	grantStart := int64(-1)
	var hwIntervals []int64
	for _, s := range hwTop {
		d := s.end - s.start
		hwCalls += d
		if s.op == opSend {
			r.topSend += d
			r.topMsgs++
		}
		if s.ch != cosim.ChanClock {
			r.hwNonClock += d
			continue
		}
		switch {
		case s.op == opSend && s.typ == cosim.MTClockGrant:
			grantStart = s.start
		case s.op == opRecv:
			r.waits = append(r.waits, d)
			if s.typ == cosim.MTTimeAck && grantStart >= 0 {
				hwIntervals = append(hwIntervals, s.end-grantStart)
			}
			grantStart = -1
		}
	}
	r.hdlSelf += int64(wall) - hwCalls

	var boardIntervals []int64
	inQuantum := false
	var qStart, qCalls int64
	for _, s := range boardTop {
		d := s.end - s.start
		if s.op == opSend {
			r.topSend += d
			r.topMsgs++
		}
		switch {
		case s.ch == cosim.ChanClock && s.op == opRecv && s.typ == cosim.MTClockGrant:
			inQuantum, qStart, qCalls = true, s.end, 0
		case !inQuantum:
		case s.ch == cosim.ChanClock && s.op == opSend && s.typ == cosim.MTTimeAck:
			iv := s.start - qStart
			boardIntervals = append(boardIntervals, iv)
			r.boardSelf += iv - qCalls
			r.grants++
			inQuantum = false
		default:
			qCalls += d
		}
	}
	for i := 0; i < min(len(hwIntervals), len(boardIntervals)); i++ {
		r.rtts = append(r.rtts, hwIntervals[i]-boardIntervals[i])
	}

	for _, base := range [][]span{hwBase, boardBase} {
		for _, s := range base {
			if s.op != opSend {
				continue
			}
			d := s.end - s.start
			r.baseSend += d
			r.baseSends = append(r.baseSends, d)
			r.baseBytes += int64(s.bytes)
		}
	}
}

// codecCost replays frames through the wire codec and returns the mean
// encode and decode time per frame, best of a few passes.
func codecCost(frames []cosim.Msg) (encNS, decNS float64, err error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	var buf bytes.Buffer
	for pass := 0; pass < 5; pass++ {
		buf.Reset()
		t0 := time.Now()
		for i := range frames {
			if err := frames[i].Encode(&buf); err != nil {
				return 0, 0, fmt.Errorf("codec replay: encode: %w", err)
			}
		}
		enc := float64(time.Since(t0).Nanoseconds()) / float64(len(frames))
		rd := bytes.NewReader(buf.Bytes())
		t1 := time.Now()
		for range frames {
			m, err := cosim.Decode(rd)
			if err != nil {
				return 0, 0, fmt.Errorf("codec replay: decode: %w", err)
			}
			m.Release()
		}
		dec := float64(time.Since(t1).Nanoseconds()) / float64(len(frames))
		if pass == 0 || enc < encNS {
			encNS = enc
		}
		if pass == 0 || dec < decNS {
			decNS = dec
		}
	}
	return encNS, decNS, nil
}

// writeSpans writes every recorded span as one JSON object per line and
// returns the file's path.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for s := range t.recs {
		for l := range t.recs[s] {
			rec := t.recs[s][l]
			rec.mu.Lock()
			for _, sp := range rec.spans {
				fmt.Fprintf(w, `{"run":%d,"side":%q,"level":%q,"op":%q,"ch":%q,"type":%q,"bytes":%d,"start_ns":%d,"end_ns":%d}`+"\n",
					sp.run, sideNames[sp.side], levelNames[sp.level], opNames[sp.op],
					sp.ch.String(), sp.typ.String(), sp.bytes, sp.start, sp.end)
			}
			rec.mu.Unlock()
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
