package cosim

import (
	"errors"
	"testing"
)

// FuzzShmRing drives the raw ring verbs with a fuzz-chosen op script —
// pushes of varying sizes and channels, pops checked against a FIFO
// model, and byte-level corruption of the data region (torn length
// prefixes, stray wrap markers) — and proves the ring never panics,
// never hangs, never reorders, and reports corruption as a terminal
// error rather than garbage silently decoded as fresh input... or at
// worst as a decode error one layer up; what it must never do is loop
// or deliver frames out of order while the ring is intact.
func FuzzShmRing(f *testing.F) {
	// Seeds: plain push/pop traffic, a wraparound-heavy script, a
	// full-ring grind, and corruption hitting a length prefix.
	f.Add([]byte{0, 10, 1, 0, 0, 60, 1, 0, 2, 5, 1, 0, 1, 0})
	f.Add([]byte{0, 255, 0, 255, 1, 0, 0, 255, 1, 0, 0, 255, 1, 0, 0, 255, 1, 0})
	f.Add([]byte{0, 200, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200})
	f.Add([]byte{0, 30, 3, 1, 1, 0, 1, 0})
	f.Add([]byte{0, 30, 3, 0, 1, 0})

	f.Fuzz(func(t *testing.T, script []byte) {
		const ringBytes = 4096 // small ring: wrap and full are easy to reach
		seg := newHeapShmSegment(ringBytes)
		r, _ := segmentRings(seg, ringBytes)

		type rec struct {
			ch    Channel
			addr  uint32
			words int
		}
		var model []rec
		corrupted := false
		poisoned := false // ring reported a terminal error; verbs stay safe but unchecked
		seq := uint32(0)

		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%4, script[i+1]
			switch op {
			case 0, 2: // push: data write with arg words, or tiny control frame
				var m Msg
				var want rec
				ch := Channel(arg) % numChannels
				if op == 0 {
					m = Msg{Type: MTDataWrite, Addr: seq, Words: make([]uint32, int(arg)%200)}
					for j := range m.Words {
						m.Words[j] = seq + uint32(j)
					}
					want = rec{ch: ch, addr: seq, words: len(m.Words)}
				} else {
					m = Msg{Type: MTClockGrant, Ticks: uint64(arg), HWCycle: uint64(seq)}
					want = rec{ch: ch, addr: seq, words: -1}
				}
				_, _, err := r.tryPush(ch, &m)
				switch {
				case err == nil:
					if !corrupted {
						model = append(model, want)
					}
					seq++
				case errors.Is(err, errShmFull):
					// Backpressure is a valid outcome; the model is unchanged.
				default:
					t.Fatalf("tryPush: unexpected error %v", err)
				}
			case 1: // pop, checked against the model while the ring is intact
				ch, body, newTail, err := r.tryPop()
				if poisoned {
					// After a terminal error anything but a panic/hang is
					// acceptable; just keep the verbs exercised.
					if err == nil {
						r.hdr.tail.Store(newTail)
					}
					continue
				}
				if err != nil {
					if errors.Is(err, errShmEmpty) {
						if !corrupted && len(model) != 0 {
							t.Fatalf("ring empty but model holds %d records", len(model))
						}
						continue
					}
					if !corrupted {
						t.Fatalf("tryPop: terminal error on intact ring: %v", err)
					}
					poisoned = true
					continue
				}
				m, derr := decodeBody(body)
				r.hdr.tail.Store(newTail)
				if derr != nil {
					if !corrupted {
						t.Fatalf("decode error on intact ring: %v", derr)
					}
					poisoned = true
					continue
				}
				if !corrupted {
					if len(model) == 0 {
						t.Fatal("pop succeeded with empty model")
					}
					want := model[0]
					model = model[1:]
					if ch != want.ch {
						t.Fatalf("channel %d, want %d", ch, want.ch)
					}
					if want.words >= 0 {
						if m.Type != MTDataWrite || m.Addr != want.addr || len(m.Words) != want.words {
							t.Fatalf("got type=%d addr=%d words=%d, want addr=%d words=%d",
								m.Type, m.Addr, len(m.Words), want.addr, want.words)
						}
					} else if m.Type != MTClockGrant || m.HWCycle != uint64(want.addr) {
						t.Fatalf("got type=%d hwcycle=%d, want clock grant %d", m.Type, m.HWCycle, want.addr)
					}
				}
			case 3: // corrupt one byte of the data region (torn prefix, stray marker)
				off := shmDataOff + (int(arg)*131)%ringBytes
				seg[off] ^= 0xFF
				corrupted = true
			}
		}

		// Whatever the script did, a bounded drain must terminate: every
		// pop either yields a record, errShmEmpty, or a terminal error.
		for i := 0; i < 64; i++ {
			_, body, newTail, err := r.tryPop()
			if err != nil {
				break
			}
			_, _ = decodeBody(body)
			r.hdr.tail.Store(newTail)
		}
	})
}
