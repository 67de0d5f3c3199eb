// Package cosim is a miniature stand-in for repro/internal/cosim: just
// enough surface (Msg, Transport, the codec) for the analyzer golden
// tests, which match these types by package name.
package cosim

import "io"

// Channel selects one of the protocol's logical lanes.
type Channel uint8

// The three lanes of the real protocol.
const (
	ChanClock Channel = iota
	ChanData
	ChanInt
)

// Msg mirrors the real message: scalars plus payload slices it owns.
type Msg struct {
	Type  uint8
	Addr  uint32
	Seq   uint64
	Words []uint32
	Raw   []byte
}

// Encode writes the framed wire format.
func (m *Msg) Encode(w io.Writer) error { return nil }

// Transport is the three-lane message link.
type Transport interface {
	Send(ch Channel, m Msg) error
	Recv(ch Channel) (Msg, error)
	TryRecv(ch Channel) (Msg, bool, error)
	Close() error
}

// Decode reads one framed message.
func Decode(r io.Reader) (Msg, error) { return Msg{}, nil }
