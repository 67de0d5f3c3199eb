package cosim

import "net"

// dialRaw opens one raw channel connection with an arbitrary tag byte and
// hello version, for handshake failure tests.
func dialRaw(addr string, tag byte, version uint16) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := c.Write([]byte{tag}); err != nil {
		c.Close()
		return nil, err
	}
	hello := Msg{Type: MTHello, Version: version}
	if err := hello.Encode(c); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// newBoardSide is the board-side endpoint Serve runs over tr.
func newBoardSide(tr Transport) *endpoint {
	ep := newEndpoint(tr, "board", boardKinds, hwKinds)
	return &ep
}
