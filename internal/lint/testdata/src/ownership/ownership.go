// Package ownership is msgownership's golden corpus: each `want`
// comment pins one diagnostic, everything else must stay silent.
package ownership

import (
	"repro/internal/lint/testdata/src/cosim"
)

func writeAfterSend(tr cosim.Transport) {
	m, err := tr.Recv(cosim.ChanData)
	if err != nil {
		return
	}
	if err := tr.Send(cosim.ChanInt, m); err != nil {
		return
	}
	m.Words = nil // want "payload field Words written after the message was sent"
}

func elementWriteAfterSend(tr cosim.Transport, m cosim.Msg) error {
	err := tr.Send(cosim.ChanData, m)
	m.Raw[0] = 0xff // want "payload field Raw written after the message was sent"
	m.Words[1]++    // want "payload field Words written after the message was sent"
	return err
}

func aliasWriteAfterSend(tr cosim.Transport, m cosim.Msg) {
	alias := m
	_ = tr.Send(cosim.ChanData, alias)
	m.Words[0] = 1 // want "payload field Words written after the message was sent"
}

func sentOnEveryArm(tr cosim.Transport, m cosim.Msg, k int) {
	switch k {
	case 0:
		_ = tr.Send(cosim.ChanData, m)
	default:
		_ = tr.Send(cosim.ChanInt, m)
	}
	m.Words = append(m.Words, 1) // want "payload field Words written after the message was sent"
}

// ---- negative cases: correct code the analyzer must accept ----

func writeBeforeSendOK(tr cosim.Transport, words []uint32) error {
	m := cosim.Msg{Addr: 4}
	m.Words = words
	m.Words[0] = 7
	return tr.Send(cosim.ChanData, m)
}

func receivedIsOwnedOK(tr cosim.Transport) []uint32 {
	m, err := tr.Recv(cosim.ChanData)
	if err != nil {
		return nil
	}
	m.Words[0] = 0 // a received message owns its payload outright
	return m.Words
}

func reassignedOK(tr cosim.Transport, m cosim.Msg) {
	_ = tr.Send(cosim.ChanData, m)
	m = cosim.Msg{}
	m.Words = []uint32{1}
}

func sentOnOneBranchOK(tr cosim.Transport, m cosim.Msg, fwd bool) {
	if fwd {
		_ = tr.Send(cosim.ChanData, m)
	}
	m.Words = nil
}

func sentThenReturnedOK(tr cosim.Transport, m cosim.Msg, fwd bool) {
	if fwd {
		_ = tr.Send(cosim.ChanData, m)
		return
	}
	m.Raw = nil
}

func rangeVarsFreshOK(tr cosim.Transport, msgs []cosim.Msg) {
	for _, m := range msgs {
		m.Words[0] = 1
		_ = tr.Send(cosim.ChanData, m)
	}
}
