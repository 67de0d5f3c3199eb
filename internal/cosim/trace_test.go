package cosim

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceTransportLogsBothDirections(t *testing.T) {
	a, b := NewInProcPair(16)
	var log bytes.Buffer
	ta := NewTraceTransport(a, &log)

	if err := ta.Send(ChanClock, Msg{Type: MTClockGrant, Ticks: 7, HWCycle: 14, DataCount: 1, IntCount: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(ChanData, Msg{Type: MTDataWrite, Addr: 0x20, Words: []uint32{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Recv(ChanData); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(ChanInt, Msg{Type: MTInterrupt, IRQ: 5}); err != nil {
		t.Fatal(err)
	}
	if m, ok, err := ta.TryRecv(ChanInt); !ok || err != nil || m.IRQ != 5 {
		t.Fatalf("TryRecv: %+v %v %v", m, ok, err)
	}

	out := log.String()
	for _, want := range []string{
		"SEND CLOCK clock-grant ticks=7 hw=14 data=1 int=2",
		"RECV DATA  data-write addr=0x20 words=2",
		"RECV INT   interrupt irq=5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	// Every line carries a timestamp prefix.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "+") || !strings.Contains(line, "s ") {
			t.Fatalf("line without timestamp: %q", line)
		}
	}
	ta.Close()
}

func TestSummarizeAllTypes(t *testing.T) {
	msgs := []Msg{
		{Type: MTHello, Version: 1},
		{Type: MTClockGrant},
		{Type: MTTimeAck},
		{Type: MTFinish},
		{Type: MTFinishAck},
		{Type: MTInterrupt},
		{Type: MTDataWrite},
		{Type: MTDataReadReq},
		{Type: MTDataReadResp},
		{Type: MsgType(99)},
	}
	for _, m := range msgs {
		if SummarizeMsg(m) == "" {
			t.Fatalf("no summary for %v", m.Type)
		}
	}
}

func TestTracedEndpointsStillInteroperate(t *testing.T) {
	hwT, boardT := NewInProcPair(64)
	var hwLog, boardLog bytes.Buffer
	hw := NewHWEndpoint(NewTraceTransport(hwT, &hwLog), SyncAlternating)
	_, result := scriptedBoard(t, NewTraceTransport(boardT, &boardLog), echo)
	for q := 0; q < 3; q++ {
		if _, err := hw.Step(SimTime(10 * (q + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Finish(30); err != nil {
		t.Fatal(err)
	}
	if r := <-result; r.err != nil {
		t.Fatal(r.err)
	}
	if !strings.Contains(hwLog.String(), "finish hw=30") {
		t.Fatalf("hw trace incomplete:\n%s", hwLog.String())
	}
	if strings.Count(boardLog.String(), "RECV CLOCK clock-grant") != 3 {
		t.Fatalf("board trace grants:\n%s", boardLog.String())
	}
	hwT.Close()
}
