package openflow

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestHandshakeOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = ca.Handshake() }()
	go func() { defer wg.Done(); errs[1] = cb.Handshake() }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("side %d: %v", i, err)
		}
	}
	_ = ca.Close()
	_ = cb.Close()
}

func TestSendRecvOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer func() {
		_ = ca.Close()
		_ = cb.Close()
	}()
	want := FlowMod{Command: FlowAdd, Priority: 50, Match: Match{FlowID: 11, Src: 0, Dst: 24}, NextHop: 13}
	done := make(chan error, 1)
	go func() {
		_, err := ca.Send(want)
		done <- err
	}()
	got, h, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	fm, ok := got.(FlowMod)
	if !ok || fm != want {
		t.Fatalf("got %#v (xid %d)", got, h.XID)
	}
}

func TestXIDsMonotone(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer func() {
		_ = ca.Close()
		_ = cb.Close()
	}()
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := ca.Send(Hello{}); err != nil {
				return
			}
		}
	}()
	var last uint32
	for i := 0; i < 3; i++ {
		_, h, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if h.XID <= last {
			t.Fatalf("xid %d not increasing past %d", h.XID, last)
		}
		last = h.XID
	}
}

func TestTCPDialListen(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	type result struct {
		conn *Conn
		err  error
	}
	acceptCh := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		acceptCh <- result{c, err}
	}()

	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	srv := <-acceptCh
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	defer func() { _ = srv.conn.Close() }()

	// Echo request/reply with matching XIDs across real TCP.
	xid, err := client.Send(Echo{Data: []byte("alive?")})
	if err != nil {
		t.Fatal(err)
	}
	msg, h, err := srv.conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	req, ok := msg.(Echo)
	if !ok || req.Reply {
		t.Fatalf("server got %#v", msg)
	}
	if err := srv.conn.SendXID(Echo{Reply: true, Data: req.Data}, h.XID); err != nil {
		t.Fatal(err)
	}
	reply, rh, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rh.XID != xid {
		t.Fatalf("reply xid = %d, want %d", rh.XID, xid)
	}
	if rep, ok := reply.(Echo); !ok || !rep.Reply || string(rep.Data) != "alive?" {
		t.Fatalf("reply = %#v", reply)
	}
}

func TestDialTimeoutUnresponsivePeer(t *testing.T) {
	// A raw TCP listener that accepts but never speaks: the handshake can
	// never complete, so DialTimeout must give up instead of hanging.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer func() { _ = c.Close() }()
			// Swallow the client's hello, reply with nothing.
			_, _ = c.Read(make([]byte, 64))
		}
	}()

	start := time.Now()
	_, err = DialTimeout(l.Addr().String(), 150*time.Millisecond)
	if err == nil {
		t.Fatal("DialTimeout succeeded against a mute peer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DialTimeout took %v, want prompt failure", elapsed)
	}
}

func TestAcceptTimesOutOnMuteClient(t *testing.T) {
	ofl, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ofl.Close() }()
	ofl.HandshakeTimeout = 150 * time.Millisecond

	// The client connects at the TCP level but never sends its hello.
	nc, err := net.Dial("tcp", ofl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()

	done := make(chan error, 1)
	go func() {
		_, err := ofl.Accept()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept handshook with a mute client")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept hung on a mute client")
	}
}

func TestRequestMatchesXIDThroughInterleavedTraffic(t *testing.T) {
	a, b := net.Pipe()
	client, server := NewConn(a), NewConn(b)
	defer func() {
		_ = client.Close()
		_ = server.Close()
	}()

	serverDone := make(chan error, 1)
	go func() {
		serverDone <- func() error {
			msg, h, err := server.Recv()
			if err != nil {
				return err
			}
			if _, ok := msg.(BarrierRequest); !ok {
				return fmt.Errorf("server got %v", msg.MsgType())
			}
			// Interleave: an unrelated unsolicited reply, then an echo
			// request, then the real barrier reply.
			if err := server.SendXID(RoleReply{Role: RoleEqual, GenerationID: 0}, h.XID+100); err != nil {
				return err
			}
			if _, err := server.Send(Echo{Data: []byte("keepalive")}); err != nil {
				return err
			}
			// The client must answer our echo request while it waits for the
			// barrier reply; consume the answer before sending that reply, as
			// net.Pipe is fully synchronous.
			reply, _, err := server.Recv()
			if err != nil {
				return err
			}
			if e, ok := reply.(Echo); !ok || !e.Reply || string(e.Data) != "keepalive" {
				return fmt.Errorf("echo reply = %#v", reply)
			}
			return server.SendXID(BarrierReply{}, h.XID)
		}()
	}()

	msg, _, err := client.Request(BarrierRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(BarrierReply); !ok {
		t.Fatalf("request returned %v, want barrier reply", msg.MsgType())
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
}

func TestRequestSurfacesRemoteError(t *testing.T) {
	a, b := net.Pipe()
	client, server := NewConn(a), NewConn(b)
	defer func() {
		_ = client.Close()
		_ = server.Close()
	}()
	go func() {
		msg, h, err := server.Recv()
		if err != nil {
			return
		}
		if _, ok := msg.(RoleRequest); !ok {
			return
		}
		gen := make([]byte, 8)
		gen[7] = 9
		_ = server.SendXID(ErrorMsg{Code: ErrCodeRoleStale, Data: gen}, h.XID)
	}()

	_, _, err := client.Request(RoleRequest{Role: RoleMaster, GenerationID: 1})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want *RemoteError", err)
	}
	if re.Code != ErrCodeRoleStale {
		t.Fatalf("code = %d", re.Code)
	}
	if gen, ok := re.StaleGeneration(); !ok || gen != 9 {
		t.Fatalf("stale generation = %d, %v", gen, ok)
	}
}

func TestPingAndIOTimeout(t *testing.T) {
	a, b := net.Pipe()
	client, server := NewConn(a), NewConn(b)
	defer func() {
		_ = client.Close()
		_ = server.Close()
	}()
	// A live peer answers the probe.
	go func() {
		msg, h, err := server.Recv()
		if err != nil {
			return
		}
		if e, ok := msg.(Echo); ok && !e.Reply {
			_ = server.SendXID(Echo{Reply: true, Data: e.Data}, h.XID)
		}
	}()
	if !client.SetIOTimeout(time.Second) {
		t.Fatal("net.Pipe should support deadlines")
	}
	if err := client.Ping([]byte("alive?")); err != nil {
		t.Fatal(err)
	}
	// A mute peer makes the next probe time out instead of hanging.
	client.SetIOTimeout(100 * time.Millisecond)
	start := time.Now()
	if err := client.Ping([]byte("anyone?")); err == nil {
		t.Fatal("ping against a mute peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ping took %v, want prompt timeout", elapsed)
	}
}

func TestHandshakeRejectsNonHello(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer func() {
		_ = ca.Close()
		_ = cb.Close()
	}()
	errCh := make(chan error, 1)
	go func() { errCh <- ca.Handshake() }()
	// Peer misbehaves: sends a BarrierRequest first.
	if _, _, err := cb.Recv(); err != nil { // consume ca's hello
		t.Fatal(err)
	}
	if _, err := cb.Send(BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("handshake accepted a non-hello first message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake did not finish")
	}
}

// memStream is an in-memory transport: reads drain in, and every Write is
// recorded as one frame group in writes.
type memStream struct {
	in     bytes.Buffer
	writes [][]byte
}

func (m *memStream) Read(p []byte) (int, error) { return m.in.Read(p) }
func (m *memStream) Write(p []byte) (int, error) {
	m.writes = append(m.writes, append([]byte(nil), p...))
	return len(p), nil
}
func (m *memStream) Close() error { return nil }

type bogusMsg struct{}

func (bogusMsg) MsgType() MsgType { return 0xEE }

func TestSendBatchIsOneWrite(t *testing.T) {
	tr := &memStream{}
	c := NewConn(tr)
	first, err := c.Send(Hello{})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Message{
		FlowMod{Command: FlowAdd, Priority: 100, Match: Match{FlowID: 1, Src: 2, Dst: 3}, NextHop: 4},
		FlowMod{Command: FlowDelete, Match: Match{FlowID: 5}},
		Echo{Data: []byte("in-batch")},
		BarrierRequest{},
	}
	last, err := c.SendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.writes) != 2 {
		t.Fatalf("Send + SendBatch made %d writes, want 2", len(tr.writes))
	}
	if last != first+uint32(len(batch)) {
		t.Fatalf("last xid %d, want %d", last, first+uint32(len(batch)))
	}
	stream := bytes.NewReader(tr.writes[1])
	for i, want := range batch {
		got, h, err := ReadMessage(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if h.XID != first+uint32(i)+1 {
			t.Fatalf("frame %d xid %d, want %d", i, h.XID, first+uint32(i)+1)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("frame %d: got %#v, want %#v", i, got, want)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d trailing bytes after the batch", stream.Len())
	}

	// An unencodable message fails the whole batch before any byte leaves,
	// and the buffer it left behind does not leak into the next send.
	if _, err := c.SendBatch([]Message{BarrierRequest{}, bogusMsg{}}); !errors.Is(err, ErrBadType) {
		t.Fatalf("error = %v, want ErrBadType", err)
	}
	if len(tr.writes) != 2 {
		t.Fatalf("failed batch wrote %d times", len(tr.writes)-2)
	}
	xid, err := c.Send(BarrierReply{})
	if err != nil {
		t.Fatal(err)
	}
	got, h, err := Decode(tr.writes[2])
	if err != nil || h.XID != xid || int(h.Length) != len(tr.writes[2]) || got.MsgType() != TypeBarrierReply {
		t.Fatalf("send after failed batch: %#v %+v %v (%d bytes)", got, h, err, len(tr.writes[2]))
	}
}

func TestRecvResultsOutliveTheReadBuffer(t *testing.T) {
	tr := &memStream{}
	want := []Message{
		Echo{Data: []byte("first")},
		PacketIn{BufferID: 1, Reason: ReasonNoMatch, Match: Match{FlowID: 2}, Data: []byte("second, longer")},
		Echo{Reply: true, Data: []byte("3rd")},
		ErrorMsg{Code: 9, Data: []byte("fourth")},
		PacketOut{BufferID: 5, NextHop: 6, Data: []byte("fifth")},
	}
	for i, m := range want {
		if err := WriteMessage(&tr.in, m, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewConn(tr)
	var got []Message
	for range want {
		msg, _, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, msg)
	}
	// Every earlier message must be intact after the later reads reused the
	// Conn's buffer.
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("message %d after later reads: %#v, want %#v", i, got[i], want[i])
		}
	}
}
