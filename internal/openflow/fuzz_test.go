package openflow

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// The fuzz targets' seed corpora live in testdata/fuzz/<target>/: one valid
// frame of every message type, a multi-frame stream, and the malformed
// inputs of the TestDecodeRejects* and TestDecodeMutatedBytesNeverPanics
// cases. Plain `go test` replays them; `go test -fuzz` explores from them.

// codecError reports whether err is one of the codec's typed errors.
func codecError(err error) bool {
	for _, e := range []error{ErrBadVersion, ErrBadType, ErrTruncated, ErrTooLong, ErrBadEncoding} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// checkReencodes asserts that a decoded message re-encodes through
// AppendEncode and decodes back to an equal value under the same header
// type and XID.
func checkReencodes(t *testing.T, msg Message, h Header) {
	t.Helper()
	if msg.MsgType() != h.Type {
		t.Fatalf("decoded %T (type %v) from a %v header", msg, msg.MsgType(), h.Type)
	}
	prefix := []byte("prefix")
	buf, err := AppendEncode(prefix, msg, h.XID)
	if err != nil {
		t.Fatalf("re-encode %#v: %v", msg, err)
	}
	if !bytes.Equal(buf[:len(prefix)], []byte("prefix")) {
		t.Fatal("AppendEncode overwrote its destination's prefix")
	}
	frame := buf[len(prefix):]
	got, h2, err := Decode(frame)
	if err != nil {
		t.Fatalf("decode of re-encoded %#v: %v", msg, err)
	}
	if h2.Type != h.Type || h2.XID != h.XID || int(h2.Length) != len(frame) {
		t.Fatalf("re-encoded header %+v (%d bytes), original %+v", h2, len(frame), h)
	}
	if !reflect.DeepEqual(normalize(got), normalize(msg)) {
		t.Fatalf("re-encode round trip: got %#v, want %#v", got, msg)
	}
}

func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, h, err := Decode(data)
		if err != nil {
			if !codecError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		checkReencodes(t, msg, h)
	})
}

func FuzzReadMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The same stream is read twice: by ReadMessage, and by a Conn whose
		// Recv reuses one buffer. They must agree message for message, and
		// the Conn's earlier results must survive its later reads.
		stream := bytes.NewReader(data)
		tr := &memStream{}
		tr.in.Write(data)
		c := NewConn(tr)
		var want, got []Message
		for {
			msg, h, err := ReadMessage(stream)
			cmsg, ch, cerr := c.Recv()
			if err != nil {
				if cerr == nil {
					t.Fatalf("Recv decoded %#v where ReadMessage failed: %v", cmsg, err)
				}
				if !codecError(err) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("untyped read error: %v", err)
				}
				break
			}
			if cerr != nil || ch != h || !reflect.DeepEqual(cmsg, msg) {
				t.Fatalf("Recv = %#v %+v %v, ReadMessage = %#v %+v", cmsg, ch, cerr, msg, h)
			}
			checkReencodes(t, msg, h)
			want = append(want, msg)
			got = append(got, cmsg)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("message %d changed after later reads: %#v, want %#v", i, got[i], want[i])
			}
		}
	})
}
