package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Codec errors.
var (
	ErrBadVersion  = errors.New("openflow: unsupported version")
	ErrBadType     = errors.New("openflow: unknown message type")
	ErrTruncated   = errors.New("openflow: truncated message")
	ErrTooLong     = errors.New("openflow: message exceeds maximum length")
	ErrBadEncoding = errors.New("openflow: malformed body")
)

// MaxMessageLen bounds a single message on the wire (the uint16 length field
// caps it anyway; this constant documents it and guards encoders).
const MaxMessageLen = 1<<16 - 1

var byteOrder = binary.BigEndian

// Encode serializes msg under a header carrying xid into a fresh buffer.
func Encode(msg Message, xid uint32) ([]byte, error) {
	return AppendEncode(nil, msg, xid)
}

// AppendEncode appends the wire form of msg under a header carrying xid to
// dst and returns the extended slice. On error dst is returned unchanged.
// Encoding straight into a caller-owned buffer is what lets a Conn frame a
// whole batch of messages without a per-message allocation.
func AppendEncode(dst []byte, msg Message, xid uint32) ([]byte, error) {
	start := len(dst)
	dst = append(dst, Version, uint8(msg.MsgType()), 0, 0, 0, 0, 0, 0)
	switch m := msg.(type) {
	case Hello, FeaturesRequest, BarrierRequest, BarrierReply:
	case Echo:
		dst = append(dst, m.Data...)
	case FeaturesReply:
		hybrid := uint8(0)
		if m.Hybrid {
			hybrid = 1
		}
		dst = byteOrder.AppendUint64(dst, m.DatapathID)
		dst = append(dst, m.NumTables, hybrid)
	case FlowMod:
		dst = append(dst, uint8(m.Command))
		dst = byteOrder.AppendUint16(dst, m.Priority)
		dst = appendMatch(dst, m.Match)
		dst = byteOrder.AppendUint32(dst, m.NextHop)
	case PacketIn:
		dst = byteOrder.AppendUint32(dst, m.BufferID)
		dst = append(dst, uint8(m.Reason))
		dst = appendMatch(dst, m.Match)
		dst = append(dst, m.Data...)
	case PacketOut:
		dst = byteOrder.AppendUint32(dst, m.BufferID)
		dst = byteOrder.AppendUint32(dst, m.NextHop)
		dst = append(dst, m.Data...)
	case RoleRequest:
		dst = byteOrder.AppendUint32(dst, uint32(m.Role))
		dst = byteOrder.AppendUint64(dst, m.GenerationID)
	case RoleReply:
		dst = byteOrder.AppendUint32(dst, uint32(m.Role))
		dst = byteOrder.AppendUint64(dst, m.GenerationID)
	case ErrorMsg:
		dst = byteOrder.AppendUint16(dst, m.Code)
		dst = append(dst, m.Data...)
	default:
		return dst[:start], fmt.Errorf("%w: %T", ErrBadType, msg)
	}
	total := len(dst) - start
	if total > MaxMessageLen {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrTooLong, total)
	}
	byteOrder.PutUint16(dst[start+2:], uint16(total))
	byteOrder.PutUint32(dst[start+4:], xid)
	return dst, nil
}

func appendMatch(dst []byte, m Match) []byte {
	dst = byteOrder.AppendUint32(dst, m.FlowID)
	dst = byteOrder.AppendUint32(dst, m.Src)
	return byteOrder.AppendUint32(dst, m.Dst)
}

func getMatch(b []byte) Match {
	return Match{
		FlowID: byteOrder.Uint32(b[0:4]),
		Src:    byteOrder.Uint32(b[4:8]),
		Dst:    byteOrder.Uint32(b[8:12]),
	}
}

// DecodeHeader parses the 8-byte header.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("%w: header needs %d bytes, have %d", ErrTruncated, HeaderLen, len(b))
	}
	h := Header{
		Version: b[0],
		Type:    MsgType(b[1]),
		Length:  byteOrder.Uint16(b[2:4]),
		XID:     byteOrder.Uint32(b[4:8]),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: %#x", ErrBadVersion, h.Version)
	}
	if int(h.Length) < HeaderLen {
		return Header{}, fmt.Errorf("%w: declared length %d below header size", ErrBadEncoding, h.Length)
	}
	return h, nil
}

// Decode parses one full message (header + body) from b.
func Decode(b []byte) (Message, Header, error) {
	h, err := DecodeHeader(b)
	if err != nil {
		return nil, Header{}, err
	}
	if len(b) < int(h.Length) {
		return nil, Header{}, fmt.Errorf("%w: declared %d bytes, have %d", ErrTruncated, h.Length, len(b))
	}
	body := b[HeaderLen:h.Length]
	msg, err := decodeBody(h.Type, body)
	if err != nil {
		return nil, Header{}, err
	}
	return msg, h, nil
}

func decodeBody(t MsgType, body []byte) (Message, error) {
	need := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("%w: %v body needs %d bytes, have %d", ErrTruncated, t, n, len(body))
		}
		return nil
	}
	switch t {
	case TypeHello:
		return Hello{}, nil
	case TypeFeaturesRequest:
		return FeaturesRequest{}, nil
	case TypeBarrierRequest:
		return BarrierRequest{}, nil
	case TypeBarrierReply:
		return BarrierReply{}, nil
	case TypeEchoRequest, TypeEchoReply:
		return Echo{Reply: t == TypeEchoReply, Data: append([]byte(nil), body...)}, nil
	case TypeFeaturesReply:
		if err := need(10); err != nil {
			return nil, err
		}
		return FeaturesReply{
			DatapathID: byteOrder.Uint64(body[0:8]),
			NumTables:  body[8],
			Hybrid:     body[9] == 1,
		}, nil
	case TypeFlowMod:
		if err := need(19); err != nil {
			return nil, err
		}
		cmd := FlowModCommand(body[0])
		if cmd < FlowAdd || cmd > FlowDeleteAll {
			return nil, fmt.Errorf("%w: flow-mod command %d", ErrBadEncoding, cmd)
		}
		return FlowMod{
			Command:  cmd,
			Priority: byteOrder.Uint16(body[1:3]),
			Match:    getMatch(body[3:15]),
			NextHop:  byteOrder.Uint32(body[15:19]),
		}, nil
	case TypePacketIn:
		if err := need(17); err != nil {
			return nil, err
		}
		return PacketIn{
			BufferID: byteOrder.Uint32(body[0:4]),
			Reason:   PacketInReason(body[4]),
			Match:    getMatch(body[5:17]),
			Data:     append([]byte(nil), body[17:]...),
		}, nil
	case TypePacketOut:
		if err := need(8); err != nil {
			return nil, err
		}
		return PacketOut{
			BufferID: byteOrder.Uint32(body[0:4]),
			NextHop:  byteOrder.Uint32(body[4:8]),
			Data:     append([]byte(nil), body[8:]...),
		}, nil
	case TypeRoleRequest, TypeRoleReply:
		if err := need(12); err != nil {
			return nil, err
		}
		role := ControllerRole(byteOrder.Uint32(body[0:4]))
		gen := byteOrder.Uint64(body[4:12])
		if role < RoleEqual || role > RoleSlave {
			return nil, fmt.Errorf("%w: role %d", ErrBadEncoding, role)
		}
		if t == TypeRoleRequest {
			return RoleRequest{Role: role, GenerationID: gen}, nil
		}
		return RoleReply{Role: role, GenerationID: gen}, nil
	case TypeError:
		if err := need(2); err != nil {
			return nil, err
		}
		return ErrorMsg{
			Code: byteOrder.Uint16(body[0:2]),
			Data: append([]byte(nil), body[2:]...),
		}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
}

// ReadMessage reads exactly one message from r (blocking until a full
// message arrives) and returns it with its header.
func ReadMessage(r io.Reader) (Message, Header, error) {
	msg, h, _, err := readMessage(r, nil)
	return msg, h, err
}

// readMessage is ReadMessage reading through buf, which it grows as needed
// and returns for reuse. The decoded message never aliases buf: decodeBody
// copies every variable-length field.
func readMessage(r io.Reader, buf []byte) (Message, Header, []byte, error) {
	if cap(buf) < HeaderLen {
		// Room for every fixed-size message, so a Conn's buffer rarely
		// grows past its first allocation.
		buf = make([]byte, HeaderLen, 512)
	}
	hb := buf[:HeaderLen]
	if _, err := io.ReadFull(r, hb); err != nil {
		return nil, Header{}, buf, err
	}
	h, err := DecodeHeader(hb)
	if err != nil {
		return nil, Header{}, buf, err
	}
	// h.Length is a checked uint16 (>= HeaderLen), so the body is bounded
	// by MaxMessageLen whatever the peer declares.
	n := int(h.Length) - HeaderLen
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, Header{}, buf, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	msg, err := decodeBody(h.Type, body)
	if err != nil {
		return nil, Header{}, buf, err
	}
	return msg, h, buf, nil
}

// WriteMessage encodes msg under xid and writes it to w.
func WriteMessage(w io.Writer, msg Message, xid uint32) error {
	buf, err := Encode(msg, xid)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
