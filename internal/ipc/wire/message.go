// Package wire is a functional message layer beneath the cost-model
// RPC of package ipc: real frames with real headers, an Internet-style
// ones-complement checksum computed over actual bytes, a typed
// argument marshaller (the work RPC stubs do), and an in-memory
// full-duplex link with virtual-time accounting and fault injection.
// Where package ipc prices the paper's Table 3 components, package wire
// executes them, so tests can demonstrate the mechanics the paper
// describes — marshalling, checksum verification, packet loss — not
// just their costs.
//
// # Single ownership
//
// A stack instance is the links on one VClock and everything attached
// to them: every Client, FailoverClient and Server, the epoch fences
// they share, and the recorders, histograms and fault planes armed on
// them. It belongs to one goroutine at a time, which drives every
// call, poll and read; nothing in it takes a lock. Handing a stack to
// another goroutine needs a happens-before edge, such as a channel
// hand-off. Several callers of one stack are simulated clients that
// its goroutine interleaves in an order it fixes, which is what makes
// same-seed runs byte-identical. Independent stacks share nothing —
// each recycles its frame buffers and builders on its own VClock's
// free lists — so they may run on separate goroutines at once. The
// race detector enforces the contract: a second goroutine touching a
// stack without such an edge, or a buffer that crossed from one stack
// into another, is a data race, reported in any -race run that
// exercises it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgKind distinguishes frame types.
type MsgKind uint8

const (
	// KindCall carries a request; KindReply a response; KindBatch a
	// container of coalesced frames (the link's batching seam — never
	// seen by clients or servers, the link splits it back into its
	// sub-frames on delivery); KindReject an overload rejection — the
	// server declining a call without executing it (no handler run, no
	// log append, nothing cached). Kind 3 is retired and stays
	// unassigned, so that kind bytes keep their meaning on the wire.
	KindCall MsgKind = iota + 1
	KindReply
	_
	KindBatch
	KindReject
)

const (
	magic         = 0x5250 // "RP"
	version       = 4      // v2 added ClientID (at-most-once); v3 added Epoch (crash–recovery); v4 added Expiry (deadline propagation)
	headerBytes   = 28
	maxPayload    = 1<<16 - 1 // the header's length field is 16 bits; a payload must fit it exactly
	checksumStart = 24        // offset of the checksum field within the header
)

// Reject reason codes — the single payload byte of a KindReject frame.
// Byte 1 named a queue-full shed, which no server makes any more; it
// stays unassigned so that reason bytes keep their meaning on the wire.
const (
	// RejectExpired: the call's propagated deadline had already passed
	// when the server looked at it. Executing it would have been pure
	// waste — the caller stopped waiting — so it was shed instead.
	RejectExpired byte = 2
)

// Header describes a frame.
type Header struct {
	Kind     MsgKind
	CallID   uint32
	ProcID   uint32 // procedure being invoked (calls) / echoed (replies)
	ClientID uint32 // caller identity; keys the server's reply cache
	Epoch    uint32 // server incarnation stamped into replies; 0 in calls
	Expiry   uint32 // absolute virtual-time deadline (µs) propagated with calls; 0 = none
	Payload  int    // payload length in bytes
}

// Errors returned by the codec.
var (
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrTruncated   = errors.New("wire: truncated frame")
	ErrTooLarge    = errors.New("wire: payload too large")
)

// Checksum computes the Internet ones-complement 16-bit checksum — the
// "only real computation in RPC, in the traditional sense ... memory
// intensive and not compute intensive; each checksum addition is paired
// with a load."
//
// The sum is computed 16 bytes per step: big-endian 32-bit words go
// into four 64-bit accumulators, and the last 0–15 bytes are added as
// 16-bit words. A 32-bit word is congruent to the sum of its two
// 16-bit halves mod 0xFFFF, so the folded result is bit-identical to
// summing 16-bit words one at a time.
func Checksum(data []byte) uint16 {
	return fold(addWords(0, data))
}

// addWords accumulates data into a running ones-complement sum of
// big-endian 16-bit words, padding a trailing odd byte high. The
// returned value is reduced with end-around carry, which preserves it
// mod 0xFFFF and never turns a nonzero sum into zero (RFC 1071 §2), so
// only fold's result is meaningful. Callers splitting a buffer must
// split at even offsets to preserve word alignment.
func addWords(sum uint32, data []byte) uint32 {
	var s0, s1, s2, s3 uint64
	for ; len(data) >= 16; data = data[16:] {
		s0 += uint64(binary.BigEndian.Uint32(data[0:4]))
		s1 += uint64(binary.BigEndian.Uint32(data[4:8]))
		s2 += uint64(binary.BigEndian.Uint32(data[8:12]))
		s3 += uint64(binary.BigEndian.Uint32(data[12:16]))
	}
	acc := uint64(sum) + s0 + s1 + s2 + s3
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		acc += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if n%2 == 1 {
		acc += uint64(data[n-1]) << 8
	}
	acc = acc&0xFFFFFFFF + acc>>32
	acc = acc&0xFFFFFFFF + acc>>32
	return uint32(acc)
}

// fold reduces the running sum to ones-complement 16 bits.
func fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}

// frameChecksum computes the frame's checksum with the checksum field
// treated as zero — what Encode stores and Decode verifies — without
// copying the frame. The field sits at an even offset wholly inside
// the header, so skipping its word keeps the rest aligned.
func frameChecksum(frame []byte) uint16 {
	sum := addWords(0, frame[:checksumStart])
	sum = addWords(sum, frame[checksumStart+2:])
	return fold(sum)
}

// Encode builds a frame: 24-byte header followed by the payload. The
// checksum covers the header (with the checksum field zeroed) and the
// payload.
func Encode(h Header, payload []byte) ([]byte, error) {
	if len(payload) > maxPayload {
		return nil, ErrTooLarge
	}
	return AppendEncode(make([]byte, 0, headerBytes+len(payload)), h, payload)
}

// AppendEncode appends a complete frame for h and payload to dst and
// returns the extended slice — the recycled-buffer variant of Encode.
// The frame must start at dst's beginning: pass a zero-length slice
// (dst[:0] of a recycled buffer) or nil.
func AppendEncode(dst []byte, h Header, payload []byte) ([]byte, error) {
	frame := BeginFrame(dst)
	frame = append(frame, payload...)
	return FinishFrame(frame, h)
}

// BeginFrame appends a zeroed frame header to dst, to be followed by
// payload bytes appended by the caller and sealed by FinishFrame. The
// header must land at offset 0: dst is nil or a zero-length slice.
func BeginFrame(dst []byte) []byte {
	var zero [headerBytes]byte
	return append(dst, zero[:]...)
}

// FinishFrame seals a frame begun with BeginFrame: the header fields
// and checksum are written in place, the payload being whatever the
// caller appended between the two calls. h.Payload is ignored; the
// actual appended length is used.
func FinishFrame(frame []byte, h Header) ([]byte, error) {
	if len(frame) < headerBytes {
		return nil, ErrTruncated
	}
	payload := len(frame) - headerBytes
	if payload > maxPayload {
		return nil, ErrTooLarge
	}
	binary.BigEndian.PutUint16(frame[0:2], magic)
	frame[2] = version
	frame[3] = byte(h.Kind)
	binary.BigEndian.PutUint32(frame[4:8], h.CallID)
	binary.BigEndian.PutUint32(frame[8:12], h.ProcID)
	binary.BigEndian.PutUint32(frame[12:16], h.ClientID)
	binary.BigEndian.PutUint32(frame[16:20], h.Epoch)
	binary.BigEndian.PutUint32(frame[20:24], h.Expiry)
	frame[checksumStart], frame[checksumStart+1] = 0, 0
	binary.BigEndian.PutUint16(frame[26:28], uint16(payload))
	binary.BigEndian.PutUint16(frame[checksumStart:checksumStart+2], frameChecksum(frame))
	return frame, nil
}

// Decode parses and verifies a frame, returning the header and a view
// of the payload. Verification recomputes the checksum in place (the
// stored field is skipped, not zeroed), so decoding allocates nothing.
func Decode(frame []byte) (Header, []byte, error) {
	if len(frame) < headerBytes {
		return Header{}, nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(frame[0:2]) != magic {
		return Header{}, nil, ErrBadMagic
	}
	if frame[2] != version {
		return Header{}, nil, ErrBadVersion
	}
	h := Header{
		Kind:     MsgKind(frame[3]),
		CallID:   binary.BigEndian.Uint32(frame[4:8]),
		ProcID:   binary.BigEndian.Uint32(frame[8:12]),
		ClientID: binary.BigEndian.Uint32(frame[12:16]),
		Epoch:    binary.BigEndian.Uint32(frame[16:20]),
		Expiry:   binary.BigEndian.Uint32(frame[20:24]),
		Payload:  int(binary.BigEndian.Uint16(frame[26:28])),
	}
	if len(frame) != headerBytes+h.Payload {
		return Header{}, nil, ErrTruncated
	}
	got := binary.BigEndian.Uint16(frame[checksumStart : checksumStart+2])
	if frameChecksum(frame) != got {
		return Header{}, nil, ErrBadChecksum
	}
	return h, frame[headerBytes:], nil
}

func (k MsgKind) String() string {
	switch k {
	case KindCall:
		return "call"
	case KindReply:
		return "reply"
	case KindBatch:
		return "batch"
	case KindReject:
		return "reject"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// kindAttr preformats the "kind=…" attribute of a link event. These
// are compile-time constants, so tracing a frame's kind on the
// zero-alloc hot path costs nothing.
func kindAttr(k MsgKind) string {
	switch k {
	case KindCall:
		return "kind=call"
	case KindReply:
		return "kind=reply"
	case KindBatch:
		return "kind=batch"
	case KindReject:
		return "kind=reject"
	}
	return "kind=unknown"
}
