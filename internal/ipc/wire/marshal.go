package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The argument marshaller: what an RPC stub compiler emits. Values are
// encoded as a tag byte followed by a fixed- or length-prefixed body.
// Supported types cover the paper's RPC workloads: integers, strings,
// byte buffers, booleans, and float64s.
//
// The typed family (AppendUint32 … AppendBytes and the Args cursor) is
// what a stub compiler would emit for a known signature — it writes
// into a caller-owned buffer and reads without boxing, so the steady-
// state hot path allocates nothing in the codec. Every handler and
// every stub uses it. The boxed pair (AppendMarshal/Unmarshal over
// []interface{}) writes the same format; it serves only the Call codec
// adapters, for callers without a typed stub.

type tag byte

const (
	tagU32 tag = iota + 1
	tagU64
	tagI64
	tagBool
	tagF64
	tagString
	tagBytes
)

// ErrBadArgument reports an unsupported type passed to AppendMarshal.
var ErrBadArgument = errors.New("wire: unsupported argument type")

// ErrBadEncoding reports a malformed argument stream.
var ErrBadEncoding = errors.New("wire: malformed argument encoding")

// AppendMarshal encodes a boxed parameter list into stub wire format,
// appending to dst. On error dst is returned unchanged.
func AppendMarshal(dst []byte, args ...interface{}) ([]byte, error) {
	out := dst
	for _, a := range args {
		switch v := a.(type) {
		case uint32:
			out = AppendUint32(out, v)
		case uint64:
			out = AppendUint64(out, v)
		case int:
			out = AppendInt64(out, int64(v))
		case int64:
			out = AppendInt64(out, v)
		case bool:
			out = AppendBool(out, v)
		case float64:
			out = AppendFloat64(out, v)
		case string:
			if len(v) > maxPayload {
				return dst, ErrTooLarge
			}
			out = AppendString(out, v)
		case []byte:
			if len(v) > maxPayload {
				return dst, ErrTooLarge
			}
			out = AppendBytes(out, v)
		default:
			return dst, fmt.Errorf("%w: %T", ErrBadArgument, a)
		}
	}
	return out, nil
}

// The typed appenders: one per supported kind, no boxing, no errors.
// Oversized strings and buffers are caught where they must be — a
// length prefix above maxPayload is rejected by every decoder, and a
// payload above maxPayload is rejected by the frame encoder — so the
// appenders themselves stay on the no-branch fast path.

// AppendUint32 appends a tagged uint32.
func AppendUint32(dst []byte, v uint32) []byte {
	dst = append(dst, byte(tagU32))
	return binary.BigEndian.AppendUint32(dst, v)
}

// AppendUint64 appends a tagged uint64.
func AppendUint64(dst []byte, v uint64) []byte {
	dst = append(dst, byte(tagU64))
	return binary.BigEndian.AppendUint64(dst, v)
}

// AppendInt64 appends a tagged int64 (the encoding of int and int64).
func AppendInt64(dst []byte, v int64) []byte {
	dst = append(dst, byte(tagI64))
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

// AppendBool appends a tagged bool.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, byte(tagBool), 1)
	}
	return append(dst, byte(tagBool), 0)
}

// AppendFloat64 appends a tagged float64.
func AppendFloat64(dst []byte, v float64) []byte {
	dst = append(dst, byte(tagF64))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends a tagged, length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, byte(tagString))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendText appends msg+sep+string(name) as one tagged, length-prefixed
// string: exactly the bytes AppendString appends for the joined text,
// written piece by piece, so the text is never built.
func AppendText[N ~string | ~[]byte](dst []byte, msg, sep string, name N) []byte {
	dst = append(dst, byte(tagString))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg)+len(sep)+len(name)))
	return append(append(append(dst, msg...), sep...), name...)
}

// AppendBytes appends a tagged, length-prefixed byte buffer.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = append(dst, byte(tagBytes))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// Unmarshal decodes a stub-format argument stream back into values.
// Every kind decodes to the type it was marshalled as: uint32 and
// uint64 stay unsigned at their width, int and int64 both decode to
// int64, plus bool, float64, string, and []byte (copied). Length
// prefixes are bounded by maxPayload, exactly as AppendMarshal bounds
// them on the way in, so a corrupted length can neither overflow int
// on 32-bit platforms nor demand an absurd allocation.
func Unmarshal(data []byte) ([]interface{}, error) {
	var out []interface{}
	i := 0
	need := func(n int) error {
		if i+n > len(data) {
			return ErrBadEncoding
		}
		return nil
	}
	for i < len(data) {
		t := tag(data[i])
		i++
		switch t {
		case tagU32:
			if err := need(4); err != nil {
				return nil, err
			}
			out = append(out, binary.BigEndian.Uint32(data[i:]))
			i += 4
		case tagU64:
			if err := need(8); err != nil {
				return nil, err
			}
			out = append(out, binary.BigEndian.Uint64(data[i:]))
			i += 8
		case tagI64:
			if err := need(8); err != nil {
				return nil, err
			}
			out = append(out, int64(binary.BigEndian.Uint64(data[i:])))
			i += 8
		case tagBool:
			if err := need(1); err != nil {
				return nil, err
			}
			out = append(out, data[i] != 0)
			i++
		case tagF64:
			if err := need(8); err != nil {
				return nil, err
			}
			out = append(out, math.Float64frombits(binary.BigEndian.Uint64(data[i:])))
			i += 8
		case tagString:
			if err := need(4); err != nil {
				return nil, err
			}
			u := binary.BigEndian.Uint32(data[i:])
			if u > maxPayload {
				return nil, ErrBadEncoding
			}
			n := int(u)
			i += 4
			if err := need(n); err != nil {
				return nil, err
			}
			out = append(out, string(data[i:i+n]))
			i += n
		case tagBytes:
			if err := need(4); err != nil {
				return nil, err
			}
			u := binary.BigEndian.Uint32(data[i:])
			if u > maxPayload {
				return nil, ErrBadEncoding
			}
			n := int(u)
			i += 4
			if err := need(n); err != nil {
				return nil, err
			}
			b := make([]byte, n)
			copy(b, data[i:i+n])
			out = append(out, b)
			i += n
		default:
			return nil, fmt.Errorf("%w: tag %d", ErrBadEncoding, t)
		}
	}
	return out, nil
}

// Args is a typed cursor over a stub-format value stream — the
// zero-boxing counterpart of Unmarshal. A handler that knows its
// signature reads each argument with the matching getter; a client
// reads its reply results the same way. Errors are sticky: the first
// type mismatch, truncation, or oversized length poisons the cursor,
// every later getter returns a zero value, and Err reports the fault
// once at the end — so a decode sequence needs exactly one check.
//
// Getters return views, not copies: Bytes aliases the underlying
// stream — the point being that the hot path copies payload bytes zero
// times between frame and handler. Lifetime follows the stream's
// owner: a server-side handler's argument views expire when the
// handler returns (the pump recycles the call frame afterwards), so a
// handler that keeps bytes must copy them; a client's result cursor
// views that client's reply buffer, which is recycled when the client
// places its next call, so a caller that keeps bytes past that call
// must copy them too.
type Args struct {
	data []byte
	off  int
	err  error
}

// NewArgs builds a cursor over a marshalled value stream (an argument
// payload or a reply body).
func NewArgs(payload []byte) Args { return Args{data: payload} }

// Err returns the first decode fault, or nil if every read so far was
// well-typed and in bounds.
func (a *Args) Err() error { return a.err }

// More reports whether undecoded values remain (and no fault occurred).
func (a *Args) More() bool { return a.err == nil && a.off < len(a.data) }

// fail poisons the cursor.
func (a *Args) fail() {
	if a.err == nil {
		a.err = ErrBadEncoding
	}
}

// fixed consumes a tag byte of kind want plus n body bytes, returning
// the body offset, or -1 after poisoning the cursor.
func (a *Args) fixed(want tag, n int) int {
	if a.err != nil {
		return -1
	}
	if a.off >= len(a.data) || tag(a.data[a.off]) != want || a.off+1+n > len(a.data) {
		a.fail()
		return -1
	}
	at := a.off + 1
	a.off = at + n
	return at
}

// Uint32 decodes the next value, which must be a uint32.
func (a *Args) Uint32() uint32 {
	at := a.fixed(tagU32, 4)
	if at < 0 {
		return 0
	}
	return binary.BigEndian.Uint32(a.data[at:])
}

// Uint64 decodes the next value, which must be a uint64.
func (a *Args) Uint64() uint64 {
	at := a.fixed(tagU64, 8)
	if at < 0 {
		return 0
	}
	return binary.BigEndian.Uint64(a.data[at:])
}

// Int64 decodes the next value, which must be an int or int64.
func (a *Args) Int64() int64 {
	at := a.fixed(tagI64, 8)
	if at < 0 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(a.data[at:]))
}

// Bool decodes the next value, which must be a bool.
func (a *Args) Bool() bool {
	at := a.fixed(tagBool, 1)
	if at < 0 {
		return false
	}
	return a.data[at] != 0
}

// Float64 decodes the next value, which must be a float64.
func (a *Args) Float64() float64 {
	at := a.fixed(tagF64, 8)
	if at < 0 {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(a.data[at:]))
}

// varlen consumes a tagged, length-prefixed body and returns it as a
// view into the stream.
func (a *Args) varlen(want tag) []byte {
	if a.err != nil {
		return nil
	}
	if a.off >= len(a.data) || tag(a.data[a.off]) != want || a.off+5 > len(a.data) {
		a.fail()
		return nil
	}
	u := binary.BigEndian.Uint32(a.data[a.off+1:])
	if u > maxPayload {
		a.fail()
		return nil
	}
	n := int(u)
	at := a.off + 5
	if at+n > len(a.data) {
		a.fail()
		return nil
	}
	a.off = at + n
	return a.data[at : at+n]
}

// String decodes the next value, which must be a string. This is the
// one getter that allocates — strings are immutable, the stream is not.
func (a *Args) String() string { return string(a.varlen(tagString)) }

// StringBytes decodes the next value, which must be a string, as a view
// of its bytes aliasing the stream — no copy, and the view's lifetime
// is the stream's: a handler that looks a path up and keeps nothing of
// it reads the path without allocating.
func (a *Args) StringBytes() []byte { return a.varlen(tagString) }

// Bytes decodes the next value, which must be a byte buffer, as a view
// aliasing the stream — no copy.
func (a *Args) Bytes() []byte { return a.varlen(tagBytes) }
