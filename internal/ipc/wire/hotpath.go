package wire

import "sync"

// The hot-path buffer plumbing: pooled frame buffers and the two
// stub-style builders — CallArgs on the client side, Reply on the
// server side — that write typed values straight into a frame with the
// header reserved in place, so the steady-state call path performs no
// per-call allocation in the codec: no boxed []interface{}, no
// payload→frame copy, no fresh frame buffer.

// bufPool recycles frame buffers. Buffers enter the pool when a cached
// reply frame is replaced or evicted, when a call frame finishes its
// retry loop, when a client places the call after the one whose reply
// it accepted, and when a header-only receive (Link.RecvClientHeader)
// has read a frame; they leave it for the next call or reply built on
// this process. Oversized buffers are dropped so one huge payload cannot pin
// memory forever.
var bufPool = sync.Pool{
	New: func() interface{} {
		p := hdrPool.Get().(*[]byte)
		*p = make([]byte, 0, 512)
		return p
	},
}

// hdrPool recycles the *[]byte boxes the buffer pool traffics in:
// without it every putBuf would heap-allocate a fresh slice header to
// hand to sync.Pool, costing an allocation to save one. Headers cycle
// between the pools — getBuf frees a header that the next putBuf or
// bufPool miss reuses — so the steady state allocates no buffer or box.
var hdrPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// maxPooledBuf bounds what returns to the pool: a frame is at most
// header + maxPayload, anything bigger is a batching container that
// grew unusually — let the GC have it.
const maxPooledBuf = headerBytes + maxPayload

func getBuf() []byte {
	p := bufPool.Get().(*[]byte)
	b := *p
	*p = nil
	hdrPool.Put(p)
	return b[:0]
}

func putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	p := hdrPool.Get().(*[]byte)
	*p = b[:0]
	bufPool.Put(p)
}

// CallArgs builds one call's argument payload directly into a pooled
// frame buffer, header space reserved up front. Obtain one from
// NewCallArgs, append the procedure's arguments with the typed methods,
// and pass it to CallRaw (of a Client or a FailoverClient) — which
// seals the frame, drives the call, and recycles the buffer. The
// writers mirror the Append* marshallers one-to-one.
type CallArgs struct {
	frame []byte
}

var callArgsPool = sync.Pool{New: func() interface{} { return new(CallArgs) }}

// NewCallArgs returns a pooled argument builder with frame header space
// reserved. It must be passed to CallRaw (which releases it); building
// one and abandoning it leaks nothing but forfeits the pooled buffer.
func (c *Client) NewCallArgs() *CallArgs {
	w := callArgsPool.Get().(*CallArgs)
	if w.frame == nil {
		w.frame = getBuf()
	}
	w.frame = BeginFrame(w.frame[:0])
	return w
}

// Uint32 appends a uint32 argument.
func (w *CallArgs) Uint32(v uint32) { w.frame = AppendUint32(w.frame, v) }

// Uint64 appends a uint64 argument.
func (w *CallArgs) Uint64(v uint64) { w.frame = AppendUint64(w.frame, v) }

// Int64 appends an int64 argument.
func (w *CallArgs) Int64(v int64) { w.frame = AppendInt64(w.frame, v) }

// Bool appends a bool argument.
func (w *CallArgs) Bool(v bool) { w.frame = AppendBool(w.frame, v) }

// Float64 appends a float64 argument.
func (w *CallArgs) Float64(v float64) { w.frame = AppendFloat64(w.frame, v) }

// String appends a string argument.
func (w *CallArgs) String(v string) { w.frame = AppendString(w.frame, v) }

// Bytes appends a byte-buffer argument.
func (w *CallArgs) Bytes(v []byte) { w.frame = AppendBytes(w.frame, v) }

// marshal appends boxed arguments — the codec half of the Call
// adapters. On error the builder is released: the call is never placed.
func (w *CallArgs) marshal(args []interface{}) error {
	frame, err := AppendMarshal(w.frame, args...)
	if err != nil {
		w.release()
		return err
	}
	w.frame = frame
	return nil
}

// release returns the builder (and its buffer) to the pools.
func (w *CallArgs) release() {
	if cap(w.frame) > maxPooledBuf {
		w.frame = nil
	}
	callArgsPool.Put(w)
}

// rawCall carries the cursor and builder handed to a raw handler. The
// pair is pooled and passed by pointer so neither escapes to the heap
// per call; a handler must not retain either past its return.
type rawCall struct {
	args Args
	rep  Reply
}

var rawCallPool = sync.Pool{New: func() interface{} { return new(rawCall) }}

// Reply builds a raw handler's results directly into the reply frame,
// header space and the ok flag already written by the dispatcher. The
// writers mirror the Append* marshallers one-to-one; a handler appends
// its results in signature order and returns.
type Reply struct {
	frame []byte
}

// Uint32 appends a uint32 result.
func (r *Reply) Uint32(v uint32) { r.frame = AppendUint32(r.frame, v) }

// Uint64 appends a uint64 result.
func (r *Reply) Uint64(v uint64) { r.frame = AppendUint64(r.frame, v) }

// Int64 appends an int64 result.
func (r *Reply) Int64(v int64) { r.frame = AppendInt64(r.frame, v) }

// Bool appends a bool result.
func (r *Reply) Bool(v bool) { r.frame = AppendBool(r.frame, v) }

// Float64 appends a float64 result.
func (r *Reply) Float64(v float64) { r.frame = AppendFloat64(r.frame, v) }

// String appends a string result.
func (r *Reply) String(v string) { r.frame = AppendString(r.frame, v) }

// Bytes appends a byte-buffer result.
func (r *Reply) Bytes(v []byte) { r.frame = AppendBytes(r.frame, v) }
