package wire

// The hot-path buffer plumbing: each stack's free lists of frame
// buffers, argument builders and handler carriers, and the two
// stub-style builders — CallArgs on the client side, Reply on the
// server side — that write typed values straight into a frame with the
// header reserved in place, so the steady-state call path performs no
// per-call allocation in the codec: no boxed []interface{}, no
// payload→frame copy, no fresh frame buffer.

// freeList is a LIFO of recycled values, one per kind on each stack's
// VClock. The stack's goroutine is its only user (see the package
// doc), so it takes no lock and pins nothing to a processor. LIFO
// suits the nesting: a primary's handler builds the ship call while
// its client's builder is live, and each backup's handler runs inside
// the primary's dispatch, so the value taken last is returned first.
type freeList[T any] struct {
	items []T
}

// maxFree caps each free list. Only memory depends on it: a put past
// the cap drops the value to the GC, and a get from an empty list
// makes a fresh one. A call takes and returns a handful of frames, so
// 64 covers the steady state; a burst beyond it (a crash purging a
// deep queue, a state transfer) hands the excess back to the GC.
const maxFree = 64

func (f *freeList[T]) get() (x T, ok bool) {
	n := len(f.items) - 1
	if n < 0 {
		return x, false
	}
	x = f.items[n]
	var zero T
	f.items[n] = zero
	f.items = f.items[:n]
	return x, true
}

func (f *freeList[T]) put(x T) {
	if len(f.items) < maxFree {
		f.items = append(f.items, x)
	}
}

// maxRecycledBuf bounds what returns to a free list: a frame is at most
// header + maxPayload, anything bigger is a batching container that
// grew unusually — let the GC have it.
const maxRecycledBuf = headerBytes + maxPayload

// getBuf takes a frame buffer from the stack's free list, or makes one
// when the list is empty. Buffers enter the list when a cached reply
// frame is replaced or evicted, when a call frame finishes its retry
// loop, when a client places the call after the one whose reply it
// accepted, and when a header-only receive (Link.RecvClientHeader) has
// read a frame; they leave it for the next call, reply or in-flight
// copy built on the same stack.
func (v *VClock) getBuf() []byte {
	if b, ok := v.bufs.get(); ok {
		return b
	}
	return make([]byte, 0, 512)
}

// putBuf returns a frame buffer to the stack's free list. Oversized
// buffers are dropped so one huge payload cannot pin memory forever,
// and so is every buffer past the list's cap.
func (v *VClock) putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxRecycledBuf {
		return
	}
	v.bufs.put(b[:0])
}

// CallArgs builds one call's argument payload directly into a recycled
// frame buffer, header space reserved up front. Obtain one from
// NewCallArgs, append the procedure's arguments with the typed methods,
// and pass it to CallRaw (of a Client or a FailoverClient) — which
// seals the frame, drives the call, and recycles the builder with its
// buffer. The writers mirror the Append* marshallers one-to-one.
type CallArgs struct {
	frame []byte
	clock *VClock // the stack whose free list the builder returns to
}

// NewCallArgs returns an argument builder from the stack's free list,
// with frame header space reserved. It must be passed to CallRaw (which
// releases it); building one and abandoning it leaks nothing but
// forfeits the recycled buffer.
func (c *Client) NewCallArgs() *CallArgs {
	v := c.link.clock
	w, ok := v.args.get()
	if !ok {
		w = &CallArgs{clock: v}
	}
	if w.frame == nil {
		w.frame = v.getBuf()
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

// release returns the builder, with its buffer, to the free list of
// the stack it came from.
func (w *CallArgs) release() {
	if cap(w.frame) > maxRecycledBuf {
		w.frame = nil
	}
	w.clock.args.put(w)
}

// rawCall carries the cursor and builder handed to a raw handler. The
// pair comes from the stack's free list and is passed by pointer so
// neither escapes to the heap per call; a handler must not retain
// either past its return.
type rawCall struct {
	args Args
	rep  Reply
}

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

// FailReply rewrites the reply under construction as the failure
// [false, msg+sep+string(name)], discarding any results, with the text
// written piece by piece (AppendText). The handler then returns nil:
// the reply is the same one returning an error of that text would
// give, and the text is never built.
func FailReply[N ~string | ~[]byte](rep *Reply, msg, sep string, name N) {
	rep.frame = AppendText(AppendBool(BeginFrame(rep.frame[:0]), false), msg, sep, name)
}
