package wire

import (
	"encoding/binary"
	"errors"
	"slices"

	"archos/internal/faultplane"
	"archos/internal/ipc"
	"archos/internal/obs"
)

// Link is a full-duplex in-memory network link between two endpoints,
// with virtual-time accounting from the ipc network model and fault
// injection from one optional source, a faultplane.Injector: a seeded
// probabilistic Plane (loss, corruption, duplication, reordering,
// delay, bursts — the chaos soaks) or a deterministic Script (corrupt
// or drop frame #n — the surgical tests). Injected delay is charged to
// the link's virtual clock.
//
// A link belongs to the goroutine that owns its stack (see the package
// doc); the N callers sharing it are simulated clients that goroutine
// interleaves. Reply frames are demultiplexed into per-client receive
// queues (RecvClient) by the client ID in the frame header, so one
// caller draining the wire never discards another caller's reply.
// Frames too damaged to route — a bit flip in the header's routing
// fields — land in the shared direction queue, where any receiver may
// collect them and count the checksum failure, exactly as a shared
// Ethernet delivers damage to whoever listens.
type Link struct {
	Net ipc.NetworkConfig

	aToB  [][]byte
	bToA  [][]byte
	clock *VClock // virtual wire time; may be shared by several links

	// per-client reply queues, indexed by receiving endpoint then by
	// the client ID parsed (best-effort, pre-checksum) from the frame.
	// Client IDs are dense (1..nextClient), so each endpoint's queues
	// are a slice grown on demand; an ID past its end has no frames.
	clientQ [2][][][]byte

	// held frames: reordered by the fault plane, delivered after the
	// next frame sent in the same direction.
	heldAB [][]byte
	heldBA [][]byte

	// seq numbers transmitted frames (1-based, per link) — the sequence
	// fault decisions key on.
	seq int

	// fault injector; nil means a clean wire.
	plane faultplane.Injector

	// Opportunistic batching (off by default): Send stages eligible
	// frames instead of transmitting, and the receiver's poll flushes
	// everything staged in its direction as one KindBatch container —
	// one per-packet charge amortised over every coalesced frame, the
	// way a NIC coalesces interrupts. Staged frames are recycled copies;
	// stagedBytes tracks the container payload each direction has
	// accumulated so a flush never overflows maxPayload.
	batching    bool
	stageAB     [][]byte
	stageBA     [][]byte
	stagedBytes [2]int

	// batch telemetry: containers transmitted and frames they carried.
	batchesSent     int
	framesCoalesced int

	// observability recorder; nil means tracing disabled (the zero-cost
	// path: no header parsing, no event appends).
	obs *obs.Recorder

	nextClient uint32
}

// NewLink builds a link with the given network characteristics and its
// own private virtual clock.
func NewLink(net ipc.NetworkConfig) *Link {
	return NewLinkOnClock(net, NewVClock())
}

// NewLinkOnClock builds a link that charges its wire time to the given
// shared clock. A replicated service's links — client↔primary,
// client↔backup, primary↔backup — all tick one timeline, so an event on
// any link is ordered against events on every other.
func NewLinkOnClock(net ipc.NetworkConfig, clock *VClock) *Link {
	if clock == nil {
		clock = NewVClock()
	}
	return &Link{Net: net, clock: clock}
}

// VClock is a shared virtual-time source in microseconds. Every link
// created on the same VClock advances and reads the same timeline.
//
// A VClock is also the one object every link, client and server of a
// stack reaches, so it holds the stack's free lists (hotpath.go): the
// frame buffers, argument builders and handler carriers the stack
// recycles. They belong to the stack's goroutine like everything else
// in it, so independent stacks share no buffer.
type VClock struct {
	micros float64

	bufs  freeList[[]byte]
	args  freeList[*CallArgs]
	calls freeList[*rawCall]
}

// NewVClock builds a clock at time zero.
func NewVClock() *VClock { return &VClock{} }

// Clock returns the current virtual time; VClock satisfies obs.Clock.
func (v *VClock) Clock() float64 { return v.micros }

// add advances the clock by d and returns the new reading.
func (v *VClock) add(d float64) float64 {
	v.micros += d
	return v.micros
}

// Frames returns how many frames have been transmitted so far — the
// 1-based sequence fault decisions key on, so a test can aim a
// faultplane.Script at "the next frame" mid-run.
func (l *Link) Frames() int {
	return l.seq
}

// SetFaultPlane attaches the link's fault injector (package
// faultplane: a seeded Plane or a per-frame Script). Pass nil to
// detach.
func (l *Link) SetFaultPlane(p faultplane.Injector) {
	l.plane = p
}

// SetRecorder attaches an observability recorder; the clients and
// server on this link pick it up too. Build the recorder with this
// link as its clock — obs.NewRecorder(link) — so events carry the
// wire's virtual time. Pass nil to disable tracing (the default); a
// nil recorder costs the transport nothing.
func (l *Link) SetRecorder(r *obs.Recorder) {
	l.obs = r
}

// Recorder returns the attached recorder (nil when tracing is
// disabled).
func (l *Link) Recorder() *obs.Recorder {
	return l.obs
}

// Clock returns accumulated wire time in microseconds.
func (l *Link) Clock() float64 {
	return l.clock.Clock()
}

// VClock returns the link's virtual clock, for sharing with further
// links (NewLinkOnClock) or recorders.
func (l *Link) VClock() *VClock { return l.clock }

// AdvanceClock charges extra virtual time to the link — the client's
// retransmission backoff lives on the same clock as the wire itself.
func (l *Link) AdvanceClock(micros float64) {
	l.clock.add(micros)
}

// allocClientID hands out distinct caller identities on this link.
func (l *Link) allocClientID() uint32 {
	l.nextClient++
	return l.nextClient
}

// adoptClientID teaches the link about a caller identity allocated on
// another link, so reply routing (which validates IDs against the
// allocation high-water mark) accepts it here — the multi-endpoint
// client keeps one identity across every link it spans.
func (l *Link) adoptClientID(id uint32) {
	if id > l.nextClient {
		l.nextClient = id
	}
}

// Endpoint names a side of the link.
type Endpoint int

// A and B are the two sides of a link.
const (
	A Endpoint = iota
	B
)

func opposite(e Endpoint) Endpoint {
	if e == A {
		return B
	}
	return A
}

// queues returns the delivery and held queues for frames sent by from.
func (l *Link) queues(from Endpoint) (q, held *[][]byte) {
	if from == A {
		return &l.aToB, &l.heldAB
	}
	return &l.bToA, &l.heldBA
}

// stage returns the batching stage for frames sent by from.
func (l *Link) stage(from Endpoint) *[][]byte {
	if from == A {
		return &l.stageAB
	}
	return &l.stageBA
}

// EnableBatching turns opportunistic frame coalescing on or off.
// Disabling flushes anything still staged, so no frame is stranded.
// Off by default: batching changes how many wire transfers a workload
// performs, so deterministic goldens opt in explicitly.
func (l *Link) EnableBatching(on bool) {
	if l.batching && !on {
		l.flushBatch(A)
		l.flushBatch(B)
	}
	l.batching = on
}

// BatchStats reports how many containers this link has transmitted and
// how many frames they coalesced.
func (l *Link) BatchStats() (batches, frames int) {
	return l.batchesSent, l.framesCoalesced
}

// routeClientID extracts the client ID of a well-formed reply or
// reject frame without verifying the checksum — the routing a
// demultiplexer can do before integrity is known. Damaged routing
// fields simply misroute the frame; the receiver's checksum rejects it
// there.
func routeClientID(frame []byte) (uint32, bool) {
	if len(frame) < headerBytes {
		return 0, false
	}
	if binary.BigEndian.Uint16(frame[0:2]) != magic || frame[2] != version {
		return 0, false
	}
	if k := MsgKind(frame[3]); k != KindReply && k != KindReject {
		return 0, false
	}
	return binary.BigEndian.Uint32(frame[12:16]), true
}

// headerFields extracts the routing identity of a well-formed frame
// without verifying the checksum — the observability analogue of
// routeClientID. Unparseable frames trace with a zero identity.
func headerFields(frame []byte) (kind MsgKind, callID, clientID uint32) {
	if len(frame) < headerBytes {
		return 0, 0, 0
	}
	if binary.BigEndian.Uint16(frame[0:2]) != magic || frame[2] != version {
		return 0, 0, 0
	}
	return MsgKind(frame[3]),
		binary.BigEndian.Uint32(frame[4:8]),
		binary.BigEndian.Uint32(frame[12:16])
}

// looksLikeCall reports whether a frame parses as a call header —
// traffic that belongs to a server's Recv, not to a client scavenging
// damaged frames from the shared queue.
func looksLikeCall(frame []byte) bool {
	if len(frame) < headerBytes {
		return false
	}
	return binary.BigEndian.Uint16(frame[0:2]) == magic &&
		frame[2] == version && MsgKind(frame[3]) == KindCall
}

// deliver routes one in-flight frame to its receive queue: replies with
// a known client ID go to that client's queue; everything else — calls,
// acks, frames damaged beyond routing — goes to the shared direction
// queue. An intact batch container splits here — the receiving NIC's
// half of coalescing — and each coalesced frame routes independently; a
// damaged container cannot be split (its lengths are untrustworthy) and
// falls through whole to the shared queue, where a receiver counts the
// checksum failure, so corruption costs the entire batch exactly as
// dropping the container loses it.
func (l *Link) deliver(from Endpoint, frame []byte) {
	if payload, ok := batchPayload(frame); ok {
		for i := 0; i+4 <= len(payload); {
			n := int(binary.BigEndian.Uint32(payload[i:]))
			i += 4
			if i+n > len(payload) {
				break // unreachable behind the checksum; drop the tail
			}
			l.deliver(from, append(l.clock.getBuf(), payload[i:i+n]...))
			i += n
		}
		l.clock.putBuf(frame)
		return
	}
	to := opposite(from)
	if id, ok := routeClientID(frame); ok && id >= 1 && id <= l.nextClient {
		qs := &l.clientQ[to]
		if n := int(id) + 1; n > len(*qs) {
			*qs = slices.Grow(*qs, n-len(*qs))[:n]
		}
		(*qs)[id] = append((*qs)[id], frame)
		return
	}
	q, _ := l.queues(from)
	*q = append(*q, frame)
}

// batchPayload returns the verified payload of an intact KindBatch
// container, or ok=false for every other frame (including a damaged
// container, which must be delivered whole so the damage is observed).
func batchPayload(frame []byte) ([]byte, bool) {
	if len(frame) < headerBytes || MsgKind(frame[3]) != KindBatch {
		return nil, false
	}
	h, payload, err := Decode(frame)
	if err != nil || h.Kind != KindBatch {
		return nil, false
	}
	return payload, true
}

// flushHeld pushes every held (reordered) frame in the direction out
// through normal routing.
func (l *Link) flushHeld(from Endpoint) {
	_, held := l.queues(from)
	if len(*held) == 0 {
		return
	}
	frames := *held
	*held = nil
	for _, f := range frames {
		l.deliver(from, f)
	}
}

// Send transmits a frame from the endpoint; the peer's Recv (or the
// addressed client's RecvClient) will see it unless dropped. Corruption
// flips a bit but still delivers; duplicated frames arrive twice — even
// when the original is simultaneously reordered; reordered frames
// arrive behind the next frame sent the same way; injected delay
// advances the virtual clock.
//
// With batching enabled, an eligible frame is staged instead: it waits,
// copied but uncharged, until the receiving side polls, and then rides
// a single container transfer with everything else staged meanwhile.
// Frames too large to share a container (and anything that would
// overflow one) flush the stage first, preserving send order.
func (l *Link) Send(from Endpoint, frame []byte) {
	if l.batching {
		entry := 4 + len(frame)
		d := int(from)
		if l.stagedBytes[d]+entry > maxPayload {
			l.flushBatch(from)
		}
		if entry <= maxPayload {
			if l.obs != nil {
				kind, callID, clientID := headerFields(frame)
				l.obs.EmitAt(obs.Event{T: l.clock.Clock(), Layer: "link", Name: "stage",
					Client: clientID, Call: callID, Val: float64(len(frame)), Attrs: kindAttr(kind)})
			}
			st := l.stage(from)
			*st = append(*st, append(l.clock.getBuf(), frame...))
			l.stagedBytes[d] += entry
			return
		}
		// An oversized frame travels alone, behind what was staged.
	}
	l.transmit(from, frame, false)
}

// flushBatch transmits everything staged in the direction as one
// KindBatch container (a lone staged frame skips the container and
// degenerates to a plain transmission). The container is one wire unit:
// one per-packet charge, one fault-plane decision — drop loses the
// whole batch, corruption damages it whole.
func (l *Link) flushBatch(from Endpoint) {
	st := l.stage(from)
	staged := *st
	if len(staged) == 0 {
		return
	}
	*st = (*st)[:0]
	l.stagedBytes[from] = 0
	if len(staged) == 1 {
		l.transmit(from, staged[0], true)
		return
	}
	payload := l.clock.getBuf()
	for _, f := range staged {
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(f)))
		payload = append(payload, f...)
		l.clock.putBuf(f)
	}
	container, err := AppendEncode(l.clock.getBuf(), Header{Kind: KindBatch}, payload)
	l.clock.putBuf(payload)
	if err != nil {
		panic(err) // staging bounds the payload; cannot happen
	}
	l.batchesSent++
	l.framesCoalesced += len(staged)
	if l.obs != nil {
		l.obs.Observe("wire.batch.frames", float64(len(staged)))
		l.obs.Observe("wire.batch.bytes", float64(len(container)))
		l.obs.EmitAt(obs.Event{T: l.clock.Clock(), Layer: "link", Name: "flush",
			Val: float64(len(staged))})
	}
	l.transmit(from, container, true)
}

// transmit is the wire proper: virtual-time charge, fault decisions,
// and delivery for one transmitted unit. owned marks a frame the link
// already holds a recycled copy of (a flushed stage or a built
// container); an unowned frame is copied first, because the sender may
// reuse its buffer the moment Send returns.
func (l *Link) transmit(from Endpoint, frame []byte, owned bool) {
	l.seq++
	wireMicros := l.Net.PacketMicros(len(frame))
	now := l.clock.add(wireMicros)
	// Tracing stamps the reading this charge returned (EmitAt), so the
	// event's timestamp and the frame's position in the decision stream
	// can never disagree. All of it is skipped when no recorder is
	// attached, and the typed fields keep it free of allocation when one
	// is.
	var callID, clientID uint32
	if l.obs != nil {
		var kind MsgKind
		kind, callID, clientID = headerFields(frame)
		l.obs.EmitAt(obs.Event{T: now, Layer: "link", Name: "send",
			Client: clientID, Call: callID,
			Dur: wireMicros, Val: float64(len(frame)), Attrs: kindAttr(kind)})
	}
	var d faultplane.Decision
	if l.plane != nil {
		d = l.plane.Decide(l.seq, len(frame))
	}
	if d.DelayMicros > 0 {
		now = l.clock.add(d.DelayMicros)
		if l.obs != nil {
			l.obs.EmitAt(obs.Event{T: now, Layer: "fault", Name: "delay",
				Client: clientID, Call: callID, Dur: d.DelayMicros})
		}
	}
	if d.Drop {
		if l.obs != nil {
			l.obs.EmitAt(obs.Event{T: now, Layer: "fault", Name: "drop", Client: clientID, Call: callID})
		}
		if owned {
			l.clock.putBuf(frame)
		}
		return
	}
	// The in-flight copy (the sender may reuse its buffer immediately)
	// comes from the stack's free list; the terminal consumer recycles
	// it — the server's pump after dispatch, the client's reply filter
	// for discarded frames, a header-only receive for every frame. An
	// accepted reply is recycled last: its payload is handed to the
	// caller as a view, so the client keeps the buffer until it places
	// its next call. An owned frame is already the link's recycled copy
	// and goes out as it is.
	out := frame
	if !owned {
		out = append(l.clock.getBuf(), frame...)
	}
	if d.Corrupt {
		flipBit(out, d.CorruptOffset)
		if l.obs != nil {
			l.obs.EmitAt(obs.Event{T: now, Layer: "fault", Name: "corrupt", Client: clientID, Call: callID})
		}
	}
	_, held := l.queues(from)
	delivered := 0
	if d.Reorder {
		if l.obs != nil {
			l.obs.EmitAt(obs.Event{T: now, Layer: "fault", Name: "reorder", Client: clientID, Call: callID})
		}
		*held = append(*held, out)
	} else {
		l.deliver(from, out)
		delivered++
	}
	if d.Duplicate {
		dup := append(l.clock.getBuf(), out...)
		now = l.clock.add(l.Net.PacketMicros(len(out))) // the copy occupies the wire too
		if l.obs != nil {
			l.obs.EmitAt(obs.Event{T: now, Layer: "fault", Name: "duplicate", Client: clientID, Call: callID})
		}
		l.deliver(from, dup)
		delivered++
	}
	// A delivered frame pushes any held (reordered) frames out behind
	// it — including the original of a frame that was both duplicated
	// and reordered, which must still arrive twice.
	if delivered > 0 {
		l.flushHeld(from)
	}
}

// flipBit damages one payload bit (or the checksum field of a bare
// header) so the receiver's checksum rejects the frame.
func flipBit(frame []byte, offset int) {
	if len(frame) <= headerBytes {
		if len(frame) > checksumStart {
			frame[checksumStart] ^= 0x01
		}
		return
	}
	p := headerBytes + offset%(len(frame)-headerBytes)
	frame[p] ^= 1 << uint(offset%8)
}

// PurgeToward drops every frame pending in the shared direction queue
// toward at — the input buffer a crashing server process loses with
// its address space. Per-client reply queues (owned by the peers on
// the other side) and held reordered frames (still in flight on the
// wire) are the network's, not the process's, and survive the crash.
// Returns the number of frames lost.
func (l *Link) PurgeToward(at Endpoint) int {
	q, _ := l.queues(opposite(at))
	n := len(*q)
	for _, f := range *q {
		l.clock.putBuf(f)
	}
	*q = nil
	return n
}

// ErrEmpty is returned by Recv when no frame is pending.
var ErrEmpty = errors.New("wire: no frame pending")

// Recv returns the next frame addressed to the endpoint from the shared
// direction queue — the server's receive path (calls and unroutable
// damage). Client-addressed replies are not visible here; they wait in
// their per-client queues for RecvClient.
func (l *Link) Recv(at Endpoint) ([]byte, error) {
	from := opposite(at)
	q, held := l.queues(from)
	if len(*q) == 0 && len(*held) > 0 {
		// Nothing will ever push a lone reordered frame through; it
		// degrades to plain delay rather than loss.
		l.flushHeld(from)
	}
	if len(*q) == 0 && l.batching {
		// The receiver polling is what moves a staged batch: flush
		// whatever has coalesced in this direction since the last poll.
		l.flushBatch(from)
	}
	if len(*q) == 0 {
		return nil, ErrEmpty
	}
	f := popFrame(q)
	return f, nil
}

// popFrame dequeues the head frame. Draining the queue rewinds the
// slice to its backing array's head instead of sliding forward, so the
// steady state — queue emptied every pump — reuses one array forever
// rather than reallocating on every append.
func popFrame(q *[][]byte) []byte {
	f := (*q)[0]
	(*q)[0] = nil
	if len(*q) == 1 {
		*q = (*q)[:0]
	} else {
		*q = (*q)[1:]
	}
	return f
}

// RecvClient returns the next frame addressed to the given client at
// the endpoint. When the client's queue is empty it first flushes any
// lone reordered frames through routing, then falls back to collecting
// one unroutable (damaged) frame from the shared queue so checksum
// failures are observed and counted rather than pooling forever.
func (l *Link) RecvClient(at Endpoint, clientID uint32) ([]byte, error) {
	from := opposite(at)
	if l.queued(at, clientID) == 0 {
		l.flushHeld(from)
		if l.batching && l.queued(at, clientID) == 0 {
			l.flushBatch(from)
		}
	}
	if l.queued(at, clientID) > 0 {
		return popFrame(&l.clientQ[at][clientID]), nil
	}
	// Damaged frames that could not be routed sit in the shared queue;
	// any client may collect one — but never a well-formed call, which
	// belongs to the server on this side.
	q, _ := l.queues(from)
	if len(*q) > 0 && !looksLikeCall((*q)[0]) {
		f := popFrame(q)
		return f, nil
	}
	return nil, ErrEmpty
}

// queued returns how many frames wait in clientID's reply queue at
// endpoint at.
func (l *Link) queued(at Endpoint, clientID uint32) int {
	if qs := l.clientQ[at]; int(clientID) < len(qs) {
		return len(qs[clientID])
	}
	return 0
}

// RecvClientHeader is RecvClient for a caller that reads only headers:
// it pops the client's next frame, decodes and verifies it, returns
// the buffer to the stack's free list — a damaged frame too — and hands
// back the header alone, so no view into the recycled buffer escapes.
// A damaged frame returns its decode error, an empty queue ErrEmpty.
func (l *Link) RecvClientHeader(at Endpoint, clientID uint32) (Header, error) {
	frame, err := l.RecvClient(at, clientID)
	if err != nil {
		return Header{}, err
	}
	h, _, err := Decode(frame)
	l.clock.putBuf(frame)
	return h, err
}
