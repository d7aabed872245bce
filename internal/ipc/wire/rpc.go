package wire

import (
	"errors"
	"fmt"
	"strconv"

	"archos/internal/faultplane"
	"archos/internal/obs"
)

// RawHandler implements one remote procedure, the form a stub compiler
// emits: arguments are read from a typed cursor in signature order and
// results appended to the reply builder the same way — nothing boxed on
// either side, and the results land directly in the reply frame. The
// decoded call header carries the caller's identity (ClientID, CallID),
// which a service can thread into durable records — the file server's
// write-ahead log keys its at-most-once state on exactly this pair. A
// handler that detects bad arguments may simply return; the dispatcher
// checks the cursor's Err and converts the decode fault into an error
// reply.
type RawHandler func(h Header, args *Args, rep *Reply) error

// DedupAuthority is the server's durable at-most-once record, consulted
// when the in-memory reply cache has no entry for a caller — after a
// restart wiped the cache, or after LRU eviction narrowed the window.
// It returns the client's last executed call ID and a regenerated reply
// frame for it (nil when the reply cannot be encoded; the duplicate is
// still suppressed). ok reports whether the client is known at all.
type DedupAuthority func(clientID uint32) (callID uint32, frame []byte, ok bool)

// Stats is the structured counter set of one side of a connection.
// Server-side fields count frames arriving at and leaving the server;
// client-side fields count the retransmission machinery. Add merges the
// two views into one transport picture, and Metrics writes it into a
// report's snapshot.
type Stats struct {
	// Server side.
	Served               int // replies transmitted for freshly executed calls
	BadFrames            int // frames the codec rejected (corruption, truncation)
	EncodeErrors         int // replies lost because they could not be encoded (oversized)
	DuplicatesSuppressed int // retransmitted calls answered from the reply cache
	LogDuplicates        int // retransmitted calls answered from the durable log authority
	StaleFrames          int // frames for a superseded call, discarded
	RepliesEvicted       int // reply-cache entries evicted by the LRU bound
	Crashes              int // times the server process died (injected or forced)
	Restarts             int // times the server restarted into a new epoch
	ShedExpired          int // calls shed unexecuted: their propagated deadline had passed

	// Client side.
	Retries               int     // retransmissions performed
	BackoffMicros         float64 // virtual time spent backing off between retries
	DeadlineExceeded      int     // calls that ended in ErrDeadlineExceeded when the deadline budget ran out
	SessionsReestablished int     // epoch bumps observed: sessions re-established with a restarted server
	FencedReplies         int     // replies discarded because their epoch predates the fence
	Failovers             int     // endpoint switches performed by a FailoverClient
	Rejects               int     // KindReject frames received from an overloaded server
}

// Add returns the field-wise sum of two stat sets.
func (s Stats) Add(o Stats) Stats {
	s.Served += o.Served
	s.BadFrames += o.BadFrames
	s.EncodeErrors += o.EncodeErrors
	s.DuplicatesSuppressed += o.DuplicatesSuppressed
	s.LogDuplicates += o.LogDuplicates
	s.StaleFrames += o.StaleFrames
	s.RepliesEvicted += o.RepliesEvicted
	s.Crashes += o.Crashes
	s.Restarts += o.Restarts
	s.ShedExpired += o.ShedExpired
	s.Retries += o.Retries
	s.BackoffMicros += o.BackoffMicros
	s.DeadlineExceeded += o.DeadlineExceeded
	s.SessionsReestablished += o.SessionsReestablished
	s.FencedReplies += o.FencedReplies
	s.Failovers += o.Failovers
	s.Rejects += o.Rejects
	return s
}

// Metrics writes one row per counter into out, named prefix plus the
// field's name.
func (s Stats) Metrics(prefix string, out map[string]float64) {
	out[prefix+"Served"] = float64(s.Served)
	out[prefix+"BadFrames"] = float64(s.BadFrames)
	out[prefix+"EncodeErrors"] = float64(s.EncodeErrors)
	out[prefix+"DuplicatesSuppressed"] = float64(s.DuplicatesSuppressed)
	out[prefix+"LogDuplicates"] = float64(s.LogDuplicates)
	out[prefix+"StaleFrames"] = float64(s.StaleFrames)
	out[prefix+"RepliesEvicted"] = float64(s.RepliesEvicted)
	out[prefix+"Crashes"] = float64(s.Crashes)
	out[prefix+"Restarts"] = float64(s.Restarts)
	out[prefix+"ShedExpired"] = float64(s.ShedExpired)
	out[prefix+"Retries"] = float64(s.Retries)
	out[prefix+"BackoffMicros"] = s.BackoffMicros
	out[prefix+"DeadlineExceeded"] = float64(s.DeadlineExceeded)
	out[prefix+"SessionsReestablished"] = float64(s.SessionsReestablished)
	out[prefix+"FencedReplies"] = float64(s.FencedReplies)
	out[prefix+"Failovers"] = float64(s.Failovers)
	out[prefix+"Rejects"] = float64(s.Rejects)
}

// Server dispatches calls arriving at one end of a link with
// at-most-once execution semantics: a bounded, LRU-evicting per-client
// reply cache answers retransmitted calls without re-running the
// handler, so non-idempotent procedures survive a lossy wire.
//
// A server belongs to the goroutine that owns its stack (see the
// package doc): the single-threaded user-level server of the
// decomposed OS model.
//
// The server is mortal: a crash schedule (SetCrasher) or ForceCrash
// kills it at a defined point — it stops serving, its reply cache and
// pending input are lost — and the next Poll restarts it through the
// OnRestart hook into a new epoch. Replies are stamped with the epoch,
// so clients observe the restart; the reply cache is invalidated and
// handlers must be re-registered by the restart hook; at-most-once
// across the crash rests on the durable DedupAuthority.
type Server struct {
	link *Link
	side Endpoint

	procs       map[uint32]RawHandler
	cache       *replyCache
	epoch       uint32
	crashed     bool
	restarting  bool
	crasher     faultplane.Crasher
	restart     func()
	authority   DedupAuthority
	shedExpired bool
	charge      float64

	stats Stats
}

// NewServer builds a server on side of link, in epoch 1.
func NewServer(link *Link, side Endpoint) *Server {
	return &Server{
		link:  link,
		side:  side,
		procs: map[uint32]RawHandler{},
		cache: newReplyCache(defaultCacheCapacity, link.clock),
		epoch: 1,
	}
}

// RegisterRaw binds a procedure ID to its handler, replacing any
// earlier binding. A call to an unbound procedure is answered with the
// error reply ErrNoProc.
func (s *Server) RegisterRaw(proc uint32, h RawHandler) {
	s.procs[proc] = h
}

// ConfigureReplyCache replaces the reply cache with one holding
// capacity clients; restarts rebuild the cache with the same capacity.
// Call before serving; replacing the cache mid-traffic forgets every
// at-most-once record.
func (s *Server) ConfigureReplyCache(capacity int) {
	s.cache = newReplyCache(capacity, s.link.clock)
}

// SetShedExpired arms deadline-aware shedding: a call whose propagated
// deadline (Header.Expiry) has already passed at dispatch is rejected
// with RejectExpired before any handler runs. Off by default. The
// setting survives restarts: it belongs to the deployment, not the
// incarnation.
func (s *Server) SetShedExpired(on bool) {
	s.shedExpired = on
}

// SetServiceCharge makes each executed handler consume micros of
// virtual time. In this model handlers are otherwise free on the
// clock, so an overloaded server could never fall behind; the charge
// gives it a finite capacity (1e6/micros calls per virtual second)
// that open-loop load can saturate. Cache hits and sheds are never
// charged — that difference is exactly what shedding saves. 0 (the
// default) restores the free-handler model.
func (s *Server) SetServiceCharge(micros float64) {
	s.charge = micros
}

// SetCrasher attaches a crash schedule consulted at the CrashOnRecv
// and CrashPreReply windows (services consult CrashPreApply themselves,
// around their log append). Nil detaches.
func (s *Server) SetCrasher(c faultplane.Crasher) {
	s.crasher = c
}

// OnRestart installs the restart hook run by the first Poll after a
// crash. The hook owns recovery: it must call Restart (new epoch,
// fresh cache, empty handler table), re-register every handler, and
// rebuild whatever durable state the service keeps. Without a hook a
// crashed server stays dead.
func (s *Server) OnRestart(fn func()) {
	s.restart = fn
}

// SetDedupAuthority installs the durable at-most-once source consulted
// on reply-cache misses. Nil detaches.
func (s *Server) SetDedupAuthority(a DedupAuthority) {
	s.authority = a
}

// Epoch returns the server's incarnation number, stamped into every
// reply it transmits.
func (s *Server) Epoch() uint32 {
	return s.epoch
}

// AdoptEpoch raises the server's epoch to at least e. A backup
// promoting itself adopts one past the highest primary epoch it
// witnessed, so its replies dominate every stale reply the dead
// primary could have left in flight (the v3 header's fencing token).
// A lower e is ignored — epochs only move forward.
func (s *Server) AdoptEpoch(e uint32) {
	if e > s.epoch {
		s.epoch = e
	}
}

// Crashed reports whether the server is currently dead.
func (s *Server) Crashed() bool {
	return s.crashed
}

// PermanentlyDown reports whether the server is dead and will never
// serve again: crashed with no restart hook, or crashed under a
// schedule that declared the crash fatal (faultplane.Fatalist). This is
// the failure-detector predicate a backup consults before promoting —
// in this in-process model it stands in for the lease or quorum a
// distributed system would use.
func (s *Server) PermanentlyDown() bool {
	if !s.crashed {
		return false
	}
	if s.restart == nil {
		return true
	}
	f, ok := s.crasher.(faultplane.Fatalist)
	return ok && f.Fatal()
}

// ForceCrash kills the server immediately — the deterministic test and
// tooling hook; the seeded schedules go through SetCrasher.
func (s *Server) ForceCrash() { s.enterCrashed(faultplane.CrashForced) }

// enterCrashed marks the server dead and drops its pending input: the
// frames queued toward a dead process die with its address space.
func (s *Server) enterCrashed(p faultplane.CrashPoint) {
	s.crashed = true
	purged := s.link.PurgeToward(s.side)
	s.stats.Crashes++
	s.link.Recorder().Emit(obs.Event{Layer: "server", Name: "crash",
		Attrs: "point=" + p.String() + " purged=" + strconv.Itoa(purged)})
}

// crashPoint draws the attached crash schedule at window p and, when it
// fires, kills the server. Reports whether the server just died.
func (s *Server) crashPoint(p faultplane.CrashPoint) bool {
	if s.crasher == nil || !s.crasher.CrashNow(p) {
		return false
	}
	s.enterCrashed(p)
	return true
}

// Restart moves the server into its next epoch: the reply cache is
// invalidated (rebuilt empty with the configured capacity) and the
// handler table cleared for re-registration. Called by the restart
// hook; the server resumes serving when the hook returns.
func (s *Server) Restart() {
	s.epoch++
	s.procs = map[uint32]RawHandler{}
	s.cache = newReplyCache(s.cache.cap, s.link.clock)
	s.stats.Restarts++
	s.link.Recorder().Emit(obs.Event{Layer: "server", Name: "restart", Attrs: "epoch=" + strconv.Itoa(int(s.epoch))})
}

// ensureAlive restarts a crashed server through the restart hook, if
// one is installed. It reports whether the server may serve. While the
// hook runs, a pump it reaches sees the server as dead.
func (s *Server) ensureAlive() bool {
	if !s.crashed {
		return true
	}
	if s.restarting || s.restart == nil {
		return false
	}
	if f, ok := s.crasher.(faultplane.Fatalist); ok && f.Fatal() {
		// The schedule declared this crash fatal: the process never
		// comes back, no matter how many pumps arrive.
		return false
	}
	s.restarting = true
	s.restart()
	s.crashed = false
	s.restarting = false
	return true
}

// Stats returns a snapshot of the server's transport counters.
// Counters are cumulative across crashes and restarts — the
// observability plane outlives the process it observes.
func (s *Server) Stats() Stats {
	return s.stats
}

// ErrNoProc reports a call to an unregistered procedure.
var ErrNoProc = errors.New("wire: no such procedure")

// ErrServerCrashed is returned by a service handler to signal that a
// crash schedule fired mid-operation: the server dies at that point —
// no reply is sent, nothing is cached, and serving stops until the
// restart hook runs.
var ErrServerCrashed = errors.New("wire: server crashed")

// Poll processes every pending frame, sending replies. Corrupted
// frames are dropped silently (the client's retransmission recovers),
// exactly as a checksum-verifying transport behaves. Retransmitted
// calls are answered from the reply cache — or, past the cache, from
// the durable dedup authority; stale calls are discarded. A crashed
// server is restarted first (via the OnRestart hook) and stops the
// pump the moment a crash point fires. Poll runs on the goroutine that
// drives the stack — a client's call pumps it between send and
// receive — so every frame it pops is served before the call returns.
func (s *Server) Poll() {
	if !s.ensureAlive() {
		return
	}
	for {
		frame, err := s.link.Recv(s.side)
		if err != nil {
			return
		}
		h, payload, err := Decode(frame)
		if err != nil {
			s.stats.BadFrames++
			s.link.clock.putBuf(frame)
			continue
		}
		if h.Kind != KindCall {
			s.link.clock.putBuf(frame)
			continue
		}
		if s.crashPoint(faultplane.CrashOnRecv) {
			s.link.clock.putBuf(frame)
			return // died holding the frame; the client retransmits
		}
		crashed := s.dispatch(h, payload)
		// The call frame's life ends with its dispatch: handlers see the
		// payload only as views that expire when they return, so the
		// buffer can rejoin the free list.
		s.link.clock.putBuf(frame)
		if crashed {
			return // died mid-dispatch
		}
	}
}

// dispatch serves one decoded call: the duplicate check, then the
// execute-and-cache step, with no other call able to run in between on
// the stack's one goroutine. On a cache miss the durable authority is
// consulted before executing, so a WAL-logged op whose cache entry was
// evicted — or wiped by a restart — is never re-executed. Returns true
// when the server crashed during dispatch.
//
// Deadline shedding runs first: an already-expired call is shed (the
// caller stopped waiting — executing it would be pure waste). A shed
// call is answered with a cheap KindReject frame and touches neither
// the reply cache nor any durable state — in particular it can never
// poison the at-most-once record, so a later retransmission of the
// same call ID is served as a fresh call.
func (s *Server) dispatch(h Header, payload []byte) bool {
	rec := s.link.Recorder()
	if s.shedExpired && h.Expiry != 0 && s.link.Clock() >= float64(h.Expiry) {
		s.stats.ShedExpired++
		rec.Emit(obs.Event{Layer: "server", Name: "shed_expired", Client: h.ClientID, Call: h.CallID, Proc: h.ProcID})
		s.reject(h, RejectExpired)
		return false
	}
	// The authority and the handler are service code, so the cache,
	// handler and charge this call is served under are read before
	// either runs.
	cache, proc, charge := s.cache, s.procs[h.ProcID], s.charge
	if e, ok := cache.get(h.ClientID); ok {
		if h.CallID == e.callID {
			// Duplicate of the last executed call: resend the cached
			// reply, never the handler. A nil cached frame (the
			// EncodeErrors path) suppresses the execution but sends
			// nothing — there is no reply frame to resend.
			s.stats.DuplicatesSuppressed++
			rec.Emit(obs.Event{Layer: "server", Name: "cache_hit", Client: h.ClientID, Call: h.CallID, Proc: h.ProcID})
			if e.frame != nil {
				s.link.Send(s.side, e.frame)
			}
			return false
		}
		if h.CallID < e.callID {
			s.stats.StaleFrames++
			rec.Emit(obs.Event{Layer: "server", Name: "stale", Client: h.ClientID, Call: h.CallID})
			return false
		}
	} else if s.authority != nil {
		if callID, frame, ok := s.authority(h.ClientID); ok {
			if h.CallID == callID {
				// The op is in the durable log: serve the regenerated
				// reply and refill the cache fast path. The handler
				// must not run again.
				s.stats.LogDuplicates++
				rec.Emit(obs.Event{Layer: "server", Name: "log_hit", Client: h.ClientID, Call: h.CallID, Proc: h.ProcID})
				s.stats.RepliesEvicted += cache.put(h.ClientID, h.CallID, frame)
				if frame != nil {
					s.link.Send(s.side, frame)
				}
				return false
			}
			if h.CallID < callID {
				s.stats.StaleFrames++
				rec.Emit(obs.Event{Layer: "server", Name: "stale", Client: h.ClientID, Call: h.CallID})
				return false
			}
		}
	}
	return s.execute(rec, cache, proc, h, payload, charge)
}

// reject declines a call without executing it: a one-byte KindReject
// frame naming the reason, stamped with the server's epoch so fencing
// applies to rejections too. The frame is built in a recycled buffer
// and returned at once (Send copies) — a shed costs one small frame
// and touches neither the reply cache nor any durable state, which is
// what makes shedding cheaper than serving.
func (s *Server) reject(h Header, reason byte) {
	if rec := s.link.Recorder(); rec.Enabled() {
		rec.Emit(obs.Event{Layer: "server", Name: "reject",
			Client: h.ClientID, Call: h.CallID, Proc: h.ProcID,
			Val: float64(reason), Attrs: rejectAttr(reason)})
	}
	free := s.link.clock
	buf := append(BeginFrame(free.getBuf()), reason)
	frame, err := FinishFrame(buf, Header{Kind: KindReject, CallID: h.CallID, ProcID: h.ProcID, ClientID: h.ClientID, Epoch: s.Epoch()})
	if err != nil {
		free.putBuf(buf)
		return
	}
	s.link.Send(s.side, frame)
	free.putBuf(frame)
}

// rejectAttr preformats the reason attribute of a reject event —
// constant strings so shed storms trace without allocation.
func rejectAttr(reason byte) string {
	if reason == RejectExpired {
		return "reason=expired"
	}
	return "reason=unknown"
}

// execute runs the handler, caches the outcome, and transmits the
// reply stamped with the server's epoch. Returns true when the server
// crashed instead of replying — either the handler aborted with
// ErrServerCrashed (the service's pre-apply window) or the pre-reply
// window fired after the handler ran.
func (s *Server) execute(rec *obs.Recorder, cache *replyCache, proc RawHandler, h Header, payload []byte, charge float64) bool {
	var execStart float64
	if rec.Enabled() {
		execStart = s.link.Clock()
		rec.EmitAt(obs.Event{T: execStart, Layer: "server", Name: "execute", Client: h.ClientID, Call: h.CallID, Proc: h.ProcID})
	}
	frame, err, crashed := s.runHandler(proc, h, payload)
	if !crashed && charge > 0 {
		// The opt-in service charge: the handler ran, so its virtual
		// service time is consumed — whether the reply is good, bad, or
		// unencodable. Cache hits and sheds never reach this point.
		s.link.AdvanceClock(charge)
	}
	if crashed {
		return true
	}
	if rec.Enabled() {
		// Service time on the virtual clock: handler plus the opt-in
		// charge, stamped before the reply's own wire time so the
		// critical-path fold attributes transmission to the link layer.
		now := s.link.Clock()
		rec.EmitAt(obs.Event{T: now, Layer: "server", Name: "served",
			Client: h.ClientID, Call: h.CallID, Proc: h.ProcID, Dur: now - execStart})
		rec.Observe("server.execute", now-execStart)
	}
	if err != nil {
		// The reply cannot be encoded, but the handler has run: cache
		// the execution anyway so retransmissions cannot repeat it.
		s.stats.RepliesEvicted += cache.put(h.ClientID, h.CallID, nil)
		s.stats.EncodeErrors++
		return false
	}
	s.stats.RepliesEvicted += cache.put(h.ClientID, h.CallID, frame)
	s.link.Send(s.side, frame)
	s.stats.Served++ // after the send: Served means "reply transmitted"
	return false
}

// runHandler runs a handler and builds its reply in place in a
// recycled frame buffer — ok flag, then whatever results the handler
// appends — sealed with the header written over the space reserved by
// BeginFrame. A failed call, an unbound procedure (nil proc) included,
// is answered [false, message]; the pre-reply crash window is drawn for
// every call that did not die in the handler.
func (s *Server) runHandler(proc RawHandler, h Header, payload []byte) (frame []byte, encErr error, crashed bool) {
	free := s.link.clock
	rc, ok := free.calls.get()
	if !ok {
		rc = new(rawCall)
	}
	rc.args = NewArgs(payload)
	rc.rep = Reply{frame: AppendBool(BeginFrame(free.getBuf()), true)}
	err := ErrNoProc
	if proc != nil {
		err = proc(h, &rc.args, &rc.rep)
	}
	if err == nil && rc.args.Err() != nil {
		// The handler mis-decoded (or ignored a malformed stream): the
		// decode fault is the call's error.
		err = rc.args.Err()
	}
	// The cursor views the call frame and the builder the reply frame;
	// both die with this dispatch, so the carrier must not pin them on
	// the free list.
	replyFrame := rc.rep.frame
	*rc = rawCall{}
	free.calls.put(rc)
	if errors.Is(err, ErrServerCrashed) {
		// The crash schedule fired inside the handler — between the
		// service's log append and its apply. The op is durable in the
		// log; the process is gone.
		free.putBuf(replyFrame)
		s.enterCrashed(faultplane.CrashPreApply)
		return nil, nil, true
	}
	if err != nil {
		// Rebuild the payload as the error reply [false, message] on the
		// same buffer, discarding any partial results.
		replyFrame = AppendString(AppendBool(BeginFrame(replyFrame[:0]), false), err.Error())
	}
	if s.crashPoint(faultplane.CrashPreReply) {
		// Logged, applied — and dead before the reply could leave. The
		// retransmission will be answered from the durable log by the
		// restarted server.
		free.putBuf(replyFrame)
		return nil, nil, true
	}
	frame, ferr := FinishFrame(replyFrame, Header{Kind: KindReply, CallID: h.CallID, ProcID: h.ProcID, ClientID: h.ClientID, Epoch: s.Epoch()})
	if ferr != nil {
		free.putBuf(replyFrame)
		return nil, ferr, false
	}
	return frame, nil, false
}

// Client issues calls from one end of a link. Many Clients may share a
// link and a server, each with its own ClientID and per-client receive
// queue; the one goroutine driving the stack interleaves their calls.
type Client struct {
	link *Link
	side Endpoint

	// ClientID names this caller in frame headers; the server's reply
	// cache and the link's reply routing are keyed by it. NewClient
	// assigns a fresh ID per link.
	ClientID uint32

	nextID uint32

	// epoch is the server incarnation last observed in a reply; a bump
	// means the server crashed and restarted, and this client's session
	// rode the durable log across the gap.
	epoch uint32

	// Fence, when set, is the cross-server epoch fence shared by the
	// clients of one multi-endpoint caller: replies whose epoch predates
	// the highest epoch the caller has seen anywhere are discarded — a
	// deposed primary cannot answer a call the promoted backup owns.
	Fence *EpochFence

	// MaxRetries bounds retransmissions per call.
	MaxRetries int
	// DeadlineMicros bounds one call's total virtual time (wire +
	// delay + backoff); 0 means no budget. On a shared link the clock
	// is the shared medium's, so other callers' traffic counts against
	// the budget — as wall time on a real wire would. The call header
	// carries the deadline as an absolute expiry (expiryStamp), so a
	// server with deadline shedding armed can refuse a call that
	// arrives after it.
	DeadlineMicros float64

	// jitter derives this client's deterministic backoff jitter from
	// its ClientID.
	jitter jitterRand

	// reply is the frame of the last reply this client accepted. The
	// result cursor of the last call views it, so it rejoins the stack's
	// free list when the client places its next call, not before.
	reply []byte

	stats Stats
}

// NewClient builds a client on side of link.
func NewClient(link *Link, side Endpoint) *Client {
	id := link.allocClientID()
	return &Client{
		link:       link,
		side:       side,
		ClientID:   id,
		MaxRetries: 3,
		jitter:     newJitterRand(id),
	}
}

// The capped exponential backoff charged to the link's virtual clock
// between retransmissions: the first pause, doubling up to the cap,
// each scaled by the client's jitter.
const (
	initialBackoffMicros = 50
	maxBackoffMicros     = 1600
)

// Stats returns a snapshot of the client's transport counters.
func (c *Client) Stats() Stats {
	return c.stats
}

// Epoch returns the server incarnation last observed in a reply (0
// before the first reply arrives).
func (c *Client) Epoch() uint32 { return c.epoch }

// ErrCallFailed reports a call that exhausted its retries.
var ErrCallFailed = errors.New("wire: call failed after retries")

// ErrDeadlineExceeded reports a call that exhausted its virtual-time
// deadline budget.
var ErrDeadlineExceeded = errors.New("wire: call deadline exceeded")

// ErrOverloaded reports a call the service refused to execute under
// overload: the retries or the deadline budget ran out, and the server
// had answered at least one attempt with a KindReject (a
// deadline-expired shed). On a clean wire the op provably did not
// execute — no handler ran, nothing was logged or cached — so the
// caller may score it as refused work, not lost work.
var ErrOverloaded = errors.New("wire: overloaded")

// RemoteError carries a server-side failure back to the caller.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "wire: remote: " + e.Msg }

// deadlineErr records the blown budget and builds the typed error.
func (c *Client) deadlineErr(proc uint32, start float64) error {
	c.stats.DeadlineExceeded++
	return fmt.Errorf("%w (proc %d, %.0f µs elapsed)", ErrDeadlineExceeded, proc, c.link.Clock()-start)
}

// overDeadline reports whether the call that began at start has spent
// its virtual-time budget.
func (c *Client) overDeadline(start float64) bool {
	return c.DeadlineMicros > 0 && c.link.Clock()-start >= c.DeadlineMicros
}

// expiryStamp derives the absolute deadline propagated in a call
// header: now+DeadlineMicros, or 0 (no deadline) when the client has
// no deadline budget.
func (c *Client) expiryStamp() uint32 {
	if c.DeadlineMicros <= 0 {
		return 0
	}
	return ExpiryStamp(c.link.Clock() + c.DeadlineMicros)
}

// ExpiryStamp encodes an absolute virtual-time deadline (µs) for a call
// header's Expiry field, the one encoding every client engine stamps.
// It saturates at the 32-bit field's top, about 71 virtual minutes,
// beyond every soak's horizon; a plain conversion would wrap there and
// stamp a deadline that has already passed. It never stamps 0, which
// means "no deadline": a deadline below 1 µs stamps 1.
func ExpiryStamp(micros float64) uint32 {
	if micros >= float64(^uint32(0)) {
		return ^uint32(0)
	}
	if micros < 1 {
		return 1
	}
	return uint32(micros)
}

// Call invokes proc with boxed args against server and returns the
// boxed results — a codec adapter over CallRaw for callers without a
// typed stub: the arguments are marshalled into the call builder and
// the result stream unmarshalled, on the one call path.
func (c *Client) Call(server *Server, proc uint32, args ...interface{}) ([]interface{}, error) {
	w := c.NewCallArgs()
	if err := w.marshal(args); err != nil {
		return nil, err
	}
	res, err := c.CallRaw(server, proc, w)
	if err != nil {
		return nil, err
	}
	return Unmarshal(res.data)
}

// okFlagBytes is the encoded size of the ok flag leading every reply
// payload: one tag byte plus a one-byte bool body.
const okFlagBytes = 2

// drive transmits a sealed call frame and runs the retransmission loop
// — capped exponential backoff with seed-derived jitter, deadline
// budget, reply-protocol decode — until the call concludes. On success
// it returns the reply's result stream: the payload past the leading ok
// flag, ready for an Args cursor. The returned bytes view the accepted
// reply frame, which the client keeps (c.reply) until its next call.
// Frame bytes are not retained: the caller may recycle frame when drive
// returns.
func (c *Client) drive(server *Server, id uint32, proc uint32, frame []byte) ([]byte, error) {
	rec := c.link.Recorder()
	start := c.link.Clock()
	if rec.Enabled() {
		rec.EmitAt(obs.Event{T: start, Layer: "client", Name: "call_start", Client: c.ClientID, Call: id, Proc: proc})
	}
	backoff := float64(initialBackoffMicros)
	rejected := 0
	for attempt := 0; attempt <= c.MaxRetries; attempt++ {
		if c.overDeadline(start) {
			rec.Emit(obs.Event{Layer: "client", Name: "call_end", Client: c.ClientID, Call: id, Attrs: "status=deadline"})
			if rejected > 0 {
				// The server shed an attempt: it is alive and declining,
				// so this is overload, not a lost frame, and a failover
				// client must not switch away from it.
				return nil, overloadedErr(proc, rejected)
			}
			return nil, c.deadlineErr(proc, start)
		}
		if attempt > 0 {
			// Jitter desynchronises the fleet: each client scales every
			// pause by a deterministic per-client draw in [0.5, 1.5), so
			// N clients that lost frames to one burst do not retransmit
			// in lockstep and re-collide forever.
			pause := backoff * (0.5 + c.jitter.float64())
			c.stats.Retries++
			c.stats.BackoffMicros += pause
			rec.Emit(obs.Event{Layer: "client", Name: "retransmit",
				Client: c.ClientID, Call: id, Proc: proc,
				Dur: pause, Val: float64(attempt)})
			rec.Observe("call.backoff", pause)
			c.link.AdvanceClock(pause)
			backoff = min(2*backoff, maxBackoffMicros)
		}
		c.link.Send(c.side, frame)
		server.Poll()
		payload, reason, err := c.awaitReplyFrame(rec, id)
		if errors.Is(err, ErrEmpty) {
			continue // lost or corrupted somewhere: resend
		}
		if err != nil {
			rec.Emit(obs.Event{Layer: "client", Name: "call_end", Client: c.ClientID, Call: id, Attrs: "status=error"})
			return nil, err
		}
		if reason != 0 {
			// The server shed this attempt without executing it. The
			// next attempt (if the retries and deadline allow one) is a
			// fresh admission try.
			rejected++
			c.stats.Rejects++
			continue
		}
		// The reply protocol: a leading ok flag, then results on success
		// or the error message on handler failure.
		a := NewArgs(payload)
		if ok := a.Bool(); !ok {
			if a.Err() != nil {
				rec.Emit(obs.Event{Layer: "client", Name: "call_end", Client: c.ClientID, Call: id, Attrs: "status=error"})
				return nil, ErrBadEncoding
			}
			msg := "unknown"
			if s := a.String(); a.Err() == nil {
				msg = s
			}
			rec.Emit(obs.Event{Layer: "client", Name: "call_end", Client: c.ClientID, Call: id, Attrs: "status=error"})
			return nil, &RemoteError{Msg: msg}
		}
		if c.overDeadline(start) {
			// The reply arrived, but the budget is spent — the caller
			// asked for an answer within the deadline, not eventually.
			// At-most-once still holds: the call executed exactly once.
			rec.Emit(obs.Event{Layer: "client", Name: "call_end", Client: c.ClientID, Call: id, Attrs: "status=deadline"})
			return nil, c.deadlineErr(proc, start)
		}
		if rec.Enabled() {
			rt := c.link.Clock() - start
			rec.Observe("call.roundtrip", rt)
			rec.Emit(obs.Event{Layer: "client", Name: "call_end",
				Client: c.ClientID, Call: id, Proc: proc, Dur: rt, Attrs: "status=ok"})
		}
		return payload[okFlagBytes:], nil
	}
	rec.Emit(obs.Event{Layer: "client", Name: "call_end", Client: c.ClientID, Call: id, Attrs: "status=exhausted"})
	if rejected > 0 {
		return nil, overloadedErr(proc, rejected)
	}
	return nil, fmt.Errorf("%w (proc %d)", ErrCallFailed, proc)
}

// overloadedErr builds the error of a call that ran out of retries or
// deadline after the server had shed at least one of its attempts.
func overloadedErr(proc uint32, rejected int) error {
	return fmt.Errorf("%w (proc %d, %d rejects)", ErrOverloaded, proc, rejected)
}

// awaitReplyFrame drains this client's receive queue until the reply
// to call id appears, returning its verified payload — or, for a
// KindReject answering this call, a nonzero reject reason. The accepted
// reply's frame becomes c.reply, which the payload views. Damaged
// frames and frames for other calls (stale replies from earlier
// retransmissions, duplicates) are counted and skipped; an empty queue
// returns ErrEmpty so the caller retransmits. Other clients' replies
// are never seen here — the link routes them to their own queues. The
// reply's epoch stamp is tracked: a bump means the server restarted
// since this client's last reply, and the session has been
// re-established against the new incarnation. Rejects are fenced like
// replies (a deposed primary cannot shed a call the promoted backup
// owns) but never advance the session epoch — nothing was executed.
func (c *Client) awaitReplyFrame(rec *obs.Recorder, id uint32) ([]byte, byte, error) {
	for {
		frame, err := c.link.RecvClient(c.side, c.ClientID)
		if err != nil {
			return nil, 0, err // ErrEmpty: nothing arrived
		}
		h, payload, err := Decode(frame)
		if err != nil {
			c.stats.BadFrames++
			c.link.clock.putBuf(frame) // damaged: nobody will ever read it
			continue
		}
		if h.Kind == KindReject && h.CallID == id && h.ClientID == c.ClientID {
			if h.Epoch != 0 && c.Fence != nil && !c.Fence.Admit(h.Epoch) {
				c.stats.FencedReplies++
				c.link.clock.putBuf(frame)
				rec.Emit(obs.Event{Layer: "client", Name: "fenced", Client: c.ClientID, Call: id, Val: float64(h.Epoch)})
				continue
			}
			reason := RejectExpired // the one reason a server sends
			if len(payload) >= 1 {
				reason = payload[0]
			}
			c.link.clock.putBuf(frame) // the reason byte is all there was to read
			rec.Emit(obs.Event{Layer: "client", Name: "rejected",
				Client: c.ClientID, Call: id, Val: float64(reason), Attrs: rejectAttr(reason)})
			return nil, reason, nil
		}
		if h.Kind != KindReply || h.CallID != id || h.ClientID != c.ClientID {
			c.stats.StaleFrames++
			c.link.clock.putBuf(frame) // a superseded call's reply: terminally stale
			continue
		}
		if h.Epoch != 0 && c.Fence != nil && !c.Fence.Admit(h.Epoch) {
			// A reply from a server incarnation older than one this
			// caller has already heard from — a deposed primary's stale
			// answer. Fenced off, never surfaced.
			c.stats.FencedReplies++
			c.link.clock.putBuf(frame)
			rec.Emit(obs.Event{Layer: "client", Name: "fenced", Client: c.ClientID, Call: id, Val: float64(h.Epoch)})
			continue
		}
		if h.Epoch != 0 {
			if c.epoch != 0 && h.Epoch != c.epoch {
				c.stats.SessionsReestablished++
				rec.Emit(obs.Event{Layer: "client", Name: "session_reestablish", Client: c.ClientID, Call: id, Val: float64(h.Epoch)})
			}
			c.epoch = h.Epoch
		}
		rec.Emit(obs.Event{Layer: "client", Name: "recv_reply", Client: c.ClientID, Call: id})
		c.reply = frame
		return payload, 0, nil
	}
}

// CallRaw invokes proc against server with the arguments staged in w —
// the one call path, driving the server's Poll between send and receive
// (the caller is the pump, so whichever call comes first after a crash
// restarts the server). Lost or corrupted frames — including calls that died with a
// crashed server — are retransmitted under capped exponential backoff;
// the server's reply cache and durable log guarantee the handler runs at
// most once however many retransmissions and server restarts it takes.
// The deadline budget is checked on every attempt, including the first,
// and again before a success is returned, so injected delay on attempt
// zero cannot blow the budget undetected.
//
// The builder must come from NewCallArgs; CallRaw seals it into the
// call frame and recycles it win or lose. On success the returned
// cursor is positioned at the first result. It views this client's
// reply buffer, which stays valid until the client's next call, as
// bufio.Scanner.Bytes does: read the results first, and copy what must
// outlive that call (Bytes results alias the buffer; String copies).
func (c *Client) CallRaw(server *Server, proc uint32, w *CallArgs) (Args, error) {
	c.nextID++
	res, err := c.callSealed(server, c.nextID, proc, w)
	w.release()
	return res, err
}

// callSealed seals w as call id from this client — its identity, its
// expiry stamp — and drives it. The builder stays the caller's: the
// failover client re-seals the same one, same call ID, on each endpoint
// it tries, so the new primary's dedup machinery recognises the
// retransmission as the same operation. Placing a call ends the last
// one's results: its reply frame goes back to the free list first.
func (c *Client) callSealed(server *Server, id uint32, proc uint32, w *CallArgs) (Args, error) {
	c.link.clock.putBuf(c.reply)
	c.reply = nil
	frame, err := FinishFrame(w.frame, Header{Kind: KindCall, CallID: id, ProcID: proc, ClientID: c.ClientID, Expiry: c.expiryStamp()})
	if err != nil {
		return Args{}, err
	}
	results, err := c.drive(server, id, proc, frame)
	if err != nil {
		return Args{}, err
	}
	return NewArgs(results), nil
}
