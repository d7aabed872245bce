// Package fsserver runs the fs file system as an operating-system
// service under the paper's two structures, for real: the monolithic
// arrangement invokes it directly (one system call per operation), and
// the decomposed arrangement marshals every operation through the
// ipc/wire transport to a user-level server (one RPC = two system calls
// + two address-space switches per operation, plus stub and transport
// work on actual bytes). Replaying the same file script against both
// produces, mechanically, the cost multiplication that Table 7 counts.
//
// # Single ownership
//
// A stack instance is the links on one wire.VClock and everything
// attached to them: every Remote, Server, Cluster and Node, each
// server's fs.FS and fs.WAL, and the recorders, histograms and fault
// planes armed on them. It belongs to one goroutine at a time, and
// nothing in it takes a lock: that goroutine drives every op, and the
// replication, recovery and healing those ops trigger run synchronously
// inside them. Handing a stack to another goroutine needs a
// happens-before edge, such as the channel hand-off Interleave makes
// between the clients it runs. Independent stacks share nothing — the
// wire frame buffers a stack recycles stay on its own VClock — so they
// may run on separate goroutines at once. The race detector enforces
// the contract: a second goroutine touching a stack without such an
// edge is a data race, reported in any -race run that exercises it.
package fsserver

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
)

// Procedure numbers of the file service.
const (
	ProcOpen uint32 = iota + 1
	ProcCreate
	ProcClose
	ProcRead
	ProcWrite
	ProcStat
	ProcMkdir
	ProcUnlink
	ProcReadDir
)

// Service is the client-facing file interface; both arrangements
// implement it.
type Service interface {
	Open(path string) (int, error)
	Create(path string) (int, error)
	Close(fd int) error
	Read(fd, n int) ([]byte, error)
	Write(fd int, data []byte) (int, error)
	Stat(path string) (fs.Stat, error)
	Mkdir(path string) error
	Unlink(path string) error
	ReadDir(path string) ([]string, error)

	// Stats reports operations performed and the virtual time charged.
	Stats() Stats
}

// Stats accumulates a client's costs.
type Stats struct {
	Ops           int64
	Syscalls      int64
	ASSwitches    int64
	VirtualMicros float64 // OS-primitive + transport time
	WireMicros    float64 // portion on the (local) wire, remote case
	PayloadBytes  int64   // marshalled bytes, remote case
	DegradedOps   int     // ops that returned ErrUnavailable (transport exhausted)

	// Overload accounting, remote case: refusals are split from
	// transport failures because they mean opposite things — an
	// overloaded service is alive and protecting itself.
	OverloadedOps int // ops the service shed as ErrOverloaded (provably not executed on a clean wire)

	// Crash–recovery accounting, remote case; the crashes themselves
	// are Wire.Crashes.
	Recoveries          int // restarts that replayed the WAL into a new epoch
	RecoveryReplayedOps int // WAL tail records re-applied across all recoveries

	// Wire is the merged client+server transport counter set (remote
	// case): retries, duplicates suppressed, bad frames, backoff time.
	Wire wire.Stats
}

// Metrics writes one row per counter into out, named prefix plus the
// field's name; the transport counters go under prefix+"Wire.".
func (s Stats) Metrics(prefix string, out map[string]float64) {
	out[prefix+"Ops"] = float64(s.Ops)
	out[prefix+"Syscalls"] = float64(s.Syscalls)
	out[prefix+"ASSwitches"] = float64(s.ASSwitches)
	out[prefix+"VirtualMicros"] = s.VirtualMicros
	out[prefix+"WireMicros"] = s.WireMicros
	out[prefix+"PayloadBytes"] = float64(s.PayloadBytes)
	out[prefix+"DegradedOps"] = float64(s.DegradedOps)
	out[prefix+"OverloadedOps"] = float64(s.OverloadedOps)
	out[prefix+"Recoveries"] = float64(s.Recoveries)
	out[prefix+"RecoveryReplayedOps"] = float64(s.RecoveryReplayedOps)
	s.Wire.Metrics(prefix+"Wire.", out)
}

// ---- Monolithic arrangement ----

// Direct invokes the file system in the kernel: one system call per
// operation.
type Direct struct {
	FS *fs.FS
	cm *kernel.CostModel

	stats Stats
}

// NewDirect builds the monolithic arrangement over fsys, pricing each
// operation with cm's system-call cost.
func NewDirect(fsys *fs.FS, cm *kernel.CostModel) *Direct {
	return &Direct{FS: fsys, cm: cm}
}

func (d *Direct) charge() {
	d.stats.Ops++
	d.stats.Syscalls++
	d.stats.VirtualMicros += d.cm.SyscallMicros()
}

func (d *Direct) Open(path string) (int, error)   { d.charge(); return d.FS.Open(path) }
func (d *Direct) Create(path string) (int, error) { d.charge(); return d.FS.Create(path) }
func (d *Direct) Close(fd int) error              { d.charge(); return d.FS.Close(fd) }
func (d *Direct) Mkdir(path string) error         { d.charge(); return d.FS.Mkdir(path) }
func (d *Direct) Unlink(path string) error        { d.charge(); return d.FS.Unlink(path) }
func (d *Direct) Stat(path string) (fs.Stat, error) {
	d.charge()
	return d.FS.Stat(path)
}
func (d *Direct) ReadDir(path string) ([]string, error) { d.charge(); return d.FS.ReadDir(path) }

func (d *Direct) Read(fd, n int) ([]byte, error) {
	d.charge()
	return d.FS.ReadN(fd, n)
}

func (d *Direct) Write(fd int, data []byte) (int, error) {
	d.charge()
	return d.FS.Write(fd, data)
}

// Stats reports the accumulated costs.
func (d *Direct) Stats() Stats { return d.stats }

// ---- Decomposed arrangement ----

// Recovery cost model: restarting the server charges a fixed process
// re-launch cost plus a per-replayed-record cost to the virtual clock.
// Deterministic constants keep same-seed crash soaks byte-identical.
const (
	recoverBaseMicros  = 500
	recoverPerOpMicros = 2
)

// defaultSnapshotEvery bounds the WAL tail: after this many appends the
// server folds the tail into a snapshot, so recovery replays a bounded
// suffix rather than the whole history.
const defaultSnapshotEvery = 512

// Server wraps a file system behind wire RPC handlers, with a
// write-ahead op log that makes it crash-recoverable. Every mutating
// operation is appended to the WAL before it is applied; the WAL (and
// its snapshots) model stable storage and survive crashes, while the
// FS, the wire server's reply cache, and the pending input queue die
// with the process. On the first Poll after a crash the wire layer runs
// this server's recovery hook: rebuild the FS from the log (Recover
// replays the tail deterministically, so the rebuilt state is
// bit-identical), bump the epoch, re-register the handlers, and charge
// the downtime to the virtual clock.
type Server struct {
	Wire *wire.Server

	FS      *fs.FS
	wal     *fs.WAL
	link    *wire.Link
	crasher faultplane.Crasher

	// repl, when non-nil, is the primary-side replication machinery: a
	// record is shipped to every backup right after it is appended,
	// before any crash window or the reply — so an acknowledged op is
	// durable on the backups even if this process never runs again.
	repl *replicator

	// SnapshotEvery is the WAL-tail length that triggers a snapshot.
	SnapshotEvery int

	recoveries  int
	replayedOps int

	// names is ReadDir's listing buffer, reused across calls: a listing
	// goes into the reply frame and nothing of it outlives the handler.
	names []string
}

// NewServer registers the file service on side of link. The WAL opens
// with a genesis snapshot of fsys, so recovery can rebuild whatever
// state the server started with even before the first mutation.
func NewServer(fsys *fs.FS, link *wire.Link, side wire.Endpoint) *Server {
	s := newSilentServer(fsys, link, side)
	s.serve()
	return s
}

// newSilentServer builds a server over fsys on side of link, its WAL
// opened with a genesis snapshot, that serves nothing yet: a backup's
// stays silent until promotion.
func newSilentServer(fsys *fs.FS, link *wire.Link, side wire.Endpoint) *Server {
	s := &Server{
		FS:            fsys,
		Wire:          wire.NewServer(link, side),
		wal:           fs.NewWAL(fsys.CacheBlocks()),
		link:          link,
		SnapshotEvery: defaultSnapshotEvery,
	}
	if err := s.wal.Snapshot(fsys); err != nil {
		panic(err) // encodes in-memory structures only: always nil
	}
	return s
}

// serve arms the file service: the restart hook that recovers from the
// WAL, the WAL's session table as the dedup authority, and the
// handlers.
func (s *Server) serve() {
	s.Wire.OnRestart(s.recoverNow)
	s.Wire.SetDedupAuthority(s.replayFor)
	s.register()
}

// SetCrasher attaches a crash schedule to both crash surfaces: the
// wire server's receive and pre-reply windows and this server's
// pre-apply window (after the WAL append, before the FS apply).
func (s *Server) SetCrasher(c faultplane.Crasher) {
	s.crasher = c
	s.Wire.SetCrasher(c)
}

// Crash kills the server immediately (the deterministic hook; seeded
// schedules go through SetCrasher). It recovers on the next Poll.
func (s *Server) Crash() { s.Wire.ForceCrash() }

// Recoveries returns how many times the server has crashed and
// recovered, and how many WAL records those recoveries replayed.
func (s *Server) Recoveries() (recoveries, replayedOps int) {
	return s.recoveries, s.replayedOps
}

// CurrentFS returns the live file system. After a recovery this is the
// rebuilt instance, not the one the server was constructed with —
// always read final state through here in crash experiments.
func (s *Server) CurrentFS() *fs.FS {
	return s.FS
}

// WALStats exposes the op log's counters.
func (s *Server) WALStats() fs.WALStats {
	return s.wal.Stats()
}

// logApply is the write path discipline: append the record to the WAL,
// then apply it to the FS, then commit the outcome to the client's
// durable session slot. The pre-apply crash window sits between append
// and apply — an op that dies there is durable but unapplied, and
// recovery replays it. Caller identity comes from the frame header, so
// the WAL doubles as the at-most-once record that survives crashes.
// It returns the committed session record, the op's outcome, and an
// error only when the server crashed.
func (s *Server) logApply(h wire.Header, r fs.Record) (fs.SessionRecord, error) {
	r.Client = h.ClientID
	r.Call = h.CallID
	r = s.wal.Append(r)
	if rec := s.link.Recorder(); rec.Enabled() {
		// The WAL append is free on the virtual clock — this model
		// charges service time, not log writes — so the event carries a
		// zero duration: an honest 0-width critical-path segment. Val is
		// the durable sequence number, the cross-node trace context the
		// backups key their apply events on.
		rec.Emit(obs.Event{Layer: "wal", Name: "append",
			Client: r.Client, Call: r.Call, Val: float64(r.Seq)})
	}
	if s.repl != nil {
		// Ship-before-apply: the record reaches the backups before this
		// process enters any crash window past the append. A primary
		// that dies anywhere after this line leaves the op durable on
		// the replica set, so failover never loses an acknowledged op.
		s.repl.ship(s.wal, s.Wire.Epoch(), r.Client, r.Call)
	}
	if s.crasher != nil && s.crasher.CrashNow(faultplane.CrashPreApply) {
		return fs.SessionRecord{}, wire.ErrServerCrashed
	}
	sess := s.FS.ApplySession(r)
	s.wal.Commit(sess)
	if s.SnapshotEvery > 0 && s.wal.SinceSnapshot() >= s.SnapshotEvery {
		if snapErr := s.wal.Snapshot(s.FS); snapErr != nil {
			panic(snapErr)
		}
	}
	return sess, nil
}

// resultWriter receives a logged op's results: the live handler's
// reply builder, or the frame replayFor regenerates.
type resultWriter interface {
	Int64(v int64)
	Bytes(b []byte)
}

// writeResults appends the wire results of a logged op — the one place
// the per-op reply shape is decided, so a reply regenerated from the
// log is byte-identical to the live one it stands in for.
func writeResults(w resultWriter, op fs.OpCode, res fs.ApplyResult) {
	switch op {
	case fs.OpOpen, fs.OpCreate:
		w.Int64(int64(res.FD))
	case fs.OpRead:
		w.Bytes(res.Data)
	case fs.OpWrite:
		w.Int64(int64(res.N))
	}
}

// frameWriter is the resultWriter over a frame under construction.
type frameWriter struct{ frame []byte }

func (f *frameWriter) Int64(v int64)  { f.frame = wire.AppendInt64(f.frame, v) }
func (f *frameWriter) Bytes(b []byte) { f.frame = wire.AppendBytes(f.frame, b) }

// procForOp echoes the procedure number into regenerated reply headers.
var procForOp = map[fs.OpCode]uint32{
	fs.OpMkdir:  ProcMkdir,
	fs.OpCreate: ProcCreate,
	fs.OpOpen:   ProcOpen,
	fs.OpClose:  ProcClose,
	fs.OpRead:   ProcRead,
	fs.OpWrite:  ProcWrite,
	fs.OpUnlink: ProcUnlink,
}

// replayFor is the wire server's dedup authority: on a reply-cache
// miss (the cache was wiped by a restart, or the entry fell to LRU
// eviction) it consults the WAL session table and regenerates the
// reply the client is owed, stamped with the current epoch. The
// handler never re-runs for a logged call.
func (s *Server) replayFor(clientID uint32) (uint32, []byte, bool) {
	sess, ok := s.wal.Session(clientID)
	if !ok {
		return 0, nil, false
	}
	w := frameWriter{frame: wire.BeginFrame(nil)}
	if sess.Err != "" {
		w.frame = wire.AppendText(wire.AppendBool(w.frame, false), sess.Err, sess.ErrSep(), sess.ErrPath)
	} else {
		w.frame = wire.AppendBool(w.frame, true)
		writeResults(&w, sess.Op, sess.Result)
	}
	frame, err := wire.FinishFrame(w.frame, wire.Header{
		Kind:     wire.KindReply,
		CallID:   sess.Call,
		ProcID:   procForOp[sess.Op],
		ClientID: sess.Client,
		Epoch:    s.Wire.Epoch(),
	})
	if err != nil {
		return sess.Call, nil, true // suppress the duplicate; no reply to give
	}
	return sess.Call, frame, true
}

// recoverNow is the restart hook: rebuild the FS from the WAL, move
// the wire server into its next epoch (invalidating the reply cache),
// re-register the handlers, and charge the deterministic recovery
// downtime to the virtual clock.
func (s *Server) recoverNow() {
	fsys, _, replayed, err := fs.Recover(s.wal)
	if err != nil {
		panic(err) // stable storage decode failure: unrecoverable corruption
	}
	s.FS = fsys
	s.recoveries++
	s.replayedOps += replayed
	s.Wire.Restart()
	s.register()
	if s.repl != nil {
		// The restarted primary lost its volatile replication cursors;
		// re-learn each backup's applied position and ship whatever the
		// crash interrupted.
		s.repl.resync(s.wal, s.Wire.Epoch())
	}
	micros := float64(recoverBaseMicros + recoverPerOpMicros*replayed)
	s.link.AdvanceClock(micros)
	rec := s.link.Recorder()
	rec.Emit(obs.Event{Layer: "server", Name: "recover",
		Attrs: fmt.Sprintf("epoch=%d replayed=%d micros=%g", s.Wire.Epoch(), replayed, micros)})
	rec.Observe("server.recovery", micros)
}

// register binds the file service's handlers — the stubs a compiler
// would emit, reading arguments with a typed cursor and building
// replies in place. Mutating procedures go through the WAL discipline
// (logged); Stat and ReadDir are idempotent queries — re-executing them
// after a crash is harmless, so they bypass the log. Handlers read s.FS
// dynamically (never capture the pointer): recovery swaps in the
// rebuilt file system.
func (s *Server) register() {
	s.logged(ProcOpen, func(a *wire.Args) fs.Record { return fs.Record{Op: fs.OpOpen, Path: a.String()} })
	s.logged(ProcCreate, func(a *wire.Args) fs.Record { return fs.Record{Op: fs.OpCreate, Path: a.String()} })
	s.logged(ProcClose, func(a *wire.Args) fs.Record { return fs.Record{Op: fs.OpClose, FD: int(a.Int64())} })
	s.logged(ProcRead, func(a *wire.Args) fs.Record {
		fd := a.Int64()
		return fs.Record{Op: fs.OpRead, FD: int(fd), N: int(a.Int64())}
	})
	s.logged(ProcWrite, func(a *wire.Args) fs.Record {
		fd := a.Int64()
		// The cursor's view expires when the handler returns, but the
		// WAL retains the record as stable storage — copy the payload
		// out of the call frame before logging it.
		return fs.Record{Op: fs.OpWrite, FD: int(fd), Data: append([]byte(nil), a.Bytes()...)}
	})
	s.logged(ProcMkdir, func(a *wire.Args) fs.Record { return fs.Record{Op: fs.OpMkdir, Path: a.String()} })
	s.logged(ProcUnlink, func(a *wire.Args) fs.Record { return fs.Record{Op: fs.OpUnlink, Path: a.String()} })
	// The queries resolve their path from the call frame's bytes: the
	// view dies with the handler, and they keep nothing of it.
	s.Wire.RegisterRaw(ProcStat, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		path := a.StringBytes()
		if err := a.Err(); err != nil {
			return err
		}
		st, err := s.FS.StatBytes(path)
		if err != nil {
			return failQuery(rep, err, path)
		}
		rep.Uint64(st.Ino)
		rep.Int64(int64(st.Kind))
		rep.Int64(int64(st.Size))
		rep.Int64(int64(st.Blocks))
		rep.Int64(int64(st.Nlink))
		return nil
	})
	s.Wire.RegisterRaw(ProcReadDir, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		path := a.StringBytes()
		if err := a.Err(); err != nil {
			return err
		}
		names, err := s.FS.AppendDir(s.names[:0], path)
		if err != nil {
			return failQuery(rep, err, path)
		}
		for _, n := range names {
			rep.String(n)
		}
		clear(names)
		s.names = names[:0]
		return nil
	})
}

// failQuery answers a query that failed on path: a Named failure is
// written into the reply as the text the fs methods give it, the
// sentinel's joined to the path, and any other error goes back to the
// wire server whole.
func failQuery(rep *wire.Reply, err error, path []byte) error {
	if !fs.Named(err) {
		return err
	}
	wire.FailReply(rep, err.Error(), fs.NamedSep, path)
	return nil
}

// logged binds a mutating procedure: decode reads the call's arguments
// into the op's log record, which goes through logApply; the reply is
// the op's results (writeResults), or its failure written from the
// session record as replayFor writes it. The cursor is checked before
// logApply — a mutation must never be logged off a malformed argument
// stream.
func (s *Server) logged(proc uint32, decode func(a *wire.Args) fs.Record) {
	s.Wire.RegisterRaw(proc, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		r := decode(a)
		if err := a.Err(); err != nil {
			return err
		}
		sess, err := s.logApply(h, r)
		if err != nil {
			return err
		}
		if sess.Err != "" {
			wire.FailReply(rep, sess.Err, sess.ErrSep(), sess.ErrPath)
			return nil
		}
		writeResults(rep, sess.Op, sess.Result)
		return nil
	})
}

// Remote is the decomposed arrangement's client: every operation is an
// RPC to the user-level server, placed through one wire.FailoverClient.
// A Remote built by NewRemote, NewRemoteOnLink or NewPeer spans one
// endpoint; one built by Cluster.NewClient spans the replica set, and
// its calls fail over to a promoted backup when the primary is
// permanently gone. Both place every op on the same call path.
type Remote struct {
	fo     *wire.FailoverClient
	server *Server    // endpoint 0's server: the single server, or the cluster's original primary
	link   *wire.Link // endpoint 0's link, whose clock times every op
	cm     *kernel.CostModel

	// cluster is the control plane behind the failover decisions; nil
	// for the single-server arrangement.
	cluster *Cluster

	// class is LatencyClass, formatted once so observing an op costs no
	// allocation.
	class string

	// rec, when non-nil, receives per-operation latency observations
	// (classes "fsserver.op" and this client's LatencyClass). The wire
	// layers below pick the recorder up from the link themselves.
	rec *obs.Recorder

	stats Stats
}

// newRemote wraps fo, whose endpoint 0 is server on link, as a Remote.
func newRemote(fo *wire.FailoverClient, server *Server, link *wire.Link, cm *kernel.CostModel, c *Cluster) *Remote {
	return &Remote{
		fo:      fo,
		server:  server,
		link:    link,
		cm:      cm,
		cluster: c,
		class:   fmt.Sprintf("fsserver.op.c%02d", fo.ClientID()),
	}
}

// NewRemote builds the decomposed arrangement: a server on one end of a
// fresh link, a client on the other, costs priced by cm.
func NewRemote(fsys *fs.FS, cm *kernel.CostModel) *Remote {
	// A local cross-address-space link: latency is the kernel path, not
	// an Ethernet, so the wire itself is free; the transfer costs are
	// charged explicitly below.
	link := wire.NewLink(ipc.NetworkConfig{Name: "local", BandwidthMbps: 1e6, PerPacketLatencyMicros: 0})
	return NewRemoteOnLink(fsys, cm, link)
}

// NewRemoteOnLink builds the decomposed arrangement over a caller-
// provided link (tests inject faults through it; a cross-machine
// arrangement passes an Ethernet-class link). The client is tuned for
// service traffic: generous retries so probabilistic fault planes are
// survivable, bounded by whatever deadline budget Tune installs.
func NewRemoteOnLink(fsys *fs.FS, cm *kernel.CostModel, link *wire.Link) *Remote {
	client := wire.NewClient(link, wire.A)
	client.MaxRetries = 32
	server := NewServer(fsys, link, wire.B)
	fo := wire.NewFailoverClient([]*wire.Client{client}, []*wire.Server{server.Wire})
	return newRemote(fo, server, link, cm, nil)
}

// NewPeer attaches another simulated client to the same decomposed
// service: a fresh caller (its own ClientID, receive queues, and
// retransmission state) over this Remote's endpoints, sharing its
// server(s), cost model, recorder and tuning. The goroutine driving the
// stack interleaves the peers' operations (Interleave does it one op
// per turn); the wire server's reply cache keeps every caller in the
// at-most-once window.
func (r *Remote) NewPeer() *Remote {
	peer := newRemote(r.fo.Peer(), r.server, r.link, r.cm, r.cluster)
	peer.rec = r.rec
	return peer
}

// SetRecorder attaches an observability recorder to this Remote's
// service-level latency observations and to the shared link beneath it
// (so the wire client, server, and fault decisions trace into the same
// stream). Nil disables. Peers created afterwards inherit it; attach
// before issuing traffic.
func (r *Remote) SetRecorder(rec *obs.Recorder) {
	r.rec = rec
	if r.cluster != nil {
		r.cluster.SetRecorder(rec)
		return
	}
	r.link.SetRecorder(rec)
}

// LatencyClass is the histogram class this Remote's per-operation
// latencies are observed under — one class per wire client, so a
// many-client experiment reads per-client percentiles out of one
// recorder.
func (r *Remote) LatencyClass() string { return r.class }

// Tune adjusts the transport budget of the decomposed arrangement: the
// retransmission bound and the per-call virtual-time deadline (0 keeps
// calls unbounded). Each call carries its deadline in the header, so a
// server with deadline shedding armed rejects a call that arrives after
// it. A call that exhausts either budget surfaces as ErrUnavailable,
// or as ErrOverloaded when the server shed one of its attempts, rather
// than wedging the caller.
func (r *Remote) Tune(maxRetries int, deadlineMicros float64) {
	r.fo.Tune(maxRetries, deadlineMicros)
}

// ErrRemote adapts remote failures.
var ErrRemote = errors.New("fsserver: remote error")

// remoteError is a failure the service answered with: it matches
// ErrRemote, and its text is ErrRemote's, ": ", then the server's
// message, built only when asked for.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return ErrRemote.Error() + ": " + e.msg }
func (e *remoteError) Unwrap() error { return ErrRemote }

// ErrUnavailable reports an operation abandoned because the transport
// exhausted its retry or deadline budget — frames lost faster than the
// budget could recover — or delivered a reply the stub could not
// decode. The operation may or may not have executed on the server;
// at-most-once semantics guarantee only that it executed no more than
// once. Overload refusals are NOT folded in here: they surface as the
// typed ErrOverloaded with its own counter, because "the wire lost it"
// and "the service declined it" call for opposite reactions — retry
// elsewhere versus back off.
var ErrUnavailable = errors.New("fsserver: service unavailable")

// ErrOverloaded reports an operation the service refused under
// overload: the retry or deadline budget ran out after the server's
// deadline-aware admission control had shed an attempt. On a clean
// wire the op provably did not execute — nothing ran, nothing was
// logged.
var ErrOverloaded = errors.New("fsserver: service overloaded")

// mapCallError folds one concluded call's failure into the service
// error taxonomy: a RemoteError is the service executing and saying no
// (ErrRemote); an overload refusal is the service declining to run the
// op at all (ErrOverloaded, counted in OverloadedOps); anything else
// is the transport failing (ErrUnavailable, counted in DegradedOps).
func (r *Remote) mapCallError(err error) error {
	// The call path returns a RemoteError unwrapped; the assertion finds
	// it without errors.As, whose target would escape to the heap.
	if remote, ok := err.(*wire.RemoteError); ok {
		return &remoteError{msg: remote.Msg}
	}
	var remote *wire.RemoteError
	if errors.As(err, &remote) {
		return &remoteError{msg: remote.Msg}
	}
	if errors.Is(err, wire.ErrOverloaded) {
		r.stats.OverloadedOps++
		return fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	r.stats.DegradedOps++
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// callRaw drives one operation through the call path. Each op is
// charged 2 syscalls + 2 address-space switches plus its wire time on
// the virtual clock, and its failure is folded into the service error
// taxonomy (mapCallError).
func (r *Remote) callRaw(proc uint32, w *wire.CallArgs) (wire.Args, error) {
	if r.cluster != nil {
		// The replicated call path doubles as the cluster's heartbeat:
		// virtual-clock-paced maintenance (deposed-primary rejoin, the
		// anti-entropy scrub) runs here, synchronously, so same-seed
		// soaks stay byte-identical. A no-op until EnableSelfHeal.
		r.cluster.Tick()
	}
	r.stats.Ops++
	// "Each invocation of an operating system service via an RPC
	// requires at least two system calls and two context switches."
	r.stats.Syscalls += 2
	r.stats.ASSwitches += 2
	opMicros := 2*r.cm.SyscallMicros() + 2*r.cm.AddressSpaceSwitchMicros()
	r.stats.VirtualMicros += opMicros
	before := r.link.Clock()
	res, err := r.fo.CallRaw(proc, w)
	r.stats.WireMicros += r.link.Clock() - before
	r.stats.VirtualMicros += r.link.Clock() - before
	if r.rec.Enabled() && err == nil {
		opMicros += r.link.Clock() - before
		r.rec.Observe("fsserver.op", opMicros)
		r.rec.Observe(r.class, opMicros)
	}
	if err != nil {
		return wire.Args{}, r.mapCallError(err)
	}
	return res, nil
}

// resultFault folds a poisoned result cursor — a reply whose shape the
// stub could not decode — into the transport-failure contract: one
// typed ErrUnavailable, one degraded-op count.
func (r *Remote) resultFault(res *wire.Args) error {
	if err := res.Err(); err != nil {
		r.stats.DegradedOps++
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return nil
}

// pathCall places proc with a single path argument.
func (r *Remote) pathCall(proc uint32, path string) (wire.Args, error) {
	w := r.fo.NewCallArgs()
	w.String(path)
	return r.callRaw(proc, w)
}

// fdResult decodes the file-descriptor result of Open and Create.
func (r *Remote) fdResult(res wire.Args, err error) (int, error) {
	if err != nil {
		return -1, err
	}
	fd := int(res.Int64())
	if err := r.resultFault(&res); err != nil {
		return -1, err
	}
	return fd, nil
}

// noResult concludes an op whose reply carries no results.
func (r *Remote) noResult(res wire.Args, err error) error {
	if err != nil {
		return err
	}
	return r.resultFault(&res)
}

func (r *Remote) Open(path string) (int, error)   { return r.fdResult(r.pathCall(ProcOpen, path)) }
func (r *Remote) Create(path string) (int, error) { return r.fdResult(r.pathCall(ProcCreate, path)) }
func (r *Remote) Mkdir(path string) error         { return r.noResult(r.pathCall(ProcMkdir, path)) }
func (r *Remote) Unlink(path string) error        { return r.noResult(r.pathCall(ProcUnlink, path)) }

func (r *Remote) Close(fd int) error {
	w := r.fo.NewCallArgs()
	w.Int64(int64(fd))
	return r.noResult(r.callRaw(ProcClose, w))
}

func (r *Remote) Read(fd, n int) ([]byte, error) {
	w := r.fo.NewCallArgs()
	w.Int64(int64(fd))
	w.Int64(int64(n))
	res, err := r.callRaw(ProcRead, w)
	if err != nil {
		return nil, err
	}
	// The result views the client's reply buffer, which its next call
	// recycles, while Service.Read hands the caller bytes to keep: the
	// one copy on the read path moves them out of the frame.
	data := res.Bytes()
	if err := r.resultFault(&res); err != nil {
		return nil, err
	}
	r.stats.PayloadBytes += int64(len(data))
	return bytes.Clone(data), nil
}

func (r *Remote) Write(fd int, data []byte) (int, error) {
	r.stats.PayloadBytes += int64(len(data))
	w := r.fo.NewCallArgs()
	w.Int64(int64(fd))
	w.Bytes(data)
	res, err := r.callRaw(ProcWrite, w)
	if err != nil {
		return 0, err
	}
	n := int(res.Int64())
	if err := r.resultFault(&res); err != nil {
		return 0, err
	}
	return n, nil
}

func (r *Remote) Stat(path string) (fs.Stat, error) {
	res, err := r.pathCall(ProcStat, path)
	if err != nil {
		return fs.Stat{}, err
	}
	st := fs.Stat{
		Ino:    res.Uint64(),
		Kind:   fs.FileKind(res.Int64()),
		Size:   int(res.Int64()),
		Blocks: int(res.Int64()),
		Nlink:  int(res.Int64()),
	}
	if err := r.resultFault(&res); err != nil {
		return fs.Stat{}, err
	}
	return st, nil
}

// ReadDir hands the caller a listing in two allocations however long
// it is: the names, which view the client's reply buffer until its
// next call, are counted and sized first, then copied into one string
// and sliced out of it into an exactly sized slice.
func (r *Remote) ReadDir(path string) ([]string, error) {
	res, err := r.pathCall(ProcReadDir, path)
	if err != nil {
		return nil, err
	}
	scan, count, size := res, 0, 0
	for ; scan.More(); count++ {
		size += len(scan.StringBytes())
	}
	if err := r.resultFault(&scan); err != nil || count == 0 {
		return nil, err
	}
	var all strings.Builder
	all.Grow(size)
	names := make([]string, count)
	for i := range names {
		at := all.Len()
		all.Write(res.StringBytes())
		names[i] = all.String()[at:]
	}
	return names, nil
}

// Stats reports the accumulated costs, including the merged transport
// counters of both ends of the link. When several peers share the
// service, the server-side counters (Served, DuplicatesSuppressed,
// BadFrames, …) cover all of them; the client-side counters (Retries,
// BackoffMicros, DeadlineExceeded) are this Remote's own.
func (r *Remote) Stats() Stats {
	s := r.stats
	serverStats := r.server.Wire.Stats()
	if r.cluster != nil {
		serverStats = r.cluster.serverWireStats()
	}
	s.Wire = r.fo.Stats().Add(serverStats)
	s.Recoveries, s.RecoveryReplayedOps = r.server.Recoveries()
	return s
}

// SetCrashPlane arms the decomposed server with a crash schedule (all
// three windows: receive, pre-apply, pre-reply). Peers share the
// server, so one plane covers them all. Nil disarms.
func (r *Remote) SetCrashPlane(c faultplane.Crasher) { r.server.SetCrasher(c) }

// Crash kills the server now; it recovers from the WAL on the next
// operation.
func (r *Remote) Crash() { r.server.Crash() }

// ServerFS returns the service's live file system. After recoveries
// this is the rebuilt instance — end-state checks (fingerprints) must
// read it here, not through the FS the service was constructed with.
// In replicated mode it is the active replica's file system: the
// promoted backup's after a failover.
func (r *Remote) ServerFS() *fs.FS {
	if r.cluster != nil {
		return r.cluster.ActiveFS()
	}
	return r.server.CurrentFS()
}

// Cluster returns the replica control plane behind this Remote, nil for
// the single-server arrangement.
func (r *Remote) Cluster() *Cluster { return r.cluster }
