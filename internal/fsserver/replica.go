package fsserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"

	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
)

// This file is the replication layer over the decomposed file server:
// a primary that ships its WAL to backups before acknowledging any
// mutating op, backups that apply the shipped records eagerly, and a
// control plane (Cluster) that promotes the most caught-up backup when
// the primary dies for good. The WAL is the replication log; the v3
// frame header's epoch is the fencing token; the shipped session table
// is the dedup authority that keeps at-most-once across failover.

// Procedure numbers of the replication service, carried on the
// primary→backup links (disjoint from the client-facing file procs).
const (
	// ProcShip carries a batch of WAL records: args are the primary's
	// epoch (uint32) and the batch in fs.AppendRecords' binary format
	// ([]byte); the reply is the backup's applied sequence number
	// (uint64) — the ack cursor. A reply below the primary's cursor is
	// a cursor correction: the backup lost records (revival,
	// quarantine) and the primary must rewind and re-ship.
	ProcShip uint32 = iota + 100
	// ProcReplSeq queries the backup's applied sequence number — how a
	// restarted primary re-learns its shipping cursor. An optional
	// epoch argument stamps the caller's primacy on the backup (the
	// promoted primary's first act), fencing staler shippers. The
	// reply is the applied sequence (uint64) and the backup's promoted
	// epoch (uint32; 0 while it remains a backup).
	ProcReplSeq
	// ProcSnapInstall streams a whole snapshot to a peer too far behind
	// for record shipping — state transfer. Args: epoch (uint32), the
	// sequence the snapshot covers through (uint64), total snapshot
	// length (uint64), crc32 over the whole snapshot (uint32), chunk
	// offset (uint64), chunk bytes ([]byte). Chunks arrive in order;
	// offset 0 resets the peer's staging buffer; the final chunk
	// verifies the checksum and installs. Reply: applied sequence.
	ProcSnapInstall
	// ProcScrub asks a peer for its per-range state fingerprints — the
	// anti-entropy probe. Args: epoch (uint32), range count (uint64).
	// Reply: applied sequence (uint64) and the fingerprints as 8-byte
	// big-endian words ([]byte).
	ProcScrub
)

// snapChunkBytes bounds one state-transfer chunk well under the wire
// frame's 64KB payload limit.
const snapChunkBytes = 32 << 10

// maxScrubRanges bounds a scrub's fingerprint count, so the reply (8
// bytes per range) always fits one frame.
const maxScrubRanges = 4096

// Promotion cost model: deterministic virtual-time charges analogous to
// the recovery constants — a promotion is a recovery plus a role
// change.
const (
	promoteBaseMicros  = 800
	promotePerOpMicros = 2
)

// Ship batching bounds: a catch-up after a partition moves the backlog
// in chunks that fit comfortably in one wire frame.
const (
	maxShipRecords = 32
	maxShipBytes   = 48 << 10
)

// replicaNet is the network model of the cluster's links: local
// cross-address-space hops, like the single-server arrangement.
var replicaNet = ipc.NetworkConfig{Name: "cluster-local", BandwidthMbps: 1e6, PerPacketLatencyMicros: 0}

// ReplicaConfig parameterises a replica set. Like faultplane policies,
// a config is programmer-supplied: Validate returns a descriptive
// error and NewCluster panics on exactly that error.
type ReplicaConfig struct {
	// Backups is the number of backup replicas shipped to.
	Backups int
	// Failover enables promotion: with it off the cluster replicates
	// for durability but never changes primaries.
	Failover bool
	// AckTimeoutMicros is the virtual-time deadline for one ship call;
	// a backup that cannot ack within it leaves the op counted as
	// lagging (shipped later by the catch-up cursor).
	AckTimeoutMicros float64
	// AckRetries bounds retransmissions per ship call.
	AckRetries int
}

// DefaultReplicaConfig is the reference configuration: one backup,
// failover on, a generous ack budget so chaos on the replication link
// is ridden out rather than given up on.
func DefaultReplicaConfig() ReplicaConfig {
	return ReplicaConfig{Backups: 1, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64}
}

// Validate checks the configuration, returning a descriptive error
// naming the offending field.
func (c ReplicaConfig) Validate() error {
	if c.Backups < 0 {
		return fmt.Errorf("fsserver: Backups = %d negative", c.Backups)
	}
	if c.Failover && c.Backups == 0 {
		return fmt.Errorf("fsserver: Failover enabled with zero backups — nothing to promote")
	}
	if math.IsNaN(c.AckTimeoutMicros) || c.AckTimeoutMicros <= 0 {
		return fmt.Errorf("fsserver: AckTimeoutMicros = %g, want a positive duration", c.AckTimeoutMicros)
	}
	if c.AckRetries < 1 {
		return fmt.Errorf("fsserver: AckRetries = %d, want >= 1", c.AckRetries)
	}
	return nil
}

// ReplStats counts the primary's shipping activity.
type ReplStats struct {
	ShipCalls         int // ship RPCs attempted
	ShipFailures      int // ship RPCs that exhausted their ack budget
	ShipRecords       int // records acknowledged by backups
	LagOps            int // ops acknowledged to the client while a backup lagged
	CursorCorrections int // ack cursors rewound to a revived backup's true position
	StateTransfers    int // whole snapshots installed on a lagging peer
	SnapChunks        int // state-transfer chunk RPCs sent
}

func (s ReplStats) add(o ReplStats) ReplStats {
	s.ShipCalls += o.ShipCalls
	s.ShipFailures += o.ShipFailures
	s.ShipRecords += o.ShipRecords
	s.LagOps += o.LagOps
	s.CursorCorrections += o.CursorCorrections
	s.StateTransfers += o.StateTransfers
	s.SnapChunks += o.SnapChunks
	return s
}

// replicator is the primary-side shipping machinery: one wire client
// per backup on a dedicated replication link, and the acked cursor per
// backup. The primary link carries the cluster's recorder; ship spans
// are keyed on the client op that triggered them (the trace context
// the WAL records carry), so a trace shows the replication stall
// inside the op that paid for it.
type replicator struct {
	clients []*wire.Client
	peers   []*wire.Server
	acked   []uint64
	stats   ReplStats
	link    *wire.Link // primary link: shared clock + recorder for ship spans

	// The round's shared batch, keyed on the round and cursor it was
	// built for (chunk).
	round, batchRound, batchFrom uint64
	batch                        []byte
}

// addPeer appends a receiving peer: a ship client on link with the
// configured ack budget, the peer's replication server, and the cursor
// of what the peer is known to have applied.
func (rp *replicator) addPeer(cfg ReplicaConfig, link *wire.Link, peer *wire.Server, acked uint64) {
	ship := wire.NewClient(link, wire.A)
	ship.MaxRetries = cfg.AckRetries
	ship.DeadlineMicros = cfg.AckTimeoutMicros
	rp.clients = append(rp.clients, ship)
	rp.peers = append(rp.peers, peer)
	rp.acked = append(rp.acked, acked)
}

// shipTo pushes records to backup i until its cursor reaches target or
// the ack budget runs out, in bounded chunks. client/call identify the
// op whose acknowledgement is waiting on this ship (0,0 for catch-up
// traffic with no waiting op). A cursor that has fallen behind the
// log's retained floor — the backup lost too much to catch up record
// by record — is healed by state transfer first. Callers begin a round
// (rp.round++) before shipping.
func (rp *replicator) shipTo(i int, w *fs.WAL, epoch uint32, target uint64, client, call uint32) {
	rec := rp.link.Recorder()
	for rp.acked[i] < target {
		if rp.acked[i] < w.ShipFloor() {
			if !rp.sendSnapshot(i, w, epoch) {
				return
			}
			continue
		}
		payload := rp.chunk(w, rp.acked[i])
		if payload == nil {
			return
		}
		rp.stats.ShipCalls++
		var t0 float64
		if rec.Enabled() {
			t0 = rp.link.Clock()
		}
		args := rp.clients[i].NewCallArgs()
		args.Uint32(epoch)
		args.Bytes(payload)
		res, err := rp.clients[i].CallRaw(rp.peers[i], ProcShip, args)
		seq := res.Uint64()
		if err != nil || res.Err() != nil {
			rp.stats.ShipFailures++
			if rec.Enabled() {
				rec.Emit(obs.Event{Layer: "repl", Name: "ship_fail",
					Client: client, Call: call, Val: float64(i)})
			}
			return
		}
		if seq < rp.acked[i] {
			// Cursor correction: the backup's true position is behind
			// what we believed acknowledged — it revived from a kill and
			// lost (or quarantined) records. Rewind and re-ship; the
			// records are still retained or reachable by state transfer.
			rp.stats.CursorCorrections++
			rp.acked[i] = seq
			if rec.Enabled() {
				rec.Emit(obs.Event{Layer: "repl", Name: "cursor_rewind",
					Client: client, Call: call, Val: float64(seq)})
			}
			continue
		}
		if seq == rp.acked[i] {
			// The backup refused to advance (promoted, or a sequence
			// check failed); retrying the same chunk would spin.
			rp.stats.ShipFailures++
			return
		}
		rp.stats.ShipRecords += int(seq - rp.acked[i])
		rp.acked[i] = seq
		if rec.Enabled() {
			now := rp.link.Clock()
			rec.EmitAt(obs.Event{T: now, Layer: "repl", Name: "ship",
				Client: client, Call: call, Dur: now - t0, Val: float64(i)})
			rec.EmitAt(obs.Event{T: now, Layer: "repl", Name: "ack",
				Client: client, Call: call, Val: float64(seq)})
		}
	}
}

// chunk returns the encoded batch for a backup at cursor from (nil if
// nothing is retained above it): at most maxShipRecords records, cut
// before the one whose Path and Data carry the total past maxShipBytes.
// It is encoded straight from the log's view, before anything appends,
// once per round and cursor, so every backup at the same cursor (all of
// them, in the steady state) is sent the same bytes.
func (rp *replicator) chunk(w *fs.WAL, from uint64) []byte {
	if rp.batch != nil && rp.batchRound == rp.round && rp.batchFrom == from {
		return rp.batch
	}
	recs := w.RecordsSince(from)
	if len(recs) == 0 {
		return nil
	}
	recs = recs[:min(len(recs), maxShipRecords)]
	bytes := 0
	for j := range recs {
		bytes += len(recs[j].Data) + len(recs[j].Path)
		if bytes > maxShipBytes && j > 0 {
			recs = recs[:j]
			break
		}
	}
	rp.batch = fs.AppendRecords(rp.batch[:0], recs)
	rp.batchRound, rp.batchFrom = rp.round, from
	return rp.batch
}

// sendSnapshot streams the log's snapshot to peer i in bounded chunks
// — state transfer for a peer whose cursor fell below the retained
// floor. On success the peer's cursor jumps to the snapshot's covered
// sequence; the remaining gap (the tail) closes by record shipping.
func (rp *replicator) sendSnapshot(i int, w *fs.WAL, epoch uint32) bool {
	data, snapSeq := w.SnapshotBytes()
	if data == nil {
		rp.stats.ShipFailures++
		return false
	}
	sum := crc32.ChecksumIEEE(data)
	rec := rp.link.Recorder()
	var t0 float64
	if rec.Enabled() {
		t0 = rp.link.Clock()
	}
	for off := 0; off < len(data); off += snapChunkBytes {
		end := off + snapChunkBytes
		if end > len(data) {
			end = len(data)
		}
		rp.stats.SnapChunks++
		args := rp.clients[i].NewCallArgs()
		args.Uint32(epoch)
		args.Uint64(snapSeq)
		args.Uint64(uint64(len(data)))
		args.Uint32(sum)
		args.Uint64(uint64(off))
		args.Bytes(data[off:end])
		res, err := rp.clients[i].CallRaw(rp.peers[i], ProcSnapInstall, args)
		seq := res.Uint64()
		if err != nil || res.Err() != nil {
			rp.stats.ShipFailures++
			return false
		}
		if end == len(data) {
			if seq < snapSeq {
				rp.stats.ShipFailures++
				return false
			}
			rp.acked[i] = seq
		}
	}
	rp.stats.StateTransfers++
	if rec.Enabled() {
		now := rp.link.Clock()
		rec.EmitAt(obs.Event{T: now, Layer: "repl", Name: "state_transfer",
			Dur: now - t0, Val: float64(i)})
	}
	return true
}

// ship pushes every unacknowledged record to every backup and advances
// the log's ship cursor to the slowest backup's. A backup that cannot be
// reached within the ack budget leaves its cursor behind — the op is
// still acknowledged to the client (semi-synchronous replication), the
// lag is counted, and the next ship's catch-up closes it. The residual
// lag lands in the repl.lag histogram — the distribution companion of
// the point-in-time gauge.
func (rp *replicator) ship(w *fs.WAL, epoch uint32, client, call uint32) {
	rp.round++
	target := w.LastSeq()
	minAcked := target
	lagged := false
	for i := range rp.clients {
		rp.shipTo(i, w, epoch, target, client, call)
		if rp.acked[i] < target {
			lagged = true
		}
		if rp.acked[i] < minAcked {
			minAcked = rp.acked[i]
		}
	}
	if lagged {
		rp.stats.LagOps++
	}
	if rec := rp.link.Recorder(); rec.Enabled() {
		rec.Observe("repl.lag", float64(target-minAcked))
	}
	w.AckShipped(minAcked)
}

// resync re-learns every backup's applied position — the cursor a
// primary restart lost — stamps the caller's epoch on each peer so
// staler shippers are fenced from here on, and ships whatever the
// crash (or promotion) interrupted.
func (rp *replicator) resync(w *fs.WAL, epoch uint32) {
	for i := range rp.clients {
		args := rp.clients[i].NewCallArgs()
		args.Uint32(epoch)
		res, err := rp.clients[i].CallRaw(rp.peers[i], ProcReplSeq, args)
		seq := res.Uint64()
		if err != nil || res.Err() != nil {
			rp.stats.ShipFailures++
			continue
		}
		rp.acked[i] = seq
	}
	rp.ship(w, epoch, 0, 0)
}

// lag returns how far the slowest backup's cursor trails the log.
func (rp *replicator) lag(w *fs.WAL) uint64 {
	var min uint64 = math.MaxUint64
	for _, a := range rp.acked {
		if a < min {
			min = a
		}
	}
	if len(rp.acked) == 0 || min > w.LastSeq() {
		return 0
	}
	return w.LastSeq() - min
}

// Node is one replica: a client-facing Server over its own WAL and
// file system and, while it receives, the backup end of a replication
// link. A receiving node applies the primary's shipped WAL records
// eagerly and can promote itself — catch-up replay, epoch adoption,
// handler registration — when the control plane declares the primary
// permanently dead; its client-facing server stays silent (no
// handlers) until then. The original primary is a node too: it serves
// from the start and receives only after it is deposed and rejoins.
type Node struct {
	Repl *wire.Server // backup end of the replication link; nil until the node receives

	srv          *Server    // client-facing server; silent until promotion on a backup
	replLink     *wire.Link // the replication link; nil until the node receives
	appliedSeq   uint64
	primaryEpoch uint32 // highest primary epoch witnessed in ship calls
	promoted     bool

	// promotedAtSeq records appliedSeq at the instant of promotion —
	// the point up to which the old primary's history and the new
	// primary's history are guaranteed identical. A deposed primary
	// rejoining as a backup discards everything past it.
	promotedAtSeq uint64

	// Sequence audit: violations count checksum failures in the shipped
	// stream (must be zero in a correct run); reships count records
	// received twice and skipped (retransmitted ships — benign).
	seqViolations int
	reships       int

	// State-transfer staging: snapshot chunks accumulate here until the
	// final chunk's checksum verifies and the whole installs.
	stage []byte

	decoded []fs.Record // ship decode scratch, cleared after each ship

	// Self-healing: the seeded at-rest damage schedule consulted when
	// this node revives (nil = pristine storage).
	disk *faultplane.DiskPlane
}

// receiveOn makes the node a receiver on the replication link: its
// backup end serves the replication procedures, and, since a killed
// receiver is not gone — its WAL is stable storage — its restart hook
// recovers locally and the ship path re-delivers the rest. Without a
// kill plane the hook never fires.
func (b *Node) receiveOn(link *wire.Link) {
	b.replLink = link
	b.Repl = wire.NewServer(link, wire.B)
	b.registerRepl()
	b.Repl.OnRestart(b.rejoinNow)
}

// rejoinNow is a receiving node's restart hook: it comes back from a
// transient kill, recovers what its own (possibly damaged) log can
// prove, and re-enters the ack set at its true position — the primary's
// next ship discovers that position via cursor correction and
// re-delivers the rest. Runs on the reviving server's pump; purely
// local, no peer calls (the primary pushes, the rejoiner never pulls).
func (b *Node) rejoinNow() {
	b.Repl.Restart()
	b.registerRepl()
	b.recoverLocal()
	if rec := b.srv.link.Recorder(); rec.Enabled() {
		rec.Emit(obs.Event{Layer: "repl", Name: "rejoin", Val: float64(b.appliedSeq)})
	}
}

// recoverLocal rebuilds the node's file system from its WAL, healing
// at-rest damage by quarantine: a torn mid-log record drops the log
// from the damage onward (the suffix re-ships from a healthy peer), an
// undecodable snapshot abandons the log wholesale (state transfer
// rebuilds it).
func (b *Node) recoverLocal() {
	if b.disk != nil {
		fault := b.disk.Decide(b.srv.wal.SinceSnapshot())
		if fault.TearTailIndex >= 0 {
			b.srv.wal.CorruptTailRecord(fault.TearTailIndex)
		}
		if fault.FlipSnapshot {
			b.srv.wal.CorruptSnapshotByte(fault.FlipOffset)
		}
	}
	fsys, _, _, err := fs.Recover(b.srv.wal)
	if err != nil {
		var corrupt *fs.ErrWALCorrupt
		if errors.As(err, &corrupt) {
			b.srv.wal.QuarantineFrom(corrupt.Seq)
			fsys, _, _, err = fs.Recover(b.srv.wal)
		}
	}
	if err != nil {
		// The snapshot itself is rotten (or quarantine exposed more
		// damage): nothing below is trustworthy. Reset to genesis and
		// let state transfer rebuild the node from a healthy peer.
		b.srv.wal.QuarantineSnapshot()
		fsys, _, _, err = fs.Recover(b.srv.wal)
		if err != nil {
			panic(err) // recovery of an empty log cannot fail
		}
	}
	b.srv.FS = fsys
	b.appliedSeq = b.srv.wal.LastSeq()
}

// registerRepl binds the replication procedures on the backup's end of
// the replication link. Every handler decodes its arguments and checks
// the cursor before touching backup state, so malformed input earns an
// error reply and changes nothing. Argument views die with the call
// frame: the stage buffer copies chunks by append, and the ship decode
// copies every Path and Data into the backup's reused record slice.
func (b *Node) registerRepl() {
	b.Repl.RegisterRaw(ProcShip, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		epoch, batch := a.Uint32(), a.Bytes()
		if err := a.Err(); err != nil {
			return err
		}
		recs, err := fs.AppendDecodedRecords(b.decoded[:0], batch)
		if err != nil {
			return err
		}
		defer func() {
			clear(recs) // the log keeps their Path and Data
			if b.decoded = recs[:0]; cap(recs) > maxShipRecords {
				b.decoded = nil
			}
		}()
		if err := b.fence(epoch, "ship"); err != nil {
			return err
		}
		// The backup's client-facing link carries the cluster recorder;
		// apply events keyed on the shipped record's trace context stitch
		// the backup half of the replication span onto the client op.
		rec := b.srv.link.Recorder()
		for _, r := range recs {
			if r.Seq <= b.appliedSeq {
				b.reships++ // retransmitted ship; already applied
				continue
			}
			if r.Seq != b.appliedSeq+1 {
				// The primary's cursor ran ahead of this node's true
				// position — it revived from a kill and lost (or
				// quarantined) records the primary believed applied.
				// Reply the true position; the primary rewinds and
				// re-ships from there.
				rep.Uint64(b.appliedSeq)
				return nil
			}
			if err := b.srv.wal.AppendShipped(r); err != nil {
				b.seqViolations++
				return err
			}
			// An op that failed on the primary fails identically here —
			// the error is part of the replicated outcome, not a
			// replication failure.
			b.srv.wal.Commit(b.srv.FS.ApplySession(r))
			b.appliedSeq = r.Seq
			if rec.Enabled() {
				rec.Emit(obs.Event{Layer: "repl", Name: "apply",
					Client: r.Client, Call: r.Call, Val: float64(r.Seq)})
			}
		}
		if b.srv.SnapshotEvery > 0 && b.srv.wal.SinceSnapshot() >= b.srv.SnapshotEvery {
			if err := b.srv.wal.Snapshot(b.srv.FS); err != nil {
				panic(err)
			}
		}
		rep.Uint64(b.appliedSeq)
		return nil
	})
	b.Repl.RegisterRaw(ProcReplSeq, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		var epoch uint32
		if a.More() {
			epoch = a.Uint32()
		}
		if err := a.Err(); err != nil {
			return err
		}
		// A caller announcing its epoch is (re)claiming primacy: stamp it
		// so staler shippers are fenced even before the first record
		// arrives.
		if epoch > b.primaryEpoch {
			b.primaryEpoch = epoch
		}
		var promotedEpoch uint32
		if b.promoted {
			promotedEpoch = b.srv.Wire.Epoch()
		}
		rep.Uint64(b.appliedSeq)
		rep.Uint32(promotedEpoch)
		return nil
	})
	b.Repl.RegisterRaw(ProcSnapInstall, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		epoch, snapSeq, total, sum, offset := a.Uint32(), a.Uint64(), a.Uint64(), a.Uint32(), a.Uint64()
		chunk := a.Bytes()
		if err := a.Err(); err != nil {
			return err
		}
		if err := b.fence(epoch, "snapshot"); err != nil {
			return err
		}
		if offset == 0 {
			b.stage = b.stage[:0]
		}
		if offset != uint64(len(b.stage)) {
			staged := len(b.stage)
			b.stage = b.stage[:0]
			return fmt.Errorf("fsserver: snapshot chunk at offset %d, staged %d", offset, staged)
		}
		b.stage = append(b.stage, chunk...)
		if uint64(len(b.stage)) < total {
			rep.Uint64(b.appliedSeq)
			return nil
		}
		if crc32.ChecksumIEEE(b.stage) != sum {
			b.stage = b.stage[:0]
			return fmt.Errorf("fsserver: snapshot transfer fails checksum")
		}
		fsys, _, err := b.srv.wal.InstallSnapshot(b.stage, snapSeq)
		b.stage = b.stage[:0]
		if err != nil {
			return err
		}
		b.srv.FS = fsys
		b.appliedSeq = snapSeq
		if rec := b.srv.link.Recorder(); rec.Enabled() {
			rec.Emit(obs.Event{Layer: "repl", Name: "install", Val: float64(snapSeq)})
		}
		rep.Uint64(b.appliedSeq)
		return nil
	})
	b.Repl.RegisterRaw(ProcScrub, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		epoch, n := a.Uint32(), a.Uint64()
		if err := a.Err(); err != nil {
			return err
		}
		if n < 1 || n > maxScrubRanges {
			return fmt.Errorf("fsserver: scrub of %d ranges outside [1, %d]", n, maxScrubRanges)
		}
		if err := b.fence(epoch, "scrub"); err != nil {
			return err
		}
		fps := b.srv.FS.RangeFingerprints(int(n))
		buf := make([]byte, 8*len(fps))
		for i, fp := range fps {
			binary.BigEndian.PutUint64(buf[i*8:], fp)
		}
		rep.Uint64(b.appliedSeq)
		rep.Bytes(buf)
		return nil
	})
}

// fence admits a primary-to-backup call stamped with epoch, or rejects
// it: a promoted backup takes no writes from a deposed primary limping
// back (the replication-plane face of epoch fencing), and a caller
// below the highest primacy this backup has witnessed is deposed and
// does not know it yet. An admitted epoch becomes the witnessed one.
func (b *Node) fence(epoch uint32, what string) error {
	if b.promoted {
		return fmt.Errorf("fsserver: backup promoted (epoch %d); %s rejected", b.srv.Wire.Epoch(), what)
	}
	if epoch < b.primaryEpoch {
		return fmt.Errorf("fsserver: stale primary epoch %d (current %d); %s rejected", epoch, b.primaryEpoch, what)
	}
	b.primaryEpoch = epoch
	return nil
}

// AppliedSeq returns how far this node has applied the shipped log.
func (b *Node) AppliedSeq() uint64 {
	return b.appliedSeq
}

// Promoted reports whether this backup has taken over as primary.
func (b *Node) Promoted() bool {
	return b.promoted
}

// promote turns the backup into the serving primary: recover from its
// own WAL (catch-up replay; heals a torn tail exactly as a primary
// restart would), adopt an epoch past every primary epoch it witnessed
// so stale replies are fenced, install the dedup authority over the
// shipped session table, and register the file service. Idempotent.
func (b *Node) promote() uint32 {
	if b.promoted {
		return b.srv.Wire.Epoch()
	}
	fsys, _, replayed, err := fs.Recover(b.srv.wal)
	if err != nil {
		panic(err) // shipped log failed integrity mid-stream: unrecoverable
	}
	s := b.srv
	s.FS = fsys
	next := b.primaryEpoch
	if e := s.Wire.Epoch(); e > next {
		next = e
	}
	s.Wire.AdoptEpoch(next + 1)
	s.serve()
	b.promoted = true
	b.promotedAtSeq = b.appliedSeq
	micros := float64(promoteBaseMicros + promotePerOpMicros*replayed)
	s.link.AdvanceClock(micros)
	rec := s.link.Recorder()
	rec.Emit(obs.Event{Layer: "server", Name: "promote",
		Attrs: fmt.Sprintf("epoch=%d applied=%d replayed=%d micros=%g", s.Wire.Epoch(), b.appliedSeq, replayed, micros)})
	rec.Observe("server.promotion", micros)
	return s.Wire.Epoch()
}

// ClusterStats is the replica set's counter surface. The embedded
// ReplStats sums every node's shipping counters.
type ClusterStats struct {
	Backups       int
	Failovers     int
	PromotedEpoch uint32 // epoch of the promoted backup; 0 while the primary serves
	ReplStats
	Reships        int
	SeqViolations  int
	PrimarySeq     uint64 // records appended at the active primary
	BackupSeq      uint64 // highest applied sequence across backups
	ReplicationLag uint64 // active-primary appends not yet applied by the slowest peer

	// Self-healing counters.
	Rejoins        int // nodes that re-entered the ack set (deposed primary)
	FencedShips    int // deposed-primary ships rejected by a promoted peer
	Quarantined    int // corrupt WAL records dropped and re-fetched
	Discarded      int // speculative records discarded at demotion
	ScrubPasses    int // anti-entropy passes completed
	ScrubRepairs   int // peers repaired by a scrub-triggered state transfer
	RepairedRanges int // divergent fingerprint ranges repaired
}

// Cluster wires a primary and N backups into one replicated file
// service: the primary ships its WAL on dedicated replication links;
// clients reach every replica through per-replica links under one
// FailoverClient. The Cluster is the control plane — in a distributed
// system a lease or consensus service; here a deterministic in-process
// stand-in — that decides when a backup may promote.
type Cluster struct {
	cfg ReplicaConfig
	cm  *kernel.CostModel

	clock  *wire.VClock
	nodes  []*Node // nodes[0] is the original primary, nodes[i+1] backup i
	active int     // index in nodes of the node holding primacy

	// Self-healing plane (nil heal = disabled; see selfheal.go).
	heal        *SelfHealPolicy
	failoverAt  float64 // virtual time of the failover (rejoin pacing)
	nextScrubAt float64 // virtual time of the next anti-entropy pass

	// counts holds the control plane's own counters — failovers,
	// rejoins, fenced ships and the scrub's — which Stats starts from.
	counts ClusterStats
}

// NewCluster builds a replica set over fresh links sharing one virtual
// clock, with cfg.Backups idle backups receiving the primary's WAL. It
// panics on an invalid configuration (Validate's error).
func NewCluster(blocks int, cm *kernel.CostModel, cfg ReplicaConfig) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	clock := wire.NewVClock()
	primary := NewServer(fs.New(blocks), wire.NewLinkOnClock(replicaNet, clock), wire.B)
	primary.wal.EnableShipping()
	c := &Cluster{cfg: cfg, cm: cm, clock: clock, nodes: []*Node{{srv: primary}}}
	rp := &replicator{link: primary.link}
	for i := 0; i < cfg.Backups; i++ {
		replLink := wire.NewLinkOnClock(replicaNet, clock)
		b := &Node{srv: newSilentServer(fs.New(blocks), wire.NewLinkOnClock(replicaNet, clock), wire.B)}
		b.receiveOn(replLink)
		c.nodes = append(c.nodes, b)
		rp.addPeer(cfg, replLink, b.Repl, 0)
	}
	primary.repl = rp
	return c
}

// NewClient builds a Remote spanning the whole replica set: one wire
// client per replica link, primary first, sharing a single identity,
// call sequence, and epoch fence, failing over to a promoted backup
// when the primary is permanently gone. Each call to NewClient is
// another simulated caller (the replicated analogue of NewPeer),
// interleaved with the others by the goroutine that drives the cluster.
func (c *Cluster) NewClient() *Remote {
	clients := make([]*wire.Client, len(c.nodes))
	servers := make([]*wire.Server, len(c.nodes))
	for i, n := range c.nodes {
		clients[i] = wire.NewClient(n.srv.link, wire.A)
		clients[i].MaxRetries = 32
		servers[i] = n.srv.Wire
	}
	fo := wire.NewFailoverClient(clients, servers)
	fo.OnFailover(c.Failover)
	return newRemote(fo, c.Primary(), c.PrimaryLink(), c.cm, c)
}

// Failover is the promotion decision: if a failover has already
// happened, route to the promoted backup; if the primary is permanently
// down and failover is enabled, promote the most caught-up backup and
// route there; otherwise -1 — the primary may yet recover, keep
// retrying it. Installed as every FailoverClient's hook and idempotent,
// so whichever client's call first finds the primary gone promotes,
// and every later call routes to the same backup.
func (c *Cluster) Failover() int {
	if c.active != 0 {
		return c.active
	}
	if !c.cfg.Failover || !c.Primary().Wire.PermanentlyDown() {
		return -1
	}
	pick := -1
	var best uint64
	for i, b := range c.nodes[1:] {
		if applied := b.AppliedSeq(); pick < 0 || applied > best {
			pick, best = i, applied
		}
	}
	if pick < 0 {
		return -1
	}
	epoch := c.nodes[pick+1].promote()
	c.active = pick + 1
	c.counts.Failovers++
	c.failoverAt = c.clock.Clock()
	c.armShipping(epoch)
	c.PrimaryLink().Recorder().Emit(obs.Event{Layer: "cluster", Name: "failover",
		Attrs: "to=backup" + strconv.Itoa(pick) + " epoch=" + strconv.Itoa(int(epoch))})
	return c.active
}

// armShipping turns the freshly promoted backup into a shipper: a
// replicator with one wire client per remaining receiver, riding the
// existing replication links (a second client identity per link), its
// WAL retaining from here on. The resync stamps the new epoch on every
// peer — from this instant the deposed primary's ships are stale — and
// closes whatever gap the peers have to the promotion point.
func (c *Cluster) armShipping(epoch uint32) {
	np := c.activeServer()
	if np.repl != nil {
		return
	}
	np.wal.EnableShipping()
	rp := &replicator{link: np.link}
	for _, b := range c.receivers() {
		rp.addPeer(c.cfg, b.replLink, b.Repl, 0)
	}
	np.repl = rp
	if len(rp.clients) > 0 {
		rp.resync(np.wal, epoch)
	}
}

// Primary returns the original primary server.
func (c *Cluster) Primary() *Server { return c.nodes[0].srv }

// Backup returns the i-th backup.
func (c *Cluster) Backup(i int) *Node { return c.nodes[i+1] }

// PrimaryLink returns the client↔primary link (for fault planes).
func (c *Cluster) PrimaryLink() *wire.Link { return c.Primary().link }

// ReplLink returns the primary↔backup replication link of backup i.
func (c *Cluster) ReplLink(i int) *wire.Link { return c.nodes[i+1].replLink }

// ActiveFS returns the file system of the replica currently serving:
// the primary's, or the promoted backup's after a failover.
func (c *Cluster) ActiveFS() *fs.FS { return c.activeServer().FS }

// SetRecorder attaches one recorder to every client-facing link in the
// cluster; build it on the cluster's clock (Clock) so all links trace
// one timeline. The replication links deliberately stay silent: their
// ship clients reuse the per-link client-ID space, so their generic
// client/link events would collide with application spans. Replication
// is traced instead by the explicit repl ship/ack/apply events, keyed
// on the trace context the WAL records carry across nodes.
func (c *Cluster) SetRecorder(rec *obs.Recorder) {
	for _, n := range c.nodes {
		n.srv.link.SetRecorder(rec)
	}
}

// SetServiceCharge arms the per-executed-op virtual service charge on
// every replica's client-facing server, so a promoted backup serves at
// the same rate the deposed primary did.
func (c *Cluster) SetServiceCharge(micros float64) {
	for _, n := range c.nodes {
		n.srv.Wire.SetServiceCharge(micros)
	}
}

// Clock returns the shared virtual clock of the cluster's links.
func (c *Cluster) Clock() *wire.VClock { return c.clock }

// SetCrashPlane arms the primary with a crash schedule. Schedules whose
// Fatalist face reports a permanent crash are what make failover fire.
func (c *Cluster) SetCrashPlane(cr faultplane.Crasher) { c.Primary().SetCrasher(cr) }

// permanentCrash is the crasher KillPrimaryForever installs: it never
// fires on its own but declares any crash fatal.
type permanentCrash struct{}

func (permanentCrash) CrashNow(faultplane.CrashPoint) bool { return false }
func (permanentCrash) Fatal() bool                         { return true }

// KillPrimaryForever kills the primary deterministically and marks the
// death permanent — the manual counterpart of a FatalFrom schedule.
func (c *Cluster) KillPrimaryForever() {
	c.Primary().SetCrasher(permanentCrash{})
	c.Primary().Crash()
}

// activeServer returns the server currently holding primacy.
func (c *Cluster) activeServer() *Server { return c.nodes[c.active].srv }

// receivers returns every node currently in the receiving role: the
// backups in index order minus the promoted one, then the deposed
// primary once it has rejoined.
func (c *Cluster) receivers() []*Node {
	out := make([]*Node, 0, len(c.nodes))
	for i, b := range c.nodes[1:] {
		if i+1 != c.active {
			out = append(out, b)
		}
	}
	if c.Demoted() != nil {
		out = append(out, c.nodes[0])
	}
	return out
}

// Stats snapshots the replica set's counters. Shipping counters merge
// the original primary's replicator with the promoted backup's (each
// ships during its own reign); sequence and lag read the node that
// currently holds primacy.
func (c *Cluster) Stats() ClusterStats {
	st := c.counts
	st.Backups = len(c.nodes) - 1
	if c.active > 0 {
		st.PromotedEpoch = c.activeServer().Wire.Epoch()
	}
	for _, b := range c.nodes {
		if b.srv.repl != nil {
			st.ReplStats = st.ReplStats.add(b.srv.repl.stats)
		}
		ws := b.srv.wal.Stats()
		st.Quarantined += ws.Quarantined
		st.Discarded += ws.Discarded
		st.BackupSeq = max(st.BackupSeq, b.appliedSeq)
		st.Reships += b.reships
		st.SeqViolations += b.seqViolations
	}
	act := c.activeServer()
	st.PrimarySeq = act.wal.LastSeq()
	if act.repl != nil {
		st.ReplicationLag = act.repl.lag(act.wal)
	}
	return st
}

// Audit checks the replicated log discipline after a run: the shipped
// stream must have applied with no checksum failures on every node (no
// record applied twice — retransmitted ships are skipped and counted,
// not re-applied), and no receiving node may stand ahead of the log
// that currently holds primacy. Replicas are numbered backups first,
// then the original primary.
func (c *Cluster) Audit() error {
	last := c.activeServer().wal.LastSeq()
	for i := range c.nodes {
		b := c.nodes[(i+1)%len(c.nodes)]
		if b.seqViolations > 0 {
			return fmt.Errorf("fsserver: replica %d: %d sequence violations", i, b.seqViolations)
		}
		if b.appliedSeq > last && !b.promoted {
			return fmt.Errorf("fsserver: replica %d applied %d past active log %d", i, b.appliedSeq, last)
		}
	}
	return nil
}

// serverWireStats merges the client-facing wire counters of every
// replica — the server half of the replicated transport picture.
func (c *Cluster) serverWireStats() wire.Stats {
	st := c.Primary().Wire.Stats()
	for _, b := range c.nodes[1:] {
		st = st.Add(b.srv.Wire.Stats())
	}
	return st
}
