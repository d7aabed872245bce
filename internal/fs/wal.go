package fs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// This file is the crash–recovery substrate for the decomposed server:
// a write-ahead op log over the deterministic FS. The FS allocates
// inode numbers and descriptors from counters, so replaying the same
// op sequence against the same starting state reproduces every fd
// number, every ino, and every byte — which is what lets Recover
// rebuild a crashed server's state bit-identically (checked via
// Fingerprint) and lets the server re-derive the replies it owed.

// OpCode names a logged mutating operation. Stat and ReadDir are
// queries — idempotent, safe to re-execute after a crash — and are
// never logged. Read IS logged: it advances the descriptor's offset,
// so dropping it from the log would skew every later read on that fd.
type OpCode int

const (
	// OpInvalid is the zero OpCode; Apply rejects it.
	OpInvalid OpCode = iota
	OpMkdir
	OpCreate
	OpOpen
	OpClose
	OpRead
	OpWrite
	OpUnlink
)

func (o OpCode) String() string {
	switch o {
	case OpMkdir:
		return "mkdir"
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpClose:
		return "close"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpUnlink:
		return "unlink"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Record is one write-ahead log entry: the operation, its arguments,
// and the RPC identity (Client, Call) that requested it. The identity
// is what makes the log double as the durable at-most-once record — a
// retransmission after a crash is recognised by (Client, Call), not by
// any in-memory cache.
type Record struct {
	Seq    uint64 // log sequence number, assigned by Append
	Op     OpCode
	Path   string // Mkdir, Create, Open, Unlink
	FD     int    // Close, Read, Write
	N      int    // Read: requested byte count
	Data   []byte // Write: payload
	Client uint32
	Call   uint32
	Sum    uint32 // checksum over the other fields, assigned by Append
}

// recordSum computes the record's integrity checksum over every field
// but Sum itself, via a canonical byte encoding. A record whose stored
// Sum disagrees was torn — partially persisted by a crash mid-append,
// or damaged in shipping.
func recordSum(r Record) uint32 {
	sum, _ := recordSumIn(make([]byte, 0, 6*8+len(r.Path)), &r)
	return sum
}

// recordSumIn is recordSum with the fixed fields and the path encoded
// in scratch, returned for reuse; the payload is checksummed in place.
// crc32.Update's argument escapes, so the WAL owns the scratch.
func recordSumIn(scratch []byte, r *Record) (uint32, []byte) {
	b := slices.Grow(scratch[:0], 6*8+len(r.Path))
	b = binary.BigEndian.AppendUint64(b, r.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(int64(r.Op)))
	b = binary.BigEndian.AppendUint64(b, uint64(len(r.Path)))
	b = append(b, r.Path...)
	b = binary.BigEndian.AppendUint64(b, uint64(int64(r.FD)))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(r.N)))
	b = binary.BigEndian.AppendUint64(b, uint64(len(r.Data)))
	sum := crc32.Update(0, crc32.IEEETable, b)
	sum = crc32.Update(sum, crc32.IEEETable, r.Data)
	b = binary.BigEndian.AppendUint32(b[:0], r.Client)
	b = binary.BigEndian.AppendUint32(b, r.Call)
	return crc32.Update(sum, crc32.IEEETable, b), b
}

// ApplyResult carries the operation's outputs: the allocated
// descriptor (Open, Create), the byte count (Read, Write), and the
// bytes read (Read).
type ApplyResult struct {
	FD   int
	N    int
	Data []byte
}

// Apply executes a logged operation against the file system and
// returns the error the public method for the op would. Determinism of
// the FS makes Apply a replay primitive: the same record sequence from
// the same state yields the same results — the same fds, the same
// errors — every time.
func (f *FS) Apply(r Record) (ApplyResult, error) {
	res, err := f.apply(r)
	return res, named(err, r.Path)
}

// ApplySession executes r as Apply does and returns the session record
// of its outcome. A Named failure costs nothing: the record keeps the
// sentinel's text in Err and r.Path, the path the log already holds,
// in ErrPath.
func (f *FS) ApplySession(r Record) SessionRecord {
	res, err := f.apply(r)
	s := SessionRecord{Client: r.Client, Call: r.Call, Op: r.Op, Result: res}
	if err != nil {
		s.Err = err.Error()
		if Named(err) {
			s.ErrPath = r.Path
		}
	}
	return s
}

// apply executes r, leaving a Named failure bare.
func (f *FS) apply(r Record) (ApplyResult, error) {
	switch r.Op {
	case OpMkdir:
		return ApplyResult{}, f.mkdir(r.Path)
	case OpCreate:
		fdno, err := f.create(r.Path)
		return ApplyResult{FD: fdno}, err
	case OpOpen:
		fdno, err := f.open(r.Path)
		return ApplyResult{FD: fdno}, err
	case OpClose:
		return ApplyResult{}, f.Close(r.FD)
	case OpRead:
		data, err := f.ReadN(r.FD, r.N)
		return ApplyResult{N: len(data), Data: data}, err
	case OpWrite:
		n, err := f.Write(r.FD, r.Data)
		return ApplyResult{N: n}, err
	case OpUnlink:
		return ApplyResult{}, f.unlink(r.Path)
	}
	return ApplyResult{}, fmt.Errorf("fs: cannot apply %v", r.Op)
}

// SessionRecord is the durable per-client at-most-once state: the last
// call executed for the client, with the outcome needed to regenerate
// its reply. One record per client suffices — the transport runs one
// outstanding call per client, so only the latest call can ever be
// retransmitted.
type SessionRecord struct {
	Client uint32
	Call   uint32
	Op     OpCode
	Result ApplyResult
	Err    string // the operation's error text; "" on success

	// ErrPath, when set, is the path a Named failure names: the whole
	// error text is then Err + ErrSep() + ErrPath, and Err the
	// sentinel's. The snapshot image stores the whole text, and a
	// restored record holds it all in Err.
	ErrPath string
}

// ErrSep is what joins Err to ErrPath in the whole error text: NamedSep
// when ErrPath is set, else nothing.
func (s *SessionRecord) ErrSep() string {
	if s.ErrPath == "" {
		return ""
	}
	return NamedSep
}

// WALStats counts log activity.
type WALStats struct {
	Appends              int
	Snapshots            int
	SnapshotBytes        int // size of the latest snapshot
	Truncated            int // tail records folded by snapshots
	TornTruncated        int // torn final records discarded by Recover
	Quarantined          int // corrupt records dropped by QuarantineFrom, awaiting re-fetch
	SnapshotsQuarantined int // undecodable snapshots discarded whole
	Discarded            int // speculative records a deposed primary discarded at demotion
	Installed            int // snapshots installed whole from a peer (state transfer)
}

// ErrWALCorrupt reports a record that failed its integrity check
// somewhere other than the final log position: the log itself is
// damaged at rest — a torn mid-log record or bit rot — rather than
// merely ending in the expected crash-mid-append tear. It carries the
// damaged record's sequence number and tail offset so a repair path
// can quarantine exactly the corrupt region and re-fetch it from a
// healthy peer; callers distinguish it from I/O or decode failures
// with errors.As.
type ErrWALCorrupt struct {
	Seq   uint64 // sequence number of the corrupt record
	Index int    // offset of the record in the un-snapshotted tail
}

func (e *ErrWALCorrupt) Error() string {
	return fmt.Sprintf("fs: torn record mid-log at seq %d (tail offset %d)", e.Seq, e.Index)
}

// WAL is the write-ahead op log: a snapshot of some past state plus
// the tail of records appended since. The discipline is
// append-before-apply — a record reaches the log before the op touches
// the FS — so a crash at any point loses at most volatile state the
// log can rebuild. The WAL lives outside the server process in this
// model (stable storage); a crash destroys the FS and the reply cache
// but never the log.
//
// Snapshot folds the tail into a new snapshot. The per-client session
// table is part of the snapshot, so folding cannot reopen the
// at-most-once window: a client's last call stays answerable from the
// log no matter how many snapshots intervene.
//
// Each record is stored once, in log. The tail is its suffix above
// snapSeq: recovery replays it. On a shipping log (a primary), the
// records at or below snapSeq that a backup has not yet acknowledged
// stay below the tail, for RecordsSince to re-ship. A record leaves the
// log once a snapshot has folded it and every backup has acknowledged
// it (release).
type WAL struct {
	cacheBlocks int
	nextSeq     uint64
	snapshot    []byte   // snapshot image (see encodeImage); nil until first Snapshot
	snapSeq     uint64   // sequence number the snapshot covers through
	log         []Record // retained records, ascending and contiguous in Seq
	acked       uint64   // ship cursor: every backup holds the log through here; noShip when not shipping
	sessions    map[uint32]SessionRecord
	stats       WALStats
	sumBuf      []byte // checksum scratch, one path long at most
}

// noShip is the ship cursor of a log that does not ship: only a
// snapshot releases its records.
const noShip = math.MaxUint64

// NewWAL creates an empty log for a file system with the given block
// cache size (recovery from an empty log starts from New(cacheBlocks)).
func NewWAL(cacheBlocks int) *WAL {
	return &WAL{cacheBlocks: cacheBlocks, acked: noShip, sessions: map[uint32]SessionRecord{}}
}

// Append assigns the next sequence number, seals the record with its
// checksum, and makes it durable. It must be called before the op is
// applied.
func (w *WAL) Append(r Record) Record {
	w.nextSeq++
	r.Seq = w.nextSeq
	r.Sum = w.checksum(&r)
	w.log = append(w.log, r)
	w.stats.Appends++
	return r
}

// checksum is recordSum in the WAL's own scratch.
func (w *WAL) checksum(r *Record) (sum uint32) {
	sum, w.sumBuf = recordSumIn(w.sumBuf, r)
	return sum
}

// EnableShipping starts the ship cursor at the log's end: from now on
// every appended record stays available to RecordsSince until
// AckShipped passes it, snapshots or not. The primary of a replica set
// enables this before serving; a log already shipping keeps its cursor.
func (w *WAL) EnableShipping() {
	if w.acked == noShip {
		w.acked = w.nextSeq
	}
}

// StopShipping ends the log's shipper role: from now on a snapshot
// alone releases records. A deposed primary stops before it rejoins as
// a receiver, whose shipped appends no backup will ever acknowledge.
func (w *WAL) StopShipping() {
	w.acked = noShip
	w.release()
}

// AppendShipped appends a record shipped from a primary, preserving its
// sequence number. The record must be the exact successor of the log's
// last sequence number and must carry a valid checksum — a gap or a
// damaged record is the replication bug this check exists to catch.
func (w *WAL) AppendShipped(r Record) error {
	if r.Seq != w.nextSeq+1 {
		return fmt.Errorf("fs: shipped record seq %d, log expects %d", r.Seq, w.nextSeq+1)
	}
	if r.Sum != w.checksum(&r) {
		return fmt.Errorf("fs: shipped record seq %d fails checksum", r.Seq)
	}
	w.nextSeq = r.Seq
	w.log = append(w.log, r)
	w.stats.Appends++
	return nil
}

// RecordsSince returns the retained records with sequence numbers above
// seq, in order — the batch to ship to a backup whose acknowledged
// cursor stands at seq, contiguous as long as seq is at or above
// ShipFloor. The result is a view of the log, found by binary search
// and valid until the log next changes: a shipper encodes it before
// anything appends, and copies nothing.
func (w *WAL) RecordsSince(seq uint64) []Record {
	return w.log[seqAbove(w.log, seq):]
}

// tail returns the records above the snapshot: the suffix recovery
// replays.
func (w *WAL) tail() []Record {
	return w.RecordsSince(w.snapSeq)
}

// seqAbove returns the index of the first record in recs, which ascend
// in Seq, whose Seq is above seq.
func seqAbove(recs []Record, seq uint64) int {
	return sort.Search(len(recs), func(i int) bool { return recs[i].Seq > seq })
}

// ShipFloor returns the lowest acknowledged cursor this log can serve
// contiguously through RecordsSince. A peer whose cursor stands below
// the floor has fallen behind the retained log — snapshot truncation
// dropped records it still needs — and must be caught up by state
// transfer (InstallSnapshot) instead of record shipping.
func (w *WAL) ShipFloor() uint64 {
	if len(w.log) == 0 {
		return w.snapSeq
	}
	return w.log[0].Seq - 1
}

// AckShipped advances the ship cursor to seq: every backup has
// acknowledged the log that far, so the primary no longer needs to
// retain it for re-shipping once a snapshot has folded it. A cursor
// never moves back here, nor past the log's end.
func (w *WAL) AckShipped(seq uint64) {
	w.acked = max(w.acked, min(seq, w.nextSeq))
	w.release()
}

// release drops every record both the snapshot and the ship cursor
// have passed, clearing the slots it vacates. A prefix of at least half
// the log (every snapshot on a fully acknowledged log releases it all)
// is dropped by moving the rest to the front, so appends reuse the
// array; a shorter one, as in a long catch-up, is resliced past, so no
// release copies the whole backlog: amortised O(1) per record either
// way.
func (w *WAL) release() {
	if i := seqAbove(w.log, min(w.acked, w.snapSeq)); 2*i >= len(w.log) {
		w.log = slices.Delete(w.log, 0, i)
	} else {
		clear(w.log[:i])
		w.log = w.log[i:]
	}
}

// rewind moves the log's end back to seq. A shipping log pulls its
// cursor down with it, so a sequence number the log reuses is never
// taken as acknowledged.
func (w *WAL) rewind(seq uint64) {
	w.nextSeq = seq
	if w.acked != noShip {
		w.acked = min(w.acked, seq)
	}
}

// ShipBacklog returns how many appended records await acknowledgement.
func (w *WAL) ShipBacklog() int {
	if w.acked == noShip {
		return 0
	}
	return len(w.RecordsSince(w.acked))
}

// LastSeq returns the highest sequence number appended so far.
func (w *WAL) LastSeq() uint64 {
	return w.nextSeq
}

// TearFinalRecord simulates the torn write a crash mid-append leaves
// behind: the last tail record loses the end of its payload (or, for a
// payloadless op, just its integrity) without its checksum being
// updated. Recovery must detect and truncate exactly this. Reports
// whether there was a tail record to tear.
func (w *WAL) TearFinalRecord() bool {
	tail := w.tail()
	if len(tail) == 0 {
		return false
	}
	r := &tail[len(tail)-1]
	if len(r.Data) > 0 {
		r.Data = r.Data[:len(r.Data)/2]
	} else {
		r.Sum ^= 0xdeadbeef
	}
	return true
}

// dropFrom removes every retained record with sequence number at or
// above seq and rewinds the log's end below it, returning how many tail
// records were dropped.
func (w *WAL) dropFrom(seq uint64) int {
	i := len(w.log)
	for i > 0 && w.log[i-1].Seq >= seq {
		i--
	}
	n := len(w.log) - max(i, seqAbove(w.log, w.snapSeq))
	w.log = w.log[:i]
	if seq-1 < w.nextSeq {
		w.rewind(seq - 1)
	}
	return n
}

// QuarantineFrom drops every record at or above seq from the log — the
// repair action for at-rest corruption. The records are gone but not
// lost to the cluster: the node's ship cursor rewinds with them, so
// the next ship from a healthy peer re-delivers the quarantined range,
// checksummed. Returns how many tail records were quarantined.
func (w *WAL) QuarantineFrom(seq uint64) int {
	n := w.dropFrom(seq)
	w.stats.Quarantined += n
	return n
}

// DiscardFrom drops every record at or above seq from the log — the
// demotion action for a deposed primary's speculative tail: records it
// appended after losing the primacy it thought it held, which the new
// primary's history supersedes. Same mechanics as QuarantineFrom,
// separate counter, because "my disk rotted" and "I was fenced" are
// different stories in the stats. Returns how many records were
// discarded.
func (w *WAL) DiscardFrom(seq uint64) int {
	n := w.dropFrom(seq)
	w.stats.Discarded += n
	return n
}

// QuarantineSnapshot abandons the entire log — snapshot, records,
// sessions — resetting it to genesis. The repair action when the
// snapshot itself is undecodable: nothing below it can be trusted, so
// the node falls back to full state transfer from a peer.
func (w *WAL) QuarantineSnapshot() {
	w.stats.Quarantined += w.SinceSnapshot()
	w.stats.SnapshotsQuarantined++
	w.snapshot = nil
	w.snapSeq = 0
	w.log = nil
	w.rewind(0)
	w.sessions = map[uint32]SessionRecord{}
}

// SnapshotBytes returns a copy of the current snapshot and the
// sequence number it covers through — the payload a primary streams to
// a peer too far behind for record shipping. Nil if no snapshot has
// been taken.
func (w *WAL) SnapshotBytes() ([]byte, uint64) {
	if w.snapshot == nil {
		return nil, 0
	}
	out := make([]byte, len(w.snapshot))
	copy(out, w.snapshot)
	return out, w.snapSeq
}

// SnapSeq returns the sequence number the snapshot covers through.
func (w *WAL) SnapSeq() uint64 {
	return w.snapSeq
}

// InstallSnapshot replaces the log wholesale with a snapshot received
// from a peer: the state-transfer landing. The snapshot is
// decode-validated before anything is discarded — a damaged transfer
// leaves the log untouched. On success the log's history is exactly
// the peer's through seq (no records, the snapshot's session table)
// and the rebuilt file system is returned
// for the caller to serve from.
func (w *WAL) InstallSnapshot(data []byte, seq uint64) (*FS, []SessionRecord, error) {
	f, snapSessions, err := restore(data)
	if err != nil {
		return nil, nil, fmt.Errorf("fs: install snapshot: %w", err)
	}
	w.snapshot = make([]byte, len(data))
	copy(w.snapshot, data)
	w.snapSeq = seq
	w.log = nil
	w.rewind(seq)
	w.sessions = make(map[uint32]SessionRecord, len(snapSessions))
	for _, s := range snapSessions {
		w.sessions[s.Client] = s
	}
	w.stats.Installed++
	w.stats.SnapshotBytes = len(w.snapshot)
	return f, snapSessions, nil
}

// CorruptTailRecord simulates at-rest damage to the tail record at the
// given offset — the disk-fault plane's mid-log tear: payload loss for
// a record with data, checksum rot otherwise. Reports the damaged
// record's sequence number and whether the offset named a record.
func (w *WAL) CorruptTailRecord(i int) (uint64, bool) {
	tail := w.tail()
	if i < 0 || i >= len(tail) {
		return 0, false
	}
	r := &tail[i]
	if len(r.Data) > 0 {
		r.Data = r.Data[:len(r.Data)/2]
	} else {
		r.Sum ^= 0xdeadbeef
	}
	return r.Seq, true
}

// CorruptSnapshotByte simulates at-rest bit rot in the snapshot: one
// bit flipped at the given offset (taken modulo the snapshot length).
// Reports whether there was a snapshot to damage.
func (w *WAL) CorruptSnapshotByte(off int) bool {
	if len(w.snapshot) == 0 {
		return false
	}
	if off < 0 {
		off = -off
	}
	w.snapshot[off%len(w.snapshot)] ^= 0x40
	return true
}

// recordsFormat is the leading byte of a shipped record batch.
const recordsFormat byte = 1

// minRecordBytes is the smallest encoded record: one byte for each of
// its six varints and length prefixes, and its three 4-byte words.
const minRecordBytes = 6 + 3*4

// EncodeRecords serialises a batch of records for shipping into a
// buffer sized exactly before the first append (see AppendRecords for
// the format). The error is always nil.
func EncodeRecords(recs []Record) ([]byte, error) {
	n := 1 + uvarintLen(uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		n += uvarintLen(r.Seq) + varintLen(int64(r.Op)) +
			uvarintLen(uint64(len(r.Path))) + len(r.Path) +
			varintLen(int64(r.FD)) + varintLen(int64(r.N)) +
			uvarintLen(uint64(len(r.Data))) + len(r.Data) + 3*4
	}
	return AppendRecords(make([]byte, 0, n), recs), nil
}

// AppendRecords appends the ship-batch encoding of recs to dst and
// returns the extended buffer: the format byte, a uvarint record count,
// then each record's fields in recordSum's order — uvarint Seq, varint
// Op, length-prefixed Path, varint FD and N, length-prefixed Data, and
// Client, Call and Sum as 4-byte big-endian words. An empty batch
// encodes to two bytes. Encoding cannot fail.
func AppendRecords(dst []byte, recs []Record) []byte {
	b := append(dst, recordsFormat)
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		b = binary.AppendUvarint(b, r.Seq)
		b = binary.AppendVarint(b, int64(r.Op))
		b = binary.AppendUvarint(b, uint64(len(r.Path)))
		b = append(b, r.Path...)
		b = binary.AppendVarint(b, int64(r.FD))
		b = binary.AppendVarint(b, int64(r.N))
		b = binary.AppendUvarint(b, uint64(len(r.Data)))
		b = append(b, r.Data...)
		b = binary.BigEndian.AppendUint32(b, r.Client)
		b = binary.BigEndian.AppendUint32(b, r.Call)
		b = binary.BigEndian.AppendUint32(b, r.Sum)
	}
	return b
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of x's zig-zag varint encoding.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// DecodeRecords is AppendDecodedRecords into a fresh slice.
func DecodeRecords(data []byte) ([]Record, error) { return AppendDecodedRecords(nil, data) }

// AppendDecodedRecords appends the records of a shipped batch to dst,
// writing every field whatever dst's spare capacity held. Each Path
// and Data is a copy, so the records outlive data — a view into a
// recycled wire frame. Malformed input is an error, found before anything
// is allocated for it: a wrong format byte, a count the remaining bytes
// cannot hold, a length prefix that runs past the end, a truncated
// field, or trailing bytes; dst then comes back as it was passed, with
// nothing decoded left in it. Checksums are left to WAL.AppendShipped.
func AppendDecodedRecords(dst []Record, data []byte) ([]Record, error) {
	if len(data) == 0 || data[0] != recordsFormat {
		return dst, errors.New("fs: decode records: not a record batch")
	}
	d := batchReader{b: data[1:]}
	count := d.count(minRecordBytes)
	if d.err != nil {
		return dst, fmt.Errorf("fs: decode records: %w", d.err)
	}
	dst = slices.Grow(dst, count)
	recs := dst[len(dst) : len(dst)+count]
	for i := range recs {
		r := Record{Seq: d.uvarint(), Op: OpCode(d.varint()), Path: string(d.bytes()),
			FD: int(d.varint()), N: int(d.varint())}
		if p := d.bytes(); len(p) > 0 {
			r.Data = append([]byte(nil), p...)
		}
		r.Client, r.Call, r.Sum = d.uint32(), d.uint32(), d.uint32()
		if d.err != nil {
			clear(recs[:i])
			return dst, fmt.Errorf("fs: decode records: record %d: %w", i, d.err)
		}
		recs[i] = r
	}
	if len(d.b) != 0 {
		clear(recs)
		return dst, fmt.Errorf("fs: decode records: %d trailing bytes", len(d.b))
	}
	return dst[:len(dst)+count], nil
}

// batchReader is the decoders' cursor over a record batch or a
// snapshot image. The first malformed field sets err; every later read
// returns a zero value.
type batchReader struct {
	b   []byte
	err error
}

func (d *batchReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errors.New("malformed uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint undoes the zig-zag mapping binary.AppendVarint applies.
func (d *batchReader) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// bytes returns a view of the next length-prefixed field.
func (d *batchReader) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("length %d runs past the %d bytes left", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// count reads a uvarint count of items, each at least minBytes long,
// refusing one the remaining bytes cannot hold.
func (d *batchReader) count(minBytes int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/minBytes) {
		d.err = fmt.Errorf("count %d exceeds what %d bytes can hold", n, len(d.b))
		return 0
	}
	return int(n)
}

// int reads a uvarint that must fit a non-negative int.
func (d *batchReader) int() int {
	v := d.uvarint()
	if v > math.MaxInt {
		d.err = fmt.Errorf("value %d overflows an int", v)
		return 0
	}
	return int(v)
}

// fail records a malformed structure, unless a field already failed.
func (d *batchReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *batchReader) uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.err = errors.New("truncated 4-byte word")
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// Commit records the outcome of an applied op in the client's session
// slot. Called after Apply; a crash between Append and Commit leaves
// the record in the tail, where recovery replays it and rebuilds the
// session entry with the identical (deterministic) outcome.
func (w *WAL) Commit(s SessionRecord) {
	w.sessions[s.Client] = s
}

// Session returns the client's durable at-most-once record.
func (w *WAL) Session(client uint32) (SessionRecord, bool) {
	s, ok := w.sessions[client]
	return s, ok
}

// SinceSnapshot returns the number of records in the tail.
func (w *WAL) SinceSnapshot() int {
	return len(w.tail())
}

// Stats returns a snapshot of the log counters.
func (w *WAL) Stats() WALStats {
	return w.stats
}

// snapFormat is the leading byte of a snapshot image.
const snapFormat byte = 1

// The smallest encoded inode, directory entry, descriptor and session:
// the bounds a decoded count is checked against.
const minInodeBytes, minEntryBytes, minFDBytes, minSessionBytes = 4, 2, 3, 2*4 + 5

// Snapshot captures f — which must reflect every record in the log
// through the tail — and folds the tail into it, releasing what the
// ship cursor has passed. The session table rides inside the snapshot.
// The new image is encoded into the previous one's buffer when it
// fits: nothing else holds that buffer (SnapshotBytes copies out,
// InstallSnapshot copies in and restore copies out), and every byte of
// it is rewritten. The log keeps its array, zeroed past its end so it
// pins no logged Path or Data (a quarantine or a torn-record truncation
// leaves records there), and the records after the snapshot refill it
// without regrowing it: nothing holds a slice of the log past a call
// (a shipper encodes RecordsSince's view at once, and TearFinalRecord
// and CorruptTailRecord hold a pointer only while they run). The error
// is always nil.
func (w *WAL) Snapshot(f *FS) error {
	w.snapshot = encodeImage(w.snapshot, w.cacheBlocks, f, w.sessions)
	w.stats.Snapshots++
	w.stats.SnapshotBytes = len(w.snapshot)
	w.stats.Truncated += w.SinceSnapshot()
	w.snapSeq = w.nextSeq
	w.release()
	clear(w.log[len(w.log):cap(w.log)])
	return nil
}

// encodeImage serialises f and the session table as a snapshot image
// (DESIGN.md §9): the format byte, then varints and length-prefixed
// bytes in a sorted walk — inodes by number, each directory's entries
// by name, descriptors by number, sessions by client — so the image is
// a pure function of the logical state, and last a CRC-32 (IEEE) of
// everything before it. The image's size is computed before the first
// append; it is written over dst's array when that holds it, else into
// one fresh buffer of exactly that size, and each file's bytes are
// copied into it once.
func encodeImage(dst []byte, cacheBlocks int, f *FS, sessions map[uint32]SessionRecord) []byte {
	nodes := append(make([]*inode, 0, f.ninodes), f.root)
	for i := 0; i < len(nodes); i++ {
		for _, e := range nodes[i].entries() {
			nodes = append(nodes, e.n)
		}
	}
	slices.SortFunc(nodes, func(a, b *inode) int { return cmp.Compare(a.ino, b.ino) })
	fdnos, clients := sortedKeys(f.fds), sortedKeys(sessions)

	size := 1 + varintLen(int64(cacheBlocks)) + uvarintLen(f.nextIno) + uvarintLen(uint64(f.nextFD)) +
		uvarintLen(uint64(len(nodes))) + uvarintLen(uint64(len(fdnos))) + uvarintLen(uint64(len(clients))) + 4
	for _, n := range nodes {
		size += uvarintLen(n.ino) + uvarintLen(uint64(n.kind)) + uvarintLen(uint64(n.nlink))
		if n.kind != KindDir {
			size += uvarintLen(uint64(len(n.data))) + len(n.data)
			continue
		}
		size += uvarintLen(uint64(len(n.listing)))
		for _, e := range n.listing {
			size += uvarintLen(uint64(len(e.name))) + len(e.name) + uvarintLen(e.n.ino)
		}
	}
	for _, no := range fdnos {
		size += uvarintLen(uint64(no)) + uvarintLen(f.fds[no].n.ino) + uvarintLen(uint64(f.fds[no].offset))
	}
	for _, c := range clients {
		s := sessions[c]
		size += 2*4 + varintLen(int64(s.Op)) + varintLen(int64(s.Result.FD)) + varintLen(int64(s.Result.N)) +
			uvarintLen(uint64(len(s.Result.Data))) + len(s.Result.Data) + uvarintLen(uint64(errLen(&s))) + errLen(&s)
	}

	b := dst[:0]
	if cap(b) < size {
		b = make([]byte, 0, size)
	}
	b = append(b, snapFormat)
	b = binary.AppendVarint(b, int64(cacheBlocks))
	b = binary.AppendUvarint(b, f.nextIno)
	b = binary.AppendUvarint(b, uint64(f.nextFD))
	b = binary.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = binary.AppendUvarint(b, n.ino)
		b = binary.AppendUvarint(b, uint64(n.kind))
		b = binary.AppendUvarint(b, uint64(n.nlink))
		if n.kind != KindDir {
			b = binary.AppendUvarint(b, uint64(len(n.data)))
			b = append(b, n.data...)
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(n.listing)))
		for _, e := range n.listing {
			b = binary.AppendUvarint(b, uint64(len(e.name)))
			b = append(b, e.name...)
			b = binary.AppendUvarint(b, e.n.ino)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(fdnos)))
	for _, no := range fdnos {
		b = binary.AppendUvarint(b, uint64(no))
		b = binary.AppendUvarint(b, f.fds[no].n.ino)
		b = binary.AppendUvarint(b, uint64(f.fds[no].offset))
	}
	b = binary.AppendUvarint(b, uint64(len(clients)))
	for _, c := range clients {
		s := sessions[c]
		b = binary.BigEndian.AppendUint32(b, s.Client)
		b = binary.BigEndian.AppendUint32(b, s.Call)
		b = binary.AppendVarint(b, int64(s.Op))
		b = binary.AppendVarint(b, int64(s.Result.FD))
		b = binary.AppendVarint(b, int64(s.Result.N))
		b = binary.AppendUvarint(b, uint64(len(s.Result.Data)))
		b = append(b, s.Result.Data...)
		b = binary.AppendUvarint(b, uint64(errLen(&s)))
		b = append(append(append(b, s.Err...), s.ErrSep()...), s.ErrPath...)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// errLen is the length of a session's whole error text.
func errLen(s *SessionRecord) int { return len(s.Err) + len(s.ErrSep()) + len(s.ErrPath) }

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// restore rebuilds a file system and its session table from a snapshot
// image. It checks the checksum first, then every count and length
// before allocating for it, and refuses any structure a live file
// system cannot have (DESIGN.md §9 lists them). File data and session
// results are copied out of the image: FS.Write changes file data in
// place, and the image may rot or be reused once restore returns.
func restore(img []byte) (*FS, []SessionRecord, error) {
	if len(img) < 1+4 || img[0] != snapFormat {
		return nil, nil, errors.New("fs: snapshot decode: not a snapshot image")
	}
	body := img[:len(img)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(img[len(body):]) {
		return nil, nil, errors.New("fs: snapshot decode: checksum mismatch")
	}
	d := batchReader{b: body[1:]}
	f := New(int(d.varint()))
	f.nextIno, f.nextFD = d.uvarint(), d.int()
	nodes := make([]inode, d.count(minInodeBytes))
	// kids[first[i]:first[i+1]] are the inodes node i's entries name, in
	// the order of its listing.
	first := make([]int, len(nodes)+1)
	var kids []uint64
	for i := 0; i < len(nodes) && d.err == nil; i++ {
		n := &nodes[i]
		n.ino, n.kind, n.nlink = d.uvarint(), FileKind(d.uvarint()), d.int()
		if i > 0 && n.ino <= nodes[i-1].ino {
			d.fail("inode %d follows inode %d", n.ino, nodes[i-1].ino)
		}
		switch {
		case n.kind == KindFile && n.nlink == 1:
			if p := d.bytes(); len(p) > 0 {
				n.data = append([]byte(nil), p...)
			}
		case n.kind == KindDir:
			entries := d.count(minEntryBytes)
			n.children = make(map[string]*inode, entries)
			n.listing, n.sorted = make([]dirent, 0, entries), true // entries come in name order
			prev := ""
			for j := 0; j < entries && d.err == nil; j++ {
				name, ino := string(d.bytes()), d.uvarint()
				if !validName(name) || name <= prev {
					d.fail("directory %d: entry %q out of order or not a name", n.ino, name)
				}
				n.listing = append(n.listing, dirent{name: name})
				kids = append(kids, ino)
				prev = name
			}
		default:
			d.fail("inode %d: kind %d with link count %d", n.ino, n.kind, n.nlink)
		}
		first[i+1] = len(kids)
	}
	switch {
	case d.err != nil:
	case len(nodes) == 0 || nodes[0].ino != 1 || nodes[0].kind != KindDir:
		d.fail("no root directory")
	case f.nextIno < nodes[len(nodes)-1].ino:
		d.fail("next inode %d is below inode %d", f.nextIno, nodes[len(nodes)-1].ino)
	default:
		d.err = linkTree(nodes, first, kids)
		f.root, f.ninodes = &nodes[0], len(nodes)
	}

	fds := d.count(minFDBytes)
	f.fds = make(map[int]fd, fds)
	for i, prev := 0, 0; i < fds && d.err == nil; i++ {
		no, ino, offset := d.int(), d.uvarint(), d.int()
		at, found := inodeAt(nodes, ino)
		if no <= prev || no > f.nextFD || !found || nodes[at].kind != KindFile {
			d.fail("descriptor %d on inode %d: out of order, above %d, or not on a file", no, ino, f.nextFD)
			break
		}
		f.fds[no] = fd{n: &nodes[at], offset: offset}
		prev = no
	}
	sessions := make([]SessionRecord, d.count(minSessionBytes))
	for i := 0; i < len(sessions) && d.err == nil; i++ {
		s := &sessions[i]
		s.Client, s.Call, s.Op = d.uint32(), d.uint32(), OpCode(d.varint())
		s.Result.FD, s.Result.N = int(d.varint()), int(d.varint())
		if p := d.bytes(); len(p) > 0 {
			s.Result.Data = append([]byte(nil), p...)
		}
		s.Err = string(d.bytes())
		if i > 0 && s.Client <= sessions[i-1].Client {
			d.fail("session for client %d follows client %d", s.Client, sessions[i-1].Client)
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, nil, fmt.Errorf("fs: snapshot decode: %w", d.err)
	}
	return f, sessions, nil
}

// linkTree walks the decoded inodes breadth-first from the root,
// nodes[0], pointing each directory entry at the inode it names, and
// refuses anything but a tree: an entry naming a missing inode, the
// root or an inode already named, a directory whose link count is not
// two plus its subdirectories, or an inode never reached.
func linkTree(nodes []inode, first []int, kids []uint64) error {
	seen := make([]bool, len(nodes))
	seen[0] = true
	queue := append(make([]int, 0, len(nodes)), 0)
	for q := 0; q < len(queue); q++ {
		dir, subdirs := &nodes[queue[q]], 0
		for j, ino := range kids[first[queue[q]]:first[queue[q]+1]] {
			i, found := inodeAt(nodes, ino)
			if !found || i == 0 || seen[i] {
				return fmt.Errorf("directory %d names inode %d: missing, the root, or named twice", dir.ino, ino)
			}
			seen[i] = true
			queue = append(queue, i)
			if nodes[i].kind == KindDir {
				subdirs++
			}
			dir.listing[j].n = &nodes[i]
			dir.children[dir.listing[j].name] = &nodes[i]
		}
		if dir.kind == KindDir && dir.nlink != 2+subdirs {
			return fmt.Errorf("directory %d has link count %d and %d subdirectories", dir.ino, dir.nlink, subdirs)
		}
	}
	if len(queue) != len(nodes) {
		return fmt.Errorf("%d inodes unreachable from the root", len(nodes)-len(queue))
	}
	return nil
}

// inodeAt finds inode number ino in nodes, sorted by number.
func inodeAt(nodes []inode, ino uint64) (int, bool) {
	return slices.BinarySearchFunc(nodes, ino, func(n inode, ino uint64) int { return cmp.Compare(n.ino, ino) })
}

// validName reports whether name can be a directory entry: a path
// component split would keep.
func validName(name string) bool {
	return name != "" && name != "." && name != ".." && len(name) <= maxName && !strings.Contains(name, "/")
}

// Recover rebuilds the file system a crashed server lost: restore the
// snapshot (or start empty), then replay the tail in sequence order
// through ApplySession. Because the FS is deterministic, the rebuilt state is
// bit-identical to the pre-crash state — same fingerprint, same fd
// table, same counters-to-come. The WAL's session table is reset to
// the recovered view (snapshot sessions overlaid with replayed tail
// ops), which is exactly the at-most-once state the restarted server
// answers retransmissions from.
//
// Returns the file system, the recovered sessions sorted by client,
// and the number of tail records replayed.
func Recover(w *WAL) (*FS, []SessionRecord, int, error) {
	// Integrity pass before anything is replayed. A torn FINAL record is
	// the expected signature of a crash mid-append — the op never became
	// durable, its client never got a reply, its retransmission will
	// relog it — so recovery truncates it and proceeds. A torn record
	// anywhere else means the log itself is damaged: replaying past the
	// hole would diverge, so recovery refuses.
	tail := w.tail()
	for i, r := range tail {
		if r.Sum == w.checksum(&r) {
			continue
		}
		if i != len(tail)-1 {
			return nil, nil, 0, &ErrWALCorrupt{Seq: r.Seq, Index: i}
		}
		tail = tail[:i]
		w.log = w.log[:len(w.log)-1]
		w.rewind(r.Seq - 1)
		w.stats.TornTruncated++
	}
	var f *FS
	sessions := map[uint32]SessionRecord{}
	if w.snapshot != nil {
		restored, snapSessions, err := restore(w.snapshot)
		if err != nil {
			return nil, nil, 0, err
		}
		f = restored
		for _, s := range snapSessions {
			sessions[s.Client] = s
		}
	} else {
		f = New(w.cacheBlocks)
	}
	for _, r := range tail {
		sessions[r.Client] = f.ApplySession(r)
	}
	w.sessions = sessions
	out := make([]SessionRecord, 0, len(sessions))
	for _, c := range sortedKeys(sessions) {
		out = append(out, sessions[c])
	}
	return f, out, len(tail), nil
}

// CacheBlocks returns the block-cache capacity the file system was
// built with — the parameter recovery needs to rebuild an equivalent
// FS.
func (f *FS) CacheBlocks() int { return f.cache.capacity }
