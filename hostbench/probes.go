package main

import (
	"bytes"
	"time"

	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc/wire"
	"archos/internal/obs"
)

// Trace-mode phase shares of --seconds: the untraced loop the layer
// table sums to, the traced loop, the loop with a flight recorder
// attached, and the layer probes.
const (
	untracedShare = 0.3
	tracedShare   = 0.2
	recorderShare = 0.15
	probeShare    = 0.35

	// maxTracedOps bounds the traced loop, and with it the span dump.
	maxTracedOps = 1 << 16
	// keptRecords bounds the sealed WAL records of one pass that the
	// ship probes replay and fs.records_bytes averages.
	keptRecords = 1 << 10
	// callBatch is how many microsecond-scale probe calls share a span,
	// and nsBatch how many nanosecond-scale ones do; the WAL and direct
	// probes give each op its own spans for one pass of the stream only.
	// Together they keep a span dump to a few MB.
	callBatch = 64
	nsBatch   = 1024
)

// record is the WAL record the server appends for the logged op
// s.ops[i], with descriptors resolved through fds, the live descriptor
// per slot.
func record(s *script, i int, fds []int) fs.Record {
	o := &s.ops[i]
	r := fs.Record{Path: o.path, N: o.n, Data: o.data, Client: 1, Call: uint32(i + 1)}
	switch o.kind {
	case opMkdir:
		r.Op = fs.OpMkdir
	case opCreate:
		r.Op = fs.OpCreate
	case opOpen:
		r.Op = fs.OpOpen
	case opClose:
		r.Op, r.FD = fs.OpClose, fds[o.slot]
	case opRead:
		r.Op, r.FD = fs.OpRead, fds[o.slot]
	case opWrite:
		r.Op, r.FD = fs.OpWrite, fds[o.slot]
	case opUnlink:
		r.Op = fs.OpUnlink
	}
	return r
}

// meanArgBytes is the mean encoded argument size of the script's calls.
func meanArgBytes(s *script) int {
	var buf []byte
	total := 0
	for i := range s.ops {
		o := &s.ops[i]
		buf = buf[:0]
		switch o.kind {
		case opClose:
			buf = wire.AppendInt64(buf, 0)
		case opRead:
			buf = wire.AppendInt64(wire.AppendInt64(buf, 0), int64(o.n))
		case opWrite:
			buf = wire.AppendBytes(wire.AppendInt64(buf, 0), o.data)
		default:
			buf = wire.AppendString(buf, o.path)
		}
		total += len(buf)
	}
	return total / len(s.ops)
}

// freshFS builds a file system holding what pop creates.
func freshFS(pop *script) *fs.FS {
	fsys := fs.New(cacheBlocks)
	if pop != nil {
		pop.replay(fsserver.NewDirect(fsys, costModel()), nopTimer)
	}
	return fsys
}

// newLog returns a file system holding what pop creates and a fresh WAL
// whose first snapshot is that state.
func newLog(pop *script) (*fs.FS, *fs.WAL) {
	fsys, w := freshFS(pop), fs.NewWAL(cacheBlocks)
	if err := w.Snapshot(fsys); err != nil {
		panic(err) // gob of the file system's own structures
	}
	return fsys, w
}

// logPass runs the logged ops of s once through the server's write
// discipline on w over fsys: WAL Append, FS.Apply, WAL Commit, then a
// snapshot whenever the policy calls for one. It hands each sealed
// record to each with the times the three steps started and the last
// ended; fds carries the live descriptor per slot between passes.
func logPass(w *fs.WAL, fsys *fs.FS, s *script, fds []int, every int, each func(r fs.Record, t0, t1, t2, t3 time.Time)) {
	for i := range s.ops {
		if !s.ops[i].kind.logged() {
			continue
		}
		r := record(s, i, fds)
		t0 := time.Now()
		r = w.Append(r)
		t1 := time.Now()
		out, err := fsys.Apply(r)
		t2 := time.Now()
		sess := fs.SessionRecord{Client: r.Client, Call: r.Call, Op: r.Op, Result: out}
		if err != nil {
			sess.Err = err.Error()
		}
		w.Commit(sess)
		each(r, t0, t1, t2, time.Now())
		fds[i] = out.FD
		if w.SinceSnapshot() >= every {
			if err := w.Snapshot(fsys); err != nil {
				panic(err)
			}
		}
	}
}

// onePass runs the logged ops of s exactly once through the write
// discipline over the state pop creates. It returns the file system it
// leaves and its first keptRecords sealed records in sequence order.
// Nothing in it depends on the host, so sizes taken from it are exact.
func onePass(pop, s *script, every int) (*fs.FS, []fs.Record) {
	fsys, w := newLog(pop)
	var sealed []fs.Record
	logPass(w, fsys, s, make([]int, len(s.ops)), every, func(r fs.Record, _, _, _, _ time.Time) {
		if len(sealed) < keptRecords {
			sealed = append(sealed, r)
		}
	})
	return fsys, sealed
}

// passSizes are the exact sizes of one pass of s: the snapshot of the
// state it leaves, in KB, and the mean one-record ship batch, in bytes.
func passSizes(pop, s *script) (snapshotKB, recordBytes float64) {
	fsys, recs := onePass(pop, s, snapshotEvery())
	w := fs.NewWAL(cacheBlocks)
	if err := w.Snapshot(fsys); err != nil {
		panic(err)
	}
	total := 0
	for _, r := range recs {
		b, err := fs.EncodeRecords([]fs.Record{r})
		if err != nil {
			panic(err)
		}
		total += len(b)
	}
	if len(recs) > 0 {
		recordBytes = float64(total) / float64(len(recs))
	}
	return float64(w.Stats().SnapshotBytes) / 1e3, recordBytes
}

// walProbe replays the logged ops of s through the write discipline
// over the state pop creates and returns Append+Apply+Commit and
// Append+Commit alone, µs per record; snapshots are off the clock. Each
// record of the first pass gets a wal.append span with the three steps
// as children. repeat replays s until d has elapsed; s must then leave
// the file system as it found it.
func walProbe(tr *tracer, pop, s *script, repeat bool, d time.Duration, every int) (fullUs, logUs float64) {
	fsys, w := newLog(pop)
	parent := tr.open("probe.wal", -1)
	idAll, idLog, idApply, idCommit := tr.id("wal.append"), tr.id("wal.append.log"), tr.id("wal.append.apply"), tr.id("wal.append.commit")
	fds := make([]int, len(s.ops))
	var n, logNs, allNs int64
	start := time.Now()
	for pass := 0; ; pass++ {
		logPass(w, fsys, s, fds, every, func(_ fs.Record, t0, t1, t2, t3 time.Time) {
			n++
			if pass == 0 {
				top := tr.add(idAll, parent, uint64(n), t0, t3.Sub(t0).Nanoseconds())
				tr.add(idLog, top, uint64(n), t0, t1.Sub(t0).Nanoseconds())
				tr.add(idApply, top, uint64(n), t1, t2.Sub(t1).Nanoseconds())
				tr.add(idCommit, top, uint64(n), t2, t3.Sub(t2).Nanoseconds())
			}
			allNs += t3.Sub(t0).Nanoseconds()
			logNs += t1.Sub(t0).Nanoseconds() + t3.Sub(t2).Nanoseconds()
		})
		if !repeat || n == 0 || time.Since(start) >= d {
			break
		}
	}
	tr.end(parent)
	if n == 0 {
		return 0, 0
	}
	return float64(allNs) / float64(n) / 1e3, float64(logNs) / float64(n) / 1e3
}

// layerProbes measures every probe-based per-layer metric on the
// workload's inputs: pop builds the starting state, s is the op stream
// (repeat: it restores the state, so it may be replayed), and its
// calls set the argument size of the call-path probes. It returns the
// WAL's Append+Commit µs per logged record, without the apply.
func layerProbes(tr *tracer, m map[string]float64, pop, s *script, repeat bool, budget time.Duration) (walLogUs float64) {
	d := budget / 10 // ten probes get d each
	every := snapshotEvery()

	// fs: the op stream on the monolithic arrangement.
	direct := fsserver.NewDirect(freshFS(pop), costModel())
	var dh latHist
	dparent := tr.open("probe.direct", -1)
	var ids [numOpKinds]int32
	for k := range ids {
		ids[k] = tr.id("direct." + opNames[k])
	}
	var opID uint64
	start := time.Now()
	for pass := 0; pass == 0 || (repeat && time.Since(start) < d); pass++ {
		p0 := time.Now()
		s.replay(direct, func(k opKind, t0 time.Time, ns int64) {
			opID++
			if pass == 0 {
				tr.add(ids[k], dparent, opID, t0, ns)
			}
			dh.add(ns)
		})
		if pass > 0 {
			tr.add(tr.id("direct.pass"), dparent, uint64(pass), p0, time.Since(p0).Nanoseconds())
		}
	}
	tr.end(dparent)
	m["fs.direct_op_us"] = dh.meanNs() / 1e3

	// fs: the WAL write discipline, then snapshots of the state one pass
	// of the stream leaves.
	m["fs.wal_append_us"], walLogUs = walProbe(tr, pop, s, repeat, d, every)
	fsys, recs := onePass(pop, s, every)
	snapWAL := fs.NewWAL(cacheBlocks)
	m["fs.wal_snapshot_ms"] = tr.probe("wal.snapshot", d, 1, func(int) {
		if err := snapWAL.Snapshot(fsys); err != nil {
			panic(err)
		}
	}) / 1e6
	if len(recs) > 0 {
		shipProbes(tr, m, pop, recs, d, every)
	}

	// wire: null calls carrying the workload's mean argument size.
	arg := make([]byte, meanArgBytes(s))
	m["wire.raw_call_us"], m["wire.boxed_call_us"], m["wire.failover_call_us"] = callProbes(tr, arg, d)
	frame, err := wire.Encode(wire.Header{Kind: wire.KindCall, CallID: 1, ProcID: 1, ClientID: 1}, arg)
	if err != nil {
		panic(err)
	}
	m["wire.frame_codec_ns"] = tr.probe("wire.codec", d, nsBatch, func(i int) {
		f, err := wire.Encode(wire.Header{Kind: wire.KindCall, CallID: uint32(i), ProcID: 1, ClientID: 1}, arg)
		if err != nil || len(f) != len(frame) {
			panic("frame encode")
		}
		if _, p, err := wire.Decode(f); err != nil || len(p) != len(arg) {
			panic("frame decode")
		}
	})

	// obs: one span event into a preallocated flight recorder.
	rec := obs.NewFlightRecorder(&obs.ManualClock{}, 1<<15)
	m["obs.emit_ns"] = tr.probe("obs.emit", d, nsBatch, func(i int) {
		rec.Emit(obs.Event{Layer: "probe", Name: "emit", Client: 1, Call: uint32(i), Val: float64(i)})
	})
	return walLogUs
}

// shipProbes times the ship codec and the backup-side apply on recs,
// the sealed records of one pass over the state pop creates, one record
// per batch.
func shipProbes(tr *tracer, m map[string]float64, pop *script, recs []fs.Record, d time.Duration, every int) {
	var encoded [][]byte
	for _, r := range recs {
		b, err := fs.EncodeRecords([]fs.Record{r})
		if err != nil {
			panic(err)
		}
		encoded = append(encoded, b)
	}
	m["fs.records_encode_us"] = tr.probe("records.encode", d/2, callBatch, func(i int) {
		if _, err := fs.EncodeRecords(recs[i%len(recs) : i%len(recs)+1]); err != nil {
			panic(err)
		}
	}) / 1e3
	m["fs.records_decode_us"] = tr.probe("records.decode", d/2, callBatch, func(i int) {
		if _, err := fs.DecodeRecords(encoded[i%len(encoded)]); err != nil {
			panic(err)
		}
	}) / 1e3
	// A backup applies the shipped log in sequence order from the state
	// the primary started in, each pass on a fresh backup; its snapshots,
	// by the same policy, are off the clock (the snapshot probe prices
	// them).
	bparent, bid := tr.open("probe.wal.apply_shipped", -1), tr.id("wal.apply_shipped")
	var bns, applied int64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		bfs, bw := freshFS(pop), fs.NewWAL(cacheBlocks)
		for i, r := range recs {
			t0 := time.Now()
			if err := bw.AppendShipped(r); err != nil {
				panic(err) // records sealed by onePass, in sequence order
			}
			out, err := bfs.Apply(r)
			sess := fs.SessionRecord{Client: r.Client, Call: r.Call, Op: r.Op, Result: out}
			if err != nil {
				sess.Err = err.Error()
			}
			bw.Commit(sess)
			ns := time.Since(t0).Nanoseconds()
			if pass == 0 {
				tr.add(bid, bparent, uint64(i+1), t0, ns)
			}
			bns += ns
			applied++
			if bw.SinceSnapshot() >= every {
				if err := bw.Snapshot(bfs); err != nil {
					panic(err)
				}
			}
		}
	}
	tr.end(bparent)
	m["fs.wal_apply_shipped_us"] = float64(bns) / float64(applied) / 1e3
}

// echoProc is the null procedure the call-path probes invoke.
const echoProc = 1

func echoServer(link *wire.Link) *wire.Server {
	srv := wire.NewServer(link, wire.B)
	srv.RegisterRaw(echoProc, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		rep.Bytes(a.Bytes())
		return a.Err()
	})
	return srv
}

// callProbes times a null raw call, a null boxed call, and a boxed
// call through a FailoverClient spanning three endpoints, each carrying
// arg and returning it.
func callProbes(tr *tracer, arg []byte, d time.Duration) (rawUs, boxedUs, failoverUs float64) {
	link := wire.NewLink(localNet)
	srv := echoServer(link)
	client := wire.NewClient(link, wire.A)
	rawUs = tr.probe("wire.raw_call", d, callBatch, func(int) {
		w := client.NewCallArgs()
		w.Bytes(arg)
		res, err := client.CallRaw(srv, echoProc, w)
		if err != nil || !bytes.Equal(res.Bytes(), arg) {
			panic("raw echo call failed")
		}
	}) / 1e3
	boxedUs = tr.probe("wire.boxed_call", d, callBatch, func(int) {
		out, err := client.Call(srv, echoProc, arg)
		if err != nil || !bytes.Equal(out[0].([]byte), arg) {
			panic("boxed echo call failed")
		}
	}) / 1e3
	var clients []*wire.Client
	var servers []*wire.Server
	for i := 0; i < 1+replicaConfig.Backups; i++ {
		l := wire.NewLink(localNet)
		servers = append(servers, echoServer(l))
		clients = append(clients, wire.NewClient(l, wire.A))
	}
	fo := wire.NewFailoverClient(clients, servers)
	failoverUs = tr.probe("wire.failover_call", d, callBatch, func(int) {
		out, err := fo.Call(echoProc, arg)
		if err != nil || !bytes.Equal(out[0].([]byte), arg) {
			panic("failover echo call failed")
		}
	}) / 1e3
	return rawUs, boxedUs, failoverUs
}
