package fsserver

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
)

// readAllocs measures the steady-state allocations of one Stat and one
// ReadDir through r, over a small tree and after a warm-up that fills
// the frame pools and the recorder's histogram classes.
func readAllocs(t *testing.T, r *Remote) (stat, readDir float64) {
	t.Helper()
	if err := r.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/d/a", "/d/b", "/d/c"} {
		fd, err := r.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	doStat := func() {
		if _, err := r.Stat("/d/a"); err != nil {
			t.Fatal(err)
		}
	}
	doReadDir := func() {
		if names, err := r.ReadDir("/d"); err != nil || len(names) != 3 {
			t.Fatalf("ReadDir = %v, %v", names, err)
		}
	}
	for i := 0; i < 16; i++ {
		doStat()
		doReadDir()
	}
	return testing.AllocsPerRun(300, doStat), testing.AllocsPerRun(300, doReadDir)
}

func TestReplicatedReadPathAllocatesLikeSingleServer(t *testing.T) {
	// A Remote spanning a replica set places its calls on the same path
	// as a single-server Remote, so a read — which ships nothing — costs
	// the same allocations per op.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cm := kernel.NewCostModel(arch.R3000)
	singleStat, singleDir := readAllocs(t, NewRemoteOnLink(fs.New(64), cm, wire.NewLink(localNet)))
	cluster := NewCluster(64, cm, ReplicaConfig{Backups: 2, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64})
	replStat, replDir := readAllocs(t, cluster.NewClient())
	t.Logf("allocs/op: Stat %.1f single, %.1f replicated; ReadDir %.1f single, %.1f replicated",
		singleStat, replStat, singleDir, replDir)
	if replStat > singleStat {
		t.Errorf("replicated Stat allocates %.1f per op, single-server %.1f", replStat, singleStat)
	}
	if replDir > singleDir {
		t.Errorf("replicated ReadDir allocates %.1f per op, single-server %.1f", replDir, singleDir)
	}
}

func TestTracingAddsNoAllocationInRemote(t *testing.T) {
	// The per-op latency observations of an attached flight recorder
	// must ride the call path for free, as the wire layers' events do.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cm := kernel.NewCostModel(arch.R3000)
	plainStat, _ := readAllocs(t, NewRemoteOnLink(fs.New(64), cm, wire.NewLink(localNet)))
	link := wire.NewLink(localNet)
	traced := NewRemoteOnLink(fs.New(64), cm, link)
	traced.SetRecorder(obs.NewFlightRecorder(link, 1<<12))
	tracedStat, _ := readAllocs(t, traced)
	t.Logf("allocs/op: Stat %.1f untraced, %.1f traced", plainStat, tracedStat)
	if tracedStat != plainStat {
		t.Errorf("traced Stat allocates %.1f per op, untraced %.1f", tracedStat, plainStat)
	}
}

func TestServerQueryHitsAllocateNothing(t *testing.T) {
	// A Stat or ReadDir that finds its path costs the server nothing on
	// the heap: the path is resolved from the call frame's bytes, the
	// listing goes through the server's reused buffer, and the frames
	// come from the link's pool. Calls are sealed by hand into one
	// buffer and their replies drained header-only, as the load engine
	// drives the server, so only the server side is counted.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	fsys := fs.New(64)
	for _, dir := range []string{"/d", "/d/a", "/d/b", "/d/c"} {
		if err := fsys.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	link := wire.NewLink(localNet)
	srv := NewServer(fsys, link, wire.B)
	client := wire.NewClient(link, wire.A).ClientID
	var callID uint32
	var payload, frame []byte
	call := func(proc uint32, path string) {
		callID++
		payload = wire.AppendString(payload[:0], path)
		var err error
		frame, err = wire.AppendEncode(frame[:0], wire.Header{Kind: wire.KindCall, CallID: callID, ProcID: proc, ClientID: client}, payload)
		if err != nil {
			t.Fatal(err)
		}
		link.Send(wire.A, frame)
		srv.Wire.Poll()
		h, err := link.RecvClientHeader(wire.A, client)
		if err != nil || h.Kind != wire.KindReply || h.CallID != callID {
			t.Fatalf("%s: reply %+v, %v", path, h, err)
		}
	}
	for _, q := range []struct {
		name string
		proc uint32
		path string
	}{{"Stat", ProcStat, "/d/b"}, {"ReadDir", ProcReadDir, "/d"}} {
		for i := 0; i < 16; i++ {
			call(q.proc, q.path)
		}
		got := testing.AllocsPerRun(300, func() { call(q.proc, q.path) })
		t.Logf("%s hit: %.1f server-side allocations", q.name, got)
		if got != 0 {
			t.Errorf("a %s hit allocates %.1f times on the server, want 0", q.name, got)
		}
	}
	if served := srv.Wire.Stats().Served; served != 2*(16+301) {
		t.Errorf("server answered %d calls, want %d", served, 2*(16+301))
	}
}

// writeAllocs measures the steady-state allocations of one 2 KiB Write
// and of one Mkdir+Unlink pair through r, after a warm-up.
func writeAllocs(t *testing.T, r *Remote) (write, pair float64) {
	t.Helper()
	fd, err := r.Create("/w")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 2048)
	doWrite := func() {
		if n, err := r.Write(fd, payload); err != nil || n != len(payload) {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	doPair := func() {
		if err := r.Mkdir("/p"); err != nil {
			t.Fatal(err)
		}
		if err := r.Unlink("/p"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		doWrite()
		doPair()
	}
	return testing.AllocsPerRun(300, doWrite), testing.AllocsPerRun(300, doPair)
}

func TestReplicatedWriteAllocationsPerBackup(t *testing.T) {
	// Every logged op is shipped to each backup before it is
	// acknowledged. The round's batch is encoded once and shared, so
	// what a backup adds is its ship call and its apply: the call's
	// reply frame, and the one copy of each Path and Data its log keeps
	// (Write measures 2.5 per backup per logged op, Mkdir+Unlink 3).
	// That price is bounded per backup and per logged op against the
	// same op on one server.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const backups, bound = 2, 4
	cm := kernel.NewCostModel(arch.R3000)
	singleWrite, singlePair := writeAllocs(t, NewRemoteOnLink(fs.New(64), cm, wire.NewLink(localNet)))
	cluster := NewCluster(64, cm, ReplicaConfig{Backups: backups, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64})
	replWrite, replPair := writeAllocs(t, cluster.NewClient())
	t.Logf("allocs/op: 2 KiB Write %.1f single, %.1f replicated; Mkdir+Unlink %.1f single, %.1f replicated",
		singleWrite, replWrite, singlePair, replPair)
	if per := (replWrite - singleWrite) / backups; per > bound {
		t.Errorf("replicated Write costs %.1f allocs per backup per logged op, want at most %d", per, bound)
	}
	if per := (replPair - singlePair) / backups / 2; per > bound {
		t.Errorf("replicated Mkdir+Unlink costs %.1f allocs per backup per logged op, want at most %d", per, bound)
	}
}

// dropAll is a fault plane that drops every frame: a link cut for as
// long as it is attached.
type dropAll struct{}

func (dropAll) Decide(int, int) faultplane.Decision { return faultplane.Decision{Drop: true} }

// healingBytes cuts the replication link for n Mkdirs, so the backup
// falls n records behind, heals it and returns the bytes allocated by
// the next Mkdir — the op whose ship carries the whole catch-up.
func healingBytes(t *testing.T, n int) uint64 {
	t.Helper()
	cluster := NewCluster(64, kernel.NewCostModel(arch.R3000), ReplicaConfig{Backups: 1, AckTimeoutMicros: 2e6, AckRetries: 1})
	remote := cluster.NewClient()
	cluster.ReplLink(0).SetFaultPlane(dropAll{})
	for i := 0; i < n; i++ {
		if err := remote.Mkdir(fmt.Sprintf("/d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if lag := cluster.Stats().ReplicationLag; lag != uint64(n) {
		t.Fatalf("backup lags %d records after a %d-op partition, want %d", lag, n, n)
	}
	cluster.ReplLink(0).SetFaultPlane(nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := remote.Mkdir("/healed"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if st := cluster.Stats(); st.BackupSeq != st.PrimarySeq {
		t.Fatalf("backup applied %d of %d after the link healed", st.BackupSeq, st.PrimarySeq)
	}
	return after.TotalAlloc - before.TotalAlloc
}

func TestCatchUpAllocationsGrowLinearly(t *testing.T) {
	// The healing op ships the backlog in chunks of at most
	// maxShipRecords; gathering one chunk per ship, not the whole
	// backlog above the cursor, keeps its cost linear in the backlog.
	// Four times the backlog is 4× the bytes when linear and 16× when
	// quadratic; the bound leaves room for map and slice growth.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	small, large := healingBytes(t, 1024), healingBytes(t, 4096)
	growth := float64(large) / float64(small)
	t.Logf("healing op allocated %d B after 1,024 partitioned Mkdirs, %d B after 4,096 (%.1f×)", small, large, growth)
	if growth > 6 {
		t.Errorf("4× the backlog cost %.1f× the healing op's bytes, want at most 6×", growth)
	}
}
