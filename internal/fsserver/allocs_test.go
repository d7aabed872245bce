package fsserver

import (
	"bytes"
	"errors"
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
// the stack's free lists and the recorder's histogram classes.
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

func TestServerAllocatesOnlyTheLoggedPath(t *testing.T) {
	// A Stat or ReadDir costs the server nothing on the heap, whether it
	// finds its path or not: the path is resolved from the call frame's
	// bytes, the listing goes through the server's reused buffer, a miss
	// is written into the reply as the sentinel's text and the path's
	// bytes, and the frames come from the stack's free list. A Mkdir
	// collision allocates one thing, the path its WAL record keeps; its
	// session record and reply reuse that path. Calls are sealed by hand
	// into one buffer and their replies drained header-only, as the load
	// engine drives the server, so only the server side is counted.
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
	ops := []struct {
		name string
		proc uint32
		path string
		want float64
	}{
		{"Stat hit", ProcStat, "/d/b", 0},
		{"ReadDir hit", ProcReadDir, "/d", 0},
		{"Stat miss", ProcStat, "/z00042", 0},
		{"ReadDir miss", ProcReadDir, "/z00042", 0},
		{"Mkdir collision", ProcMkdir, "/d/a", 1},
	}
	for _, op := range ops {
		for i := 0; i < 16; i++ {
			call(op.proc, op.path)
		}
		got := testing.AllocsPerRun(300, func() { call(op.proc, op.path) })
		t.Logf("%s: %.1f server-side allocations", op.name, got)
		if got != op.want {
			t.Errorf("a %s allocates %.1f times on the server, want %.0f", op.name, got, op.want)
		}
	}
	if served := srv.Wire.Stats().Served; served != len(ops)*(16+301) {
		t.Errorf("server answered %d calls, want %d", served, len(ops)*(16+301))
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
	// acknowledged. The round's batch is encoded once and shared and
	// the ship call's reply frame is recycled, so what a backup adds is
	// its apply: the one copy of each Path and Data its log keeps
	// (Write measures 1 per backup per logged op, Mkdir+Unlink 2).
	// That price is bounded per backup and per logged op against the
	// same op on one server.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const backups, bound = 2, 2
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

// opAllocs measures the steady-state allocations of each op sequence in
// the per-op table through r, after a warm-up of each.
func opAllocs(t *testing.T, r *Remote) map[string]float64 {
	t.Helper()
	const runs, warm = 300, 16
	fd, err := r.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(fd, bytes.Repeat([]byte{0x3c}, 4096)); err != nil {
		t.Fatal(err)
	}
	wfd, err := r.Create("/w")
	if err != nil {
		t.Fatal(err)
	}
	// A 16-entry directory with names of three bytes, as in the
	// host-time benchmark's tree.
	if err := r.Mkdir("/l"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		fd, err := r.Create(fmt.Sprintf("/l/f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	// Close is measured alone on descriptors opened beforehand, one per
	// call AllocsPerRun makes (it runs f once more to warm up).
	open := make([]int, 0, warm+runs+1)
	for len(open) < cap(open) {
		fd, err := r.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, fd)
	}
	payload := bytes.Repeat([]byte{0x5a}, 2048)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	openClose := func(between func(fd int)) func() {
		return func() {
			fd, err := r.Open("/f")
			must(err)
			between(fd)
			must(r.Close(fd))
		}
	}
	ops := []struct {
		name string
		f    func()
	}{
		{"Stat", func() { _, err := r.Stat("/f"); must(err) }},
		{"Close", func() { must(r.Close(open[0])); open = open[1:] }},
		{"Open+Close", openClose(func(int) {})},
		{"Open+Read 1 KiB+Close", openClose(func(fd int) {
			if data, err := r.Read(fd, 1024); err != nil || len(data) != 1024 {
				t.Fatalf("Read = %d bytes, %v", len(data), err)
			}
		})},
		{"Open+Write 2 KiB+Close", openClose(func(fd int) { _, err := r.Write(fd, payload); must(err) })},
		{"Write 2 KiB", func() { _, err := r.Write(wfd, payload); must(err) }},
		{"Mkdir+Unlink", func() { must(r.Mkdir("/p")); must(r.Unlink("/p")) }},
		{"ReadDir 16 entries", func() {
			if names, err := r.ReadDir("/l"); err != nil || len(names) != 16 || names[15] != "f15" {
				t.Fatalf("ReadDir = %v, %v", names, err)
			}
		}},
		{"Stat miss", func() {
			if _, err := r.Stat("/z00042"); !errors.Is(err, ErrRemote) {
				t.Fatalf("Stat of a missing path = %v", err)
			}
		}},
		{"Mkdir collision", func() {
			if err := r.Mkdir("/l"); !errors.Is(err, ErrRemote) {
				t.Fatalf("Mkdir of an existing name = %v", err)
			}
		}},
	}
	got := map[string]float64{}
	for _, op := range ops {
		for i := 0; i < warm; i++ {
			op.f()
		}
		got[op.name] = testing.AllocsPerRun(runs, op.f)
	}
	return got
}

func TestSteadyStateAllocsPerOp(t *testing.T) {
	// What an op allocates once the free lists are warm is what the stack
	// keeps or hands back: a logged path or payload (one copy per node
	// that logs it), a read's result (the server's buffer, each
	// backup's replay of it, and the caller's copy), an inode, a
	// listing's names (one string and the slice of views into it,
	// however long the listing), a failure's error (its message, the
	// wire's RemoteError and the service's error wrapping it). Frames,
	// descriptor records, snapshot images and directory listings are
	// reused, and the servers write a failure's text into the reply
	// without building it. Stat and Close keep nothing and allocate
	// nothing.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cm := kernel.NewCostModel(arch.R3000)
	single := opAllocs(t, NewRemoteOnLink(fs.New(64), cm, wire.NewLink(localNet)))
	cluster := NewCluster(64, cm, ReplicaConfig{Backups: 2, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64})
	replicated := opAllocs(t, cluster.NewClient())
	for _, want := range []struct {
		op                 string
		single, replicated float64
	}{
		{"Stat", 0, 0},
		{"Close", 0, 0},
		{"Open+Close", 1, 3},
		{"Open+Read 1 KiB+Close", 3, 7},
		{"Open+Write 2 KiB+Close", 2, 6},
		{"Write 2 KiB", 1, 3},
		{"Mkdir+Unlink", 4, 12},
		{"ReadDir 16 entries", 2, 2},
		{"Stat miss", 3, 3},
		{"Mkdir collision", 4, 6},
	} {
		t.Logf("%-22s single %2.0f, 2 backups %2.0f", want.op, single[want.op], replicated[want.op])
		if got := single[want.op]; got > want.single {
			t.Errorf("%s allocates %.0f times on one server, want at most %.0f", want.op, got, want.single)
		}
		if got := replicated[want.op]; got > want.replicated {
			t.Errorf("%s allocates %.0f times with 2 backups, want at most %.0f", want.op, got, want.replicated)
		}
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
