package fsserver

import (
	"bytes"
	"errors"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
)

func arrangements(t *testing.T) map[string]Service {
	t.Helper()
	cm := kernel.NewCostModel(arch.R3000)
	return map[string]Service{
		"direct": NewDirect(fs.New(256), cm),
		"remote": NewRemote(fs.New(256), cm),
	}
}

func TestServiceConformance(t *testing.T) {
	for name, svc := range arrangements(t) {
		t.Run(name, func(t *testing.T) {
			if err := svc.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			fd, err := svc.Create("/d/f")
			if err != nil {
				t.Fatal(err)
			}
			if n, err := svc.Write(fd, []byte("decomposed")); err != nil || n != 10 {
				t.Fatalf("write: %d %v", n, err)
			}
			if err := svc.Close(fd); err != nil {
				t.Fatal(err)
			}
			fd, err = svc.Open("/d/f")
			if err != nil {
				t.Fatal(err)
			}
			data, err := svc.Read(fd, 64)
			if err != nil || !bytes.Equal(data, []byte("decomposed")) {
				t.Fatalf("read: %q %v", data, err)
			}
			if err := svc.Close(fd); err != nil {
				t.Fatal(err)
			}
			st, err := svc.Stat("/d/f")
			if err != nil || st.Size != 10 || st.Kind != fs.KindFile {
				t.Fatalf("stat: %+v %v", st, err)
			}
			names, err := svc.ReadDir("/d")
			if err != nil || len(names) != 1 || names[0] != "f" {
				t.Fatalf("readdir: %v %v", names, err)
			}
			if err := svc.Unlink("/d/f"); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Open("/d/f"); err == nil {
				t.Fatal("open after unlink succeeded")
			}
		})
	}
}

func TestRemoteReadResultOutlivesLaterCalls(t *testing.T) {
	// The reply frame a Read arrives in goes back to the free list at
	// the caller's next call, but Service.Read returns bytes the caller
	// keeps: 64 more calls on the same Remote, reads of other bytes
	// among them, must leave an earlier result unchanged.
	cm := kernel.NewCostModel(arch.R3000)
	for _, c := range []struct {
		name   string
		remote func() *Remote
	}{
		{"single", func() *Remote { return NewRemoteOnLink(fs.New(64), cm, wire.NewLink(localNet)) }},
		{"2 backups", func() *Remote {
			return NewCluster(64, cm, ReplicaConfig{Backups: 2, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64}).NewClient()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := c.remote()
			for i, path := range []string{"/a", "/b"} {
				fd, err := r.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Write(fd, bytes.Repeat([]byte{byte('a' + i)}, 1024)); err != nil {
					t.Fatal(err)
				}
				if err := r.Close(fd); err != nil {
					t.Fatal(err)
				}
			}
			read := func(path string) []byte {
				t.Helper()
				fd, err := r.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				data, err := r.Read(fd, 1024)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Close(fd); err != nil {
					t.Fatal(err)
				}
				return data
			}
			kept := read("/a")
			want := bytes.Repeat([]byte{'a'}, 1024)
			for calls := 0; calls < 64; calls += 3 {
				read("/b")
			}
			if !bytes.Equal(kept, want) {
				t.Errorf("an earlier Read result changed under later calls: %q…", kept[:16])
			}
		})
	}
}

func TestRemoteErrorsCrossTheWire(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	r := NewRemote(fs.New(64), cm)
	if _, err := r.Open("/nope"); !errors.Is(err, ErrRemote) {
		t.Errorf("open(/nope) = %v, want a remote error", err)
	}
}

func TestAndrewMiniSameResultBothArrangements(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	dfs, rfs := fs.New(256), fs.New(256)
	direct := NewDirect(dfs, cm)
	remote := NewRemote(rfs, cm)
	script := DefaultAndrewMini()

	opsD, err := script.Run(direct)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	opsR, err := script.Run(remote)
	if err != nil {
		t.Fatalf("remote: %v", err)
	}
	// The script issues the same logical operations under both
	// arrangements, and the file systems end in identical states.
	if opsD != opsR {
		t.Errorf("op counts differ: direct %d, remote %d", opsD, opsR)
	}
	for _, fsys := range []*fs.FS{dfs, rfs} {
		if fsys.OpenFDs() != 0 {
			t.Errorf("leaked %d descriptors", fsys.OpenFDs())
		}
	}
	da, _ := dfs.ReadFile("/src/d00/f00.c")
	ra, _ := rfs.ReadFile("/src/d00/f00.c")
	if !bytes.Equal(da, ra) {
		t.Error("file contents diverge between arrangements")
	}
	if _, err := dfs.Stat("/copy/d00_f00.c"); !errors.Is(err, fs.ErrNotExist) {
		t.Error("cleanup phase left copies behind")
	}
}

func TestDecompositionCostsMoreMechanically(t *testing.T) {
	// The Table 7 effect, produced by running real operations: the
	// decomposed arrangement issues 2 syscalls + 2 AS switches per op
	// and pays marshalling, so its primitive time multiplies.
	cm := kernel.NewCostModel(arch.R3000)
	direct := NewDirect(fs.New(256), cm)
	remote := NewRemote(fs.New(256), cm)
	script := DefaultAndrewMini()
	if _, err := script.Run(direct); err != nil {
		t.Fatal(err)
	}
	if _, err := script.Run(remote); err != nil {
		t.Fatal(err)
	}
	d, r := direct.Stats(), remote.Stats()
	if r.Syscalls != 2*d.Syscalls {
		t.Errorf("remote syscalls %d, want exactly 2x direct's %d", r.Syscalls, d.Syscalls)
	}
	if r.ASSwitches != 2*d.Ops {
		t.Errorf("remote AS switches %d, want 2 per op (%d ops)", r.ASSwitches, d.Ops)
	}
	if d.ASSwitches != 0 {
		t.Errorf("direct arrangement switched address spaces %d times", d.ASSwitches)
	}
	if r.VirtualMicros < 3*d.VirtualMicros {
		t.Errorf("remote primitive time %.0f µs not ≥3x direct's %.0f µs", r.VirtualMicros, d.VirtualMicros)
	}
	if r.PayloadBytes == 0 {
		t.Error("remote arrangement marshalled no payload")
	}
	if n := remote.server.Wire.Stats().BadFrames; n != 0 {
		t.Errorf("clean link rejected %d frames", n)
	}
}

func TestScriptIsDeterministic(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	run := func() Stats {
		svc := NewRemote(fs.New(256), cm)
		if _, err := DefaultAndrewMini().Run(svc); err != nil {
			t.Fatal(err)
		}
		return svc.Stats()
	}
	if run() != run() {
		t.Error("script replay not deterministic")
	}
}

func TestBlockCacheVisibleThroughService(t *testing.T) {
	// Re-running the scan phase against a warm cache produces hits —
	// the mechanism behind workload.Spec.Blocks.
	cm := kernel.NewCostModel(arch.R3000)
	fsys := fs.New(1024)
	direct := NewDirect(fsys, cm)
	if _, err := DefaultAndrewMini().Run(direct); err != nil {
		t.Fatal(err)
	}
	hits, misses := fsys.CacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("cache stats hits=%d misses=%d; expected both nonzero", hits, misses)
	}
	if hits < misses {
		t.Errorf("copy+scan phases should mostly hit a big cache (hits %d < misses %d)", hits, misses)
	}
}

// TestBlockCacheStatsPinned pins the hits and misses of the andrew
// script on the monolithic arrangement, at capacities that never evict
// (512) and that evict throughout (64, 16, 4). The values were taken
// from the stamp-and-scan cache the linked-list LRU replaced, so they
// pin its victim order end to end.
func TestBlockCacheStatsPinned(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	for _, c := range []struct {
		blocks       int
		hits, misses int64
	}{{512, 832, 104}, {64, 789, 147}, {16, 730, 206}, {4, 641, 295}} {
		direct := NewDirect(fs.New(c.blocks), cm)
		if _, err := DefaultAndrewMini().Run(direct); err != nil {
			t.Fatal(err)
		}
		if hits, misses := direct.FS.CacheStats(); hits != c.hits || misses != c.misses {
			t.Errorf("%d blocks: hits=%d misses=%d, want %d/%d", c.blocks, hits, misses, c.hits, c.misses)
		}
	}
}

// negativeReadScript writes a 10-byte file and reads it back through a
// read with a negative byte count, which must fail like any other
// failing op and leave the descriptor and the service answering.
func negativeReadScript(t *testing.T, svc Service) {
	t.Helper()
	if err := svc.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	fd, err := svc.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Write(fd, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(fd); err != nil {
		t.Fatal(err)
	}
	if fd, err = svc.Open("/d/f"); err != nil {
		t.Fatal(err)
	}
	if data, err := svc.Read(fd, -1); err == nil {
		t.Fatalf("Read(fd, -1) = %q, want an error", data)
	}
	if data, err := svc.Read(fd, 4); err != nil || string(data) != "0123" {
		t.Fatalf("Read(fd, 4) after the refused read = %q, %v; want \"0123\"", data, err)
	}
	if err := svc.Close(fd); err != nil {
		t.Fatal(err)
	}
	if st, err := svc.Stat("/d/f"); err != nil || st.Size != 10 {
		t.Fatalf("Stat after the refused read = %+v, %v", st, err)
	}
}

// TestNegativeReadCountIsAnOrdinaryError: a read request carries its
// byte count into the log, so a negative count reaches the primary's
// apply, every backup's (ship runs before apply) and recovery's replay.
// Each must fail the op with an error rather than panic allocating the
// buffer, and every node must end on the monolith's state.
func TestNegativeReadCountIsAnOrdinaryError(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	mono := fs.New(64)
	direct := NewDirect(mono, cm)
	negativeReadScript(t, direct)
	if _, err := direct.Read(-1, -1); !errors.Is(err, fs.ErrBadCount) {
		t.Errorf("Direct.Read(-1, -1) = %v, want fs.ErrBadCount", err)
	}
	want := mono.Fingerprint()

	t.Run("single server", func(t *testing.T) {
		link := wire.NewLink(ipc.NetworkConfig{Name: "local", BandwidthMbps: 1e6})
		remote := NewRemoteOnLink(fs.New(64), cm, link)
		negativeReadScript(t, remote)
		// Recovery replays the logged negative read from the WAL.
		remote.server.Crash()
		if _, err := remote.Stat("/d/f"); err != nil {
			t.Fatalf("Stat after recovery: %v", err)
		}
		if n, _ := remote.server.Recoveries(); n != 1 {
			t.Fatalf("server recovered %d times, want 1", n)
		}
		if got := remote.ServerFS().Fingerprint(); got != want {
			t.Error("recovered server diverged from the monolith")
		}
	})

	t.Run("2-backup cluster", func(t *testing.T) {
		cluster := NewCluster(64, cm, ReplicaConfig{Backups: 2, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64})
		negativeReadScript(t, cluster.NewClient())
		if err := cluster.Audit(); err != nil {
			t.Error(err)
		}
		fps := cluster.NodeFingerprints()
		if len(fps) != 3 {
			t.Fatalf("%d node fingerprints, want 3", len(fps))
		}
		for i, fp := range fps {
			if fp != want {
				t.Errorf("node %d diverged from the monolith", i)
			}
		}
	})
}

func TestDirectReadBufferCappedAtFileSize(t *testing.T) {
	direct := NewDirect(fs.New(64), kernel.NewCostModel(arch.R3000))
	fd, err := direct.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Write(fd, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := direct.FS.Seek(fd, 0); err != nil {
		t.Fatal(err)
	}
	data, err := direct.Read(fd, 1<<20)
	if err != nil || string(data) != "0123456789" {
		t.Fatalf("Read(fd, 1<<20) = %q, %v", data, err)
	}
	if cap(data) > 10 {
		t.Errorf("Read(fd, 1<<20) of a 10-byte file allocated cap %d, want ≤ 10", cap(data))
	}
}

func TestScriptSurvivesWireFaults(t *testing.T) {
	// Corrupt and drop frames mid-script: the transport's checksums and
	// retransmission make the file service come out identical anyway.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(ipc.NetworkConfig{Name: "flaky", BandwidthMbps: 1e6, PerPacketLatencyMicros: 0})
	faults := &faultplane.Script{}
	for _, n := range []int{5, 50, 500, 1500} {
		faults.Corrupt(n)
	}
	for _, n := range []int{20, 200, 2000} {
		faults.Drop(n)
	}
	link.SetFaultPlane(faults)
	fsys := fs.New(256)
	remote := NewRemoteOnLink(fsys, cm, link)
	if _, err := DefaultAndrewMini().Run(remote); err != nil {
		t.Fatalf("script failed over a flaky link: %v", err)
	}
	if remote.server.Wire.Stats().BadFrames == 0 {
		t.Error("no frames were rejected — fault injection did not engage")
	}
	// Final state matches a clean run.
	clean := fs.New(256)
	if _, err := DefaultAndrewMini().Run(NewDirect(clean, cm)); err != nil {
		t.Fatal(err)
	}
	a, _ := fsys.ReadFile("/src/d05/f07.c")
	b, _ := clean.ReadFile("/src/d05/f07.c")
	if !bytes.Equal(a, b) {
		t.Error("flaky-link run diverged from the clean run")
	}
}
