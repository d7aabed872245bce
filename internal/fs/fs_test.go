package fs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestMkdirCreateWalk(t *testing.T) {
	f := New(64)
	if err := f.Mkdir("/usr"); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir("/usr/dict"); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/usr/dict/words", []byte("architecture\noperating\nsystem\n")); err != nil {
		t.Fatal(err)
	}
	data, err := f.ReadFile("/usr/dict/words")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("operating")) {
		t.Errorf("read back %q", data)
	}
	st, err := f.Stat("/usr/dict/words")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindFile || st.Size != len(data) || st.Blocks != 1 {
		t.Errorf("stat = %+v", st)
	}
}

func TestPathErrors(t *testing.T) {
	f := New(64)
	if _, err := f.Open("/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("open missing: %v", err)
	}
	if err := f.Mkdir("relative/path"); !errors.Is(err, ErrNotExist) {
		t.Errorf("relative path: %v", err)
	}
	if err := f.Mkdir("/usr"); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir("/usr"); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate mkdir: %v", err)
	}
	f.WriteFile("/file", []byte("x"))
	if err := f.Mkdir("/file/sub"); !errors.Is(err, ErrNotDir) {
		t.Errorf("mkdir under file: %v", err)
	}
	if _, err := f.Open("/usr"); !errors.Is(err, ErrIsDir) {
		t.Errorf("open dir: %v", err)
	}
	long := "/" + string(make([]byte, 300))
	if err := f.Mkdir(long); !errors.Is(err, ErrNameTooBig) {
		t.Errorf("long name: %v", err)
	}
}

func TestReadWriteSeek(t *testing.T) {
	f := New(64)
	fd, err := f.Create("/data")
	if err != nil {
		t.Fatal(err)
	}
	if f.OpenFDs() != 1 {
		t.Errorf("open fds after Create = %d, want 1", f.OpenFDs())
	}
	if n, err := f.Write(fd, []byte("hello world")); err != nil || n != 11 {
		t.Fatalf("write: %d %v", n, err)
	}
	if err := f.Seek(fd, 6); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if n, err := f.Read(fd, buf); err != nil || string(buf[:n]) != "world" {
		t.Fatalf("read after seek: %q %v", buf[:n], err)
	}
	// Read at EOF returns 0.
	if n, err := f.Read(fd, buf); err != nil || n != 0 {
		t.Fatalf("EOF read: %d %v", n, err)
	}
	// Overwrite in the middle.
	f.Seek(fd, 0)
	f.Write(fd, []byte("HELLO"))
	data, _ := f.ReadFile("/data")
	if string(data) != "HELLO world" {
		t.Errorf("after overwrite: %q", data)
	}
	// Sparse extension via seek beyond EOF.
	f.Seek(fd, 20)
	f.Write(fd, []byte("!"))
	st, _ := f.Stat("/data")
	if st.Size != 21 {
		t.Errorf("size after sparse write = %d, want 21", st.Size)
	}
	if err := f.Seek(fd, -1); err == nil {
		t.Error("negative seek accepted")
	}
	if err := f.Close(fd); err != nil {
		t.Fatal(err)
	}
	if f.OpenFDs() != 0 {
		t.Errorf("open fds after Close = %d, want 0", f.OpenFDs())
	}
	if _, err := f.Read(fd, buf); !errors.Is(err, ErrBadFD) {
		t.Errorf("read after close: %v", err)
	}
	if err := f.Close(fd); !errors.Is(err, ErrBadFD) {
		t.Errorf("double close: %v", err)
	}
}

func TestDescriptorOffsetsAdvanceAndSurviveRestore(t *testing.T) {
	// Descriptor records are held by value, so every op that moves an
	// offset must store it back: consecutive writes append, consecutive
	// reads continue where the last one stopped, a seek lands, and a
	// snapshot carries each descriptor's offset into the restored file
	// system.
	f := New(64)
	wr, err := f.Create("/log")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"ab", "cd", "ef"} {
		if _, err := f.Write(wr, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := f.Open("/log")
	if err != nil {
		t.Fatal(err)
	}
	next := func(fsys *FS, fdno, n int) string {
		t.Helper()
		b, err := fsys.ReadN(fdno, n)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got := next(f, rd, 2) + next(f, rd, 2); got != "abcd" {
		t.Errorf("two reads of 2 = %q, want \"abcd\"", got)
	}
	if err := f.Seek(wr, 1); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"X", "Y"} {
		if _, err := f.Write(wr, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}

	w := NewWAL(64)
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	g, _, _, err := Recover(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, fsys := range []*FS{f, g} {
		name := [...]string{"live", "restored"}[i]
		if _, err := fsys.Write(wr, []byte("Z")); err != nil {
			t.Fatal(err)
		}
		if got := next(fsys, rd, 8); got != "ef" {
			t.Errorf("%s: read from offset 4 = %q, want \"ef\"", name, got)
		}
		if data, err := fsys.ReadFile("/log"); err != nil || string(data) != "aXYZef" {
			t.Errorf("%s: file = %q, %v, want \"aXYZef\"", name, data, err)
		}
	}
}

func TestCreateTruncates(t *testing.T) {
	f := New(64)
	f.WriteFile("/f", []byte("long original content"))
	f.WriteFile("/f", []byte("new"))
	data, _ := f.ReadFile("/f")
	if string(data) != "new" {
		t.Errorf("after truncate: %q", data)
	}
}

func TestUnlinkAndRmdirSemantics(t *testing.T) {
	f := New(64)
	f.Mkdir("/d")
	f.WriteFile("/d/f", []byte("x"))
	if err := f.Unlink("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("unlink non-empty dir: %v", err)
	}
	if err := f.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/d/f"); !errors.Is(err, ErrNotExist) {
		t.Errorf("stat after unlink: %v", err)
	}
	if err := f.Unlink("/d"); err != nil {
		t.Fatalf("unlink empty dir: %v", err)
	}
	if err := f.Unlink("/d"); !errors.Is(err, ErrNotExist) {
		t.Errorf("double unlink: %v", err)
	}
}

func TestReadDirSorted(t *testing.T) {
	f := New(64)
	f.Mkdir("/d")
	for _, name := range []string{"/d/c", "/d/a", "/d/b"} {
		f.WriteFile(name, nil)
	}
	names, err := f.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Errorf("readdir = %v", names)
	}
	// The caller gets a copy: writing over it leaves the directory's
	// own listing alone.
	names[0] = "z"
	if again, _ := f.AppendDir(nil, []byte("/d")); !reflect.DeepEqual(again, []string{"a", "b", "c"}) {
		t.Errorf("readdir after the caller wrote over its result = %v", again)
	}
	if _, err := f.ReadDir("/d/a"); !errors.Is(err, ErrNotDir) {
		t.Errorf("readdir on file: %v", err)
	}
}

func TestListingRefillAllocatesOnlyToGrow(t *testing.T) {
	// A directory that has outgrown its listing's array gets a new one
	// in one allocation however many names it holds, and a listing
	// refilled after a change reuses its array.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	fresh := make([]*inode, 101) // AllocsPerRun(100) runs f 101 times
	for i := range fresh {
		n := &inode{kind: KindDir, children: map[string]*inode{}}
		for j := 0; j < 16; j++ {
			n.children[fmt.Sprintf("f%02d", j)] = &inode{kind: KindFile}
		}
		fresh[i] = n
	}
	if got := testing.AllocsPerRun(100, func() {
		n := fresh[0]
		fresh = fresh[1:]
		if ents := n.entries(); len(ents) != 16 || ents[15].name != "f15" {
			t.Fatalf("entries = %v", ents)
		}
	}); got != 1 {
		t.Errorf("the first listing of a 16-entry directory allocates %.1f times, want 1", got)
	}
	f := New(64)
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 16; j++ {
		if err := f.WriteFile(fmt.Sprintf("/d/f%02d", j), nil); err != nil {
			t.Fatal(err)
		}
	}
	d, err := walk(f, "/d")
	if err != nil {
		t.Fatal(err)
	}
	d.entries()
	if got := testing.AllocsPerRun(100, func() {
		d.dirty()
		if len(d.listing) != 0 {
			t.Fatal("a stale listing kept its entries")
		}
		d.entries()
	}); got != 0 {
		t.Errorf("refilling a listing in its own array allocates %.1f times, want 0", got)
	}
}

func TestDotAndDotDotResolution(t *testing.T) {
	f := New(64)
	f.Mkdir("/a")
	f.Mkdir("/a/b")
	f.WriteFile("/a/b/f", []byte("x"))
	for _, p := range []string{"/a/./b/f", "/a/b/../b/f", "/../a/b/f", "//a//b//f"} {
		if _, err := f.Stat(p); err != nil {
			t.Errorf("stat(%q): %v", p, err)
		}
	}
}

func TestBlockCacheBehaviour(t *testing.T) {
	f := New(4)
	big := make([]byte, 3*BlockBytes)
	f.WriteFile("/big", big)
	h0, _ := f.CacheStats()
	// Re-reading the same blocks should mostly hit.
	f.ReadFile("/big")
	h1, m1 := f.CacheStats()
	if h1-h0 < 2 {
		t.Errorf("re-read hit only %d blocks", h1-h0)
	}
	// A scan over many files blows the 4-block cache: misses grow.
	for i := 0; i < 8; i++ {
		f.WriteFile("/f"+string(rune('a'+i)), make([]byte, BlockBytes))
	}
	for i := 0; i < 8; i++ {
		f.ReadFile("/f" + string(rune('a'+i)))
	}
	_, m2 := f.CacheStats()
	if m2 <= m1 {
		t.Error("working set beyond the cache produced no new misses")
	}
	// Uncached configuration: everything misses.
	u := New(0)
	u.WriteFile("/x", []byte("y"))
	u.ReadFile("/x")
	if h, _ := u.CacheStats(); h != 0 {
		t.Errorf("uncached fs recorded %d hits", h)
	}
}

func TestReadNRefusesNegativeCountAndCapsBuffer(t *testing.T) {
	f := New(16)
	if err := f.WriteFile("/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	fd, err := f.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := f.ReadN(fd, -1); !errors.Is(err, ErrBadCount) || data != nil {
		t.Errorf("ReadN(fd, -1) = %q, %v; want nil, ErrBadCount", data, err)
	}
	// A logged read replays through Apply and must fail the same way.
	if _, err := f.Apply(Record{Op: OpRead, FD: fd, N: -3}); !errors.Is(err, ErrBadCount) {
		t.Errorf("Apply(read of -3 bytes) = %v, want ErrBadCount", err)
	}
	// The refused reads left the offset alone; a count far past the
	// file allocates only what the read returns.
	data, err := f.ReadN(fd, 1<<30)
	if err != nil || string(data) != "0123456789" || cap(data) != 10 {
		t.Errorf("ReadN(fd, 1<<30) = %q (cap %d), %v; want the 10-byte file, cap 10", data, cap(data), err)
	}
	if data, err := f.ReadN(fd, 5); err != nil || len(data) != 0 {
		t.Errorf("ReadN at EOF = %q, %v", data, err)
	}
	if _, err := f.ReadN(99, 5); !errors.Is(err, ErrBadFD) {
		t.Errorf("ReadN(99, 5) = %v, want ErrBadFD", err)
	}
}

// TestFSMatchesMapModel replays random whole-file writes/reads/unlinks,
// listings of the root and snapshot round trips against a map
// reference. A listing that a Create or an Unlink leaves stale, or that
// a restore fills wrongly, differs from the reference's sorted names.
func TestFSMatchesMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		fsys := New(32)
		ref := map[string][]byte{}
		names := []string{"/a", "/b", "/c", "/d"}
		for _, op := range ops {
			name := names[int(op)%len(names)]
			switch (op >> 8) % 5 {
			case 0: // write
				data := []byte{byte(op), byte(op >> 4)}
				if err := fsys.WriteFile(name, data); err != nil {
					return false
				}
				ref[name] = data
			case 1: // read
				data, err := fsys.ReadFile(name)
				want, ok := ref[name]
				if ok != (err == nil) {
					return false
				}
				if ok && !bytes.Equal(data, want) {
					return false
				}
			case 2: // unlink
				err := fsys.Unlink(name)
				_, ok := ref[name]
				if ok != (err == nil) {
					return false
				}
				delete(ref, name)
			case 3: // list the root
				got, err := fsys.ReadDir("/")
				want := make([]string, 0, len(ref))
				for path := range ref {
					want = append(want, path[1:])
				}
				slices.Sort(want)
				if err != nil || !slices.Equal(got, want) {
					return false
				}
			case 4: // swap in the file system its snapshot image restores
				g, _, err := restore(encodeImage(nil, fsys.CacheBlocks(), fsys, nil))
				if err != nil || g.Fingerprint() != fsys.Fingerprint() {
					return false
				}
				fsys = g
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFingerprintTracksLogicalState(t *testing.T) {
	build := func(extra []byte) *FS {
		f := New(64)
		if err := f.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteFile("/d/f", append([]byte("content"), extra...)); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := build(nil), build(nil)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical trees produced different fingerprints")
	}
	// A double-applied write (the at-most-once failure mode) must change
	// the fingerprint.
	if a.Fingerprint() == build([]byte("content")).Fingerprint() {
		t.Error("doubled content not reflected in fingerprint")
	}
	// Fingerprinting must not disturb the block cache's counters.
	hitsBefore, missesBefore := a.CacheStats()
	a.Fingerprint()
	hitsAfter, missesAfter := a.CacheStats()
	if hitsBefore != hitsAfter || missesBefore != missesAfter {
		t.Error("Fingerprint perturbed the cache counters")
	}
}

func TestRangeFingerprintsLocaliseDivergence(t *testing.T) {
	// The anti-entropy probe: equal trees produce equal range words; a
	// single divergent file perturbs at least one range and never all of
	// a wide table — the scrubber localises disagreement without
	// exchanging the tree.
	build := func() *FS {
		f := New(64)
		if err := f.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			fd, err := f.Create(fmt.Sprintf("/d/f%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(fd, []byte(fmt.Sprintf("payload %d", i))); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	a, b := build(), build()
	const n = 16
	fa, fb := a.RangeFingerprints(n), b.RangeFingerprints(n)
	if len(fa) != n || !reflect.DeepEqual(fa, fb) {
		t.Fatalf("equal trees produced unequal range fingerprints:\n%v\n%v", fa, fb)
	}
	// Divergence: one file's content rots on b.
	fd, err := b.Open("/d/f3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(fd, []byte("rot")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(fd); err != nil {
		t.Fatal(err)
	}
	fb = b.RangeFingerprints(n)
	diff := 0
	for i := range fa {
		if fa[i] != fb[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("a divergent file left every range fingerprint unchanged")
	}
	if diff == n {
		t.Error("a single divergent file perturbed every range")
	}
	// Range assignment is by path alone, so the untouched files' ranges
	// hold steady: repairing /d/f3 alone restores agreement.
	fd, err = b.Open("/d/f3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(fd, []byte("payload 3")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(fd); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fa, b.RangeFingerprints(n)) {
		t.Error("repairing the divergent file did not restore range agreement")
	}
	// Degenerate resolution: n=1 is the monolithic comparison.
	if a.RangeFingerprints(1)[0] != b.RangeFingerprints(1)[0] {
		t.Error("single-range fingerprints disagree on equal trees")
	}
}

// fingerprintRef and rangeFingerprintsRef digest the tree as the
// fingerprints were first written: a path string and an fmt line per
// entry, and a fresh hasher per entry for the ranges. The digests are
// compared across nodes and pinned by goldens, so the walk with reused
// buffers must reproduce them byte for byte.
func fingerprintRef(f *FS) string {
	h := sha256.New()
	var walk func(prefix string, n *inode)
	walk = func(prefix string, n *inode) {
		for _, e := range n.entries() {
			path := prefix + "/" + e.name
			fmt.Fprintf(h, "%s|%v|%d\n", path, e.n.kind, len(e.n.data))
			if e.n.kind == KindDir {
				walk(path, e.n)
			} else {
				h.Write(e.n.data)
			}
		}
	}
	walk("", f.root)
	return hex.EncodeToString(h.Sum(nil))
}

func rangeFingerprintsRef(f *FS, n int) []uint64 {
	if n <= 0 {
		n = 1
	}
	out := make([]uint64, n)
	var walk func(prefix string, node *inode)
	walk = func(prefix string, node *inode) {
		for _, e := range node.entries() {
			path := prefix + "/" + e.name
			ri := int(crc32.ChecksumIEEE([]byte(path))) % n
			if ri < 0 {
				ri += n
			}
			h := sha256.New()
			fmt.Fprintf(h, "%s|%v|%d\n", path, e.n.kind, len(e.n.data))
			if e.n.kind == KindDir {
				walk(path, e.n)
			} else {
				h.Write(e.n.data)
			}
			out[ri] ^= binary.BigEndian.Uint64(h.Sum(nil))
		}
	}
	walk("", f.root)
	return out
}

func TestFingerprintsMatchFormattedReference(t *testing.T) {
	nested := New(64)
	deep := ""
	for i := 0; i < 2*pathDepth; i++ {
		deep += fmt.Sprintf("/level%d", i)
		if err := nested.Mkdir(deep); err != nil {
			t.Fatal(err)
		}
		if err := nested.WriteFile(fmt.Sprintf("%s/f%d", deep, i), bytes.Repeat([]byte{byte(i)}, 300*i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"/" + strings.Repeat("n", maxName), "/empty", "/ünïcode name"} {
		if err := nested.WriteFile(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nested.Unlink("/empty"); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*FS{"empty": New(64), "benchTree": benchTree(t), "nested": nested} {
		if got, want := f.Fingerprint(), fingerprintRef(f); got != want {
			t.Errorf("%s: Fingerprint = %s, reference %s", name, got, want)
		}
		for _, n := range []int{-1, 0, 1, 7, 16} {
			if got, want := f.RangeFingerprints(n), rangeFingerprintsRef(f, n); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: RangeFingerprints(%d) = %x, reference %x", name, n, got, want)
			}
		}
	}
}

func TestFingerprintAllocationsDoNotGrowWithTree(t *testing.T) {
	// Both digests reuse one path buffer, one line buffer and one
	// hasher for the whole walk, so what they allocate is per call, the
	// same for one entry as for the benchmark tree's 272. Formatting
	// each line with fmt cost 804 allocations on the benchmark tree, and
	// the ranges 1,617.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	small := New(64)
	if err := small.Mkdir("/d00"); err != nil {
		t.Fatal(err)
	}
	if err := small.WriteFile("/d00/f00", bytes.Repeat([]byte("0123456789abcdef"), 128)); err != nil {
		t.Fatal(err)
	}
	count := func(f *FS) (whole, ranges float64) {
		whole = testing.AllocsPerRun(20, func() { f.Fingerprint() })
		ranges = testing.AllocsPerRun(20, func() { f.RangeFingerprints(16) })
		return whole, ranges
	}
	smallWhole, smallRanges := count(small)
	bigWhole, bigRanges := count(benchTree(t))
	t.Logf("Fingerprint: %.0f allocations on 2 entries, %.0f on 272; RangeFingerprints(16): %.0f and %.0f",
		smallWhole, bigWhole, smallRanges, bigRanges)
	if bigWhole > smallWhole {
		t.Errorf("Fingerprint allocates %.0f times on the benchmark tree, %.0f on a 2-entry tree", bigWhole, smallWhole)
	}
	if bigRanges > smallRanges {
		t.Errorf("RangeFingerprints allocates %.0f times on the benchmark tree, %.0f on a 2-entry tree", bigRanges, smallRanges)
	}
}
