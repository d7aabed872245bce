package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
)

// workoutImage is the snapshot image of a workout: nested directories,
// files with data, an unlinked file, an open descriptor with an offset,
// and one client's session.
func workoutImage(t testing.TB) []byte {
	t.Helper()
	img, _ := workoutLog(t).SnapshotBytes()
	return img
}

// workoutLog is a log holding a workout, snapshotted.
func workoutLog(t testing.TB) *WAL {
	t.Helper()
	w := NewWAL(64)
	f := New(64)
	workout(t, w, f)
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	return w
}

// genesisImage is the snapshot image of an empty file system.
func genesisImage(t testing.TB) []byte {
	t.Helper()
	w := NewWAL(64)
	if err := w.Snapshot(New(64)); err != nil {
		t.Fatal(err)
	}
	img, _ := w.SnapshotBytes()
	return img
}

// seal appends the image checksum to body.
func seal(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func TestSnapshotImageRoundTrips(t *testing.T) {
	// A restored image re-encodes to the same bytes: the image is a pure
	// function of the logical state, and restore loses none of it.
	src := New(64)
	sw := NewWAL(64)
	workout(t, sw, src)
	if err := sw.Snapshot(src); err != nil {
		t.Fatal(err)
	}
	img, seq := sw.SnapshotBytes()
	dw := NewWAL(64)
	f, sessions, err := dw.InstallSnapshot(img, seq)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	again, _ := dw.SnapshotBytes()
	if !bytes.Equal(again, img) {
		t.Errorf("re-encoded image differs:\n got %x\nwant %x", again, img)
	}
	if s, ok := dw.Session(7); !ok || !reflect.DeepEqual([]SessionRecord{s}, sessions) {
		t.Errorf("sessions = %+v, want client 7's carried across", sessions)
	}
	if f.Fingerprint() != src.Fingerprint() || f.OpenFDs() != src.OpenFDs() {
		t.Error("restored state differs from the source")
	}
	want, _ := readRest(src)
	if got, _ := readRest(f); got != want {
		t.Errorf("restored descriptor reads %q, source reads %q", got, want)
	}
}

func TestRestoredDataDoesNotAliasTheImage(t *testing.T) {
	// FS.Write changes file data in place, and the image may be damaged
	// at rest or reused as a staging buffer after restore returns: the
	// two must share no bytes.
	img := workoutImage(t)
	kept := append([]byte(nil), img...)
	f, _, err := restore(img)
	if err != nil {
		t.Fatal(err)
	}
	fp := f.Fingerprint()
	fdno, err := f.Open("/a/b/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(fdno, []byte("HELLO")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, kept) {
		t.Fatal("writing a restored file changed the image")
	}
	g, _, err := restore(img)
	if err != nil {
		t.Fatal(err)
	}
	copy(img, bytes.Repeat([]byte{0xee}, len(img)))
	if g.Fingerprint() != fp {
		t.Fatal("restored file system changed when the image was overwritten")
	}
}

func TestSnapshotRefusesEveryBitFlip(t *testing.T) {
	// The disk plane's at-rest rot flips bit 0x40 of one snapshot byte.
	// gob decoded most such flips without complaint, into a different
	// tree or one whose next walk dereferenced nil. Every flip must now
	// be refused, both by state transfer (leaving the target log as it
	// was) and by local recovery (so the node quarantines to genesis).
	w := workoutLog(t)
	img, _ := w.SnapshotBytes()
	dst := workoutLog(t)
	beforeImg, beforeSeq := dst.SnapshotBytes()
	beforeStats := dst.Stats()
	for off := range img {
		flipped := append([]byte(nil), img...)
		flipped[off] ^= 0x40
		if _, _, err := dst.InstallSnapshot(flipped, 99); err == nil {
			t.Errorf("offset %d: flipped image installed", off)
		}
		if !w.CorruptSnapshotByte(off) {
			t.Fatal("no snapshot to damage")
		}
		if _, _, _, err := Recover(w); err == nil {
			t.Errorf("offset %d: recovery restored a flipped image", off)
		}
		w.CorruptSnapshotByte(off) // flip it back
	}
	afterImg, afterSeq := dst.SnapshotBytes()
	if !bytes.Equal(afterImg, beforeImg) || afterSeq != beforeSeq || dst.LastSeq() != beforeSeq ||
		dst.Stats() != beforeStats {
		t.Error("a refused install changed the target log")
	}
	if _, _, _, err := Recover(w); err != nil {
		t.Fatalf("undamaged image no longer restores: %v", err)
	}
}

// imageSpec describes a snapshot image field by field, so a test can
// build images that encodeImage never writes.
type imageSpec struct {
	format          byte
	nextIno, nextFD uint64
	inodes          []specInode
	fds             []specFD
	clients         []uint32
}

type specInode struct {
	ino   uint64
	kind  byte
	nlink uint64
	data  string      // a file's body
	ents  []specEntry // a directory's body
}

type specEntry struct {
	name string
	ino  uint64
}

type specFD struct{ no, ino, off uint64 }

// body encodes the spec in the snapshot image layout, without the
// checksum.
func (s imageSpec) body() []byte {
	b := []byte{s.format}
	b = binary.AppendVarint(b, 64)
	b = binary.AppendUvarint(b, s.nextIno)
	b = binary.AppendUvarint(b, s.nextFD)
	b = binary.AppendUvarint(b, uint64(len(s.inodes)))
	for _, n := range s.inodes {
		b = binary.AppendUvarint(b, n.ino)
		b = append(b, n.kind)
		b = binary.AppendUvarint(b, n.nlink)
		if FileKind(n.kind) != KindDir {
			b = binary.AppendUvarint(b, uint64(len(n.data)))
			b = append(b, n.data...)
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(n.ents)))
		for _, e := range n.ents {
			b = binary.AppendUvarint(b, uint64(len(e.name)))
			b = append(b, e.name...)
			b = binary.AppendUvarint(b, e.ino)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.fds)))
	for _, d := range s.fds {
		b = binary.AppendUvarint(b, d.no)
		b = binary.AppendUvarint(b, d.ino)
		b = binary.AppendUvarint(b, d.off)
	}
	b = binary.AppendUvarint(b, uint64(len(s.clients)))
	for _, c := range s.clients {
		b = binary.BigEndian.AppendUint32(b, c)
		b = binary.BigEndian.AppendUint32(b, 1)
		b = append(b, 2*byte(OpMkdir), 0, 0, 0, 0) // op, result fd and n, no data, no error
	}
	return b
}

// specFS is the live file system validSpec describes, with client 7's
// last call a Mkdir.
func specFS(t *testing.T) (*FS, map[uint32]SessionRecord) {
	t.Helper()
	f := New(64)
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	fd1, err := f.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(fd1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	fd2, err := f.Create("/d/g")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(fd2); err != nil {
		t.Fatal(err)
	}
	return f, map[uint32]SessionRecord{7: {Client: 7, Call: 1, Op: OpMkdir}}
}

func validSpec() imageSpec {
	return imageSpec{
		format: snapFormat, nextIno: 4, nextFD: 2,
		inodes: []specInode{
			{ino: 1, kind: byte(KindDir), nlink: 3, ents: []specEntry{{"d", 2}, {"f", 3}}},
			{ino: 2, kind: byte(KindDir), nlink: 2, ents: []specEntry{{"g", 4}}},
			{ino: 3, kind: byte(KindFile), nlink: 1, data: "hello"},
			{ino: 4, kind: byte(KindFile), nlink: 1},
		},
		fds:     []specFD{{no: 1, ino: 3, off: 5}},
		clients: []uint32{7},
	}
}

func TestImageSpecMatchesEncoder(t *testing.T) {
	// imageSpec.body writes the layout encodeImage writes, so the
	// refusals below are of images one field away from a real one.
	f, sessions := specFS(t)
	got := encodeImage(nil, 64, f, sessions)
	if want := seal(validSpec().body()); !bytes.Equal(got, want) {
		t.Fatalf("encodeImage = %x\nspec builds  %x", got, want)
	}
	g, restored, err := restore(got)
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != f.Fingerprint() || !reflect.DeepEqual(restored, []SessionRecord{sessions[7]}) {
		t.Error("the spec's image does not restore to the live file system")
	}
}

func TestRestoreRefusesImpossibleImages(t *testing.T) {
	valid := seal(validSpec().body())
	spec := func(mut func(s *imageSpec)) []byte {
		s := validSpec()
		s.inodes = append([]specInode(nil), s.inodes...)
		for i := range s.inodes {
			s.inodes[i].ents = append([]specEntry(nil), s.inodes[i].ents...)
		}
		mut(&s)
		return seal(s.body())
	}
	resealed := func(mut func(b []byte) []byte) []byte {
		return seal(mut(append([]byte(nil), valid[:len(valid)-4]...)))
	}
	for _, c := range []struct {
		name string
		img  []byte
	}{
		{"empty input", nil},
		{"wrong format byte", spec(func(s *imageSpec) { s.format++ })},
		{"checksum mismatch", append(append([]byte(nil), valid[:len(valid)-1]...), valid[len(valid)-1]^1)},
		// format, cache blocks 64, next inode and descriptor, then an
		// inode count of 65535 with nothing after it.
		{"count the bytes cannot hold", seal([]byte{snapFormat, 0x80, 0x01, 4, 2, 0xff, 0xff, 0x03})},
		{"length past the end", resealed(func(b []byte) []byte { return b[:bytes.Index(b, []byte("hello"))+2] })},
		{"truncated field", resealed(func(b []byte) []byte { return b[:len(b)-1] })},
		{"trailing bytes", resealed(func(b []byte) []byte { return append(b, 0) })},
		{"inode numbers descend", spec(func(s *imageSpec) { s.inodes[2], s.inodes[3] = s.inodes[3], s.inodes[2] })},
		{"inode number repeated", spec(func(s *imageSpec) { s.inodes[3].ino = 3 })},
		{"unknown kind", spec(func(s *imageSpec) { s.inodes[3].kind = 2 })},
		{"file read as a directory", spec(func(s *imageSpec) { s.inodes[2].kind = byte(KindDir) })},
		{"directory read as a file", spec(func(s *imageSpec) { s.inodes[1].kind = byte(KindFile) })},
		{"missing root", spec(func(s *imageSpec) { s.inodes[0].ino = 0 })},
		{"no inodes", spec(func(s *imageSpec) { s.inodes, s.fds = nil, nil })},
		{"root is a file", spec(func(s *imageSpec) { s.inodes[0] = specInode{ino: 1, kind: byte(KindFile), nlink: 1} })},
		{"entry names a missing inode", spec(func(s *imageSpec) { s.inodes[0].ents[1].ino = 9 })},
		{"entry names the root", spec(func(s *imageSpec) { s.inodes[1].ents[0].ino = 1 })},
		{"inode named twice", spec(func(s *imageSpec) { s.inodes[1].ents[0].ino = 3 })},
		{"inode unreachable", spec(func(s *imageSpec) { s.inodes[1].ents = nil })},
		{"directory cycle off the root", spec(func(s *imageSpec) {
			s.inodes[0].ents = s.inodes[0].ents[1:]
			s.inodes[0].nlink = 2
			s.inodes[1].ents = []specEntry{{"g", 4}, {"loop", 5}}
			s.inodes[1].nlink = 3
			s.inodes = append(s.inodes, specInode{ino: 5, kind: byte(KindDir), nlink: 3, ents: []specEntry{{"up", 2}}})
			s.nextIno = 5
		})},
		{"file link count", spec(func(s *imageSpec) { s.inodes[2].nlink = 2 })},
		{"directory link count", spec(func(s *imageSpec) { s.inodes[0].nlink = 2 })},
		{"entry names out of order", spec(func(s *imageSpec) { e := s.inodes[0].ents; e[0], e[1] = e[1], e[0] })},
		{"dot-dot entry", spec(func(s *imageSpec) { s.inodes[1].ents[0].name = ".." })},
		{"entry with a slash", spec(func(s *imageSpec) { s.inodes[1].ents[0].name = "g/h" })},
		{"empty entry name", spec(func(s *imageSpec) { s.inodes[1].ents[0].name = "" })},
		{"next inode below one in use", spec(func(s *imageSpec) { s.nextIno = 3 })},
		{"descriptor names a missing inode", spec(func(s *imageSpec) { s.fds[0].ino = 9 })},
		{"descriptor names a directory", spec(func(s *imageSpec) { s.fds[0].ino = 2 })},
		{"descriptor zero", spec(func(s *imageSpec) { s.fds[0].no = 0 })},
		{"descriptor above the next", spec(func(s *imageSpec) { s.fds[0].no = 3 })},
		{"descriptors out of order", spec(func(s *imageSpec) { s.fds = []specFD{{2, 3, 0}, {1, 3, 0}} })},
		{"offset overflowing an int", spec(func(s *imageSpec) { s.fds[0].off = 1 << 63 })},
		{"sessions out of order", spec(func(s *imageSpec) { s.clients = []uint32{7, 7} })},
	} {
		if f, _, err := restore(c.img); err == nil {
			t.Errorf("%s: restored a file system with fingerprint %s", c.name, f.Fingerprint())
		}
	}
}

func TestUnlinkClosesOpenDescriptors(t *testing.T) {
	// A descriptor must not outlive its inode: its next Read or Write
	// would dereference nil, and restore refuses an image holding one.
	// Unlinking an open file closes its descriptors, so the calls fail
	// cleanly and a snapshot taken afterwards restores.
	f := New(64)
	w := NewWAL(64)
	fdno := logged(t, w, f, Record{Op: OpCreate, Path: "/x", Client: 1, Call: 1}).FD
	logged(t, w, f, Record{Op: OpWrite, FD: fdno, Data: []byte("data"), Client: 1, Call: 2})
	other := logged(t, w, f, Record{Op: OpCreate, Path: "/y", Client: 1, Call: 3}).FD
	logged(t, w, f, Record{Op: OpUnlink, Path: "/x", Client: 1, Call: 4})
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	g, _, _, err := Recover(w)
	if err != nil {
		t.Fatalf("snapshot after unlinking an open file does not restore: %v", err)
	}
	for _, fsys := range []*FS{f, g} {
		if _, err := fsys.ReadN(fdno, 4); !errors.Is(err, ErrBadFD) {
			t.Errorf("read on the unlinked file's descriptor: %v, want ErrBadFD", err)
		}
		if _, err := fsys.Write(fdno, []byte("z")); !errors.Is(err, ErrBadFD) {
			t.Errorf("write on the unlinked file's descriptor: %v, want ErrBadFD", err)
		}
		if _, err := fsys.Write(other, []byte("z")); err != nil || fsys.OpenFDs() != 1 {
			t.Errorf("another file's descriptor: %v with %d open, want it kept", err, fsys.OpenFDs())
		}
	}
}

// checkRestore is FuzzRestore's oracle for one image: restore must not
// panic, and an image it accepts must give a file system every query
// can walk, whose own image restores to the same state.
func checkRestore(t *testing.T, img []byte) {
	f, sessions, err := restore(img)
	if err != nil {
		return
	}
	fp := f.Fingerprint()
	if got := len(f.RangeFingerprints(16)); got != 16 {
		t.Fatalf("RangeFingerprints(16) gave %d words", got)
	}
	var readAll func(dir string)
	readAll = func(dir string) {
		names, err := f.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir(%q) of an accepted image: %v", dir, err)
		}
		for _, name := range names {
			path := dir + "/" + name
			if dir == "/" {
				path = "/" + name
			}
			st, err := f.Stat(path)
			if err != nil {
				t.Fatalf("Stat(%q) of an accepted image: %v", path, err)
			}
			if st.Kind == KindDir {
				readAll(path)
			}
		}
	}
	readAll("/")
	bySession := make(map[uint32]SessionRecord, len(sessions))
	for _, s := range sessions {
		bySession[s.Client] = s
	}
	g, again, err := restore(encodeImage(nil, f.CacheBlocks(), f, bySession))
	if err != nil {
		t.Fatalf("the image of an accepted image's file system is refused: %v", err)
	}
	if g.Fingerprint() != fp || !reflect.DeepEqual(again, sessions) {
		t.Fatal("re-snapshotting an accepted image changed its state")
	}
}

func FuzzRestore(f *testing.F) {
	img := workoutImage(f)
	mangled := append([]byte(nil), img...)
	for i := 0; i < 8; i++ {
		mangled[i] ^= 0x40
	}
	f.Add(img)
	f.Add(genesisImage(f))
	f.Add(mangled)
	f.Fuzz(func(t *testing.T, img []byte) {
		checkRestore(t, img)
		// The checksum refuses nearly every mutation; sealing the bytes
		// afresh lets the structural checks behind it be fuzzed too.
		if len(img) >= 4 {
			checkRestore(t, seal(append([]byte(nil), img[:len(img)-4]...)))
		}
	})
}

// benchTree builds the resident tree of the host-time benchmark: 16
// directories of 16 files of 2 KiB.
func benchTree(b testing.TB) *FS {
	f := New(256)
	data := bytes.Repeat([]byte("0123456789abcdef"), 128)
	for d := 0; d < 16; d++ {
		dir := fmt.Sprintf("/d%02d", d)
		if err := f.Mkdir(dir); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if err := f.WriteFile(fmt.Sprintf("%s/f%02d", dir, i), data); err != nil {
				b.Fatal(err)
			}
		}
	}
	return f
}

// BenchmarkSnapshot measures one snapshot image of the benchmark tree.
func BenchmarkSnapshot(b *testing.B) {
	f := benchTree(b)
	w := NewWAL(256)
	if err := w.Snapshot(f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.Stats().SnapshotBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Snapshot(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore measures rebuilding the benchmark tree from its
// snapshot image.
func BenchmarkRestore(b *testing.B) {
	w := NewWAL(256)
	if err := w.Snapshot(benchTree(b)); err != nil {
		b.Fatal(err)
	}
	img, _ := w.SnapshotBytes()
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := restore(img); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSnapshotAllocatesOneInodeTable(t *testing.T) {
	// Once the image buffer and the directories' listings are built, a
	// snapshot of the benchmark tree allocates one thing: the table its
	// inodes are gathered into, sized exactly. A gather that grows its
	// table by append allocates 8 times here.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	f := benchTree(t)
	w := NewWAL(256)
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if err := w.Snapshot(f); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("a snapshot of the benchmark tree allocates %.1f times, want 1", got)
	}
}

// BenchmarkLookup measures the two name-space queries on the benchmark
// tree: a Stat of a depth-3 path and a ReadDir of a 16-entry directory.
func BenchmarkLookup(b *testing.B) {
	f := benchTree(b)
	if err := f.Mkdir("/d07/sub"); err != nil {
		b.Fatal(err)
	}
	if err := f.WriteFile("/d07/sub/f", []byte("x")); err != nil {
		b.Fatal(err)
	}
	b.Run("Stat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.Stat("/d07/sub/f"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ReadDir", func(b *testing.B) {
		var names []string
		dir := []byte("/d03")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if names, err = f.AppendDir(names[:0], dir); err != nil || len(names) != 16 {
				b.Fatalf("AppendDir = %d names, %v", len(names), err)
			}
		}
	})
}

// grow logs n files of size bytes each under /g, created, written and
// closed by client c.
func grow(t *testing.T, w *WAL, f *FS, c uint32, n, size int) {
	t.Helper()
	call := uint32(0)
	do := func(r Record) ApplyResult {
		call++
		r.Client, r.Call = c, call
		return logged(t, w, f, r)
	}
	do(Record{Op: OpMkdir, Path: "/g"})
	for i := 0; i < n; i++ {
		fd := do(Record{Op: OpCreate, Path: fmt.Sprintf("/g/f%03d", i)}).FD
		do(Record{Op: OpWrite, FD: fd, Data: bytes.Repeat([]byte{byte(i)}, size)})
		do(Record{Op: OpClose, FD: fd})
	}
}

func TestSnapshotReusesImageBuffer(t *testing.T) {
	// A snapshot encodes into the previous image's array when it fits.
	// The image must stay byte-identical to a fresh encode, with no
	// stale bytes from the larger image it overwrote, and a grown image
	// that no longer fits gets a buffer of its own.
	w, f := NewWAL(64), New(64)
	fresh := func() []byte { return encodeImage(nil, w.cacheBlocks, f, w.sessions) }
	grow(t, w, f, 7, 32, 1024)
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.snapshot, fresh()) {
		t.Fatal("grown image differs from a fresh encode")
	}
	big := &w.snapshot[0]

	for i := 0; i < 30; i++ {
		logged(t, w, f, Record{Op: OpUnlink, Path: fmt.Sprintf("/g/f%03d", i), Client: 8, Call: uint32(i + 1)})
	}
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	if &w.snapshot[0] != big {
		t.Error("the shrunk image was not written over the grown one's buffer")
	}
	if !bytes.Equal(w.snapshot, fresh()) {
		t.Fatalf("shrunk image (%d bytes) differs from a fresh encode (%d bytes)", len(w.snapshot), len(fresh()))
	}
	g, _, _, err := Recover(w)
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != f.Fingerprint() {
		t.Error("recovery from the reused image lost state")
	}

	fd := logged(t, w, f, Record{Op: OpCreate, Path: "/huge", Client: 9, Call: 1}).FD
	logged(t, w, f, Record{Op: OpWrite, FD: fd, Data: bytes.Repeat([]byte{0xab}, 64<<10), Client: 9, Call: 2})
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.snapshot, fresh()) || cap(w.snapshot) != len(w.snapshot) {
		t.Errorf("an image outgrowing the buffer: %d bytes in a buffer of %d, want a fresh encode sized exactly",
			len(w.snapshot), cap(w.snapshot))
	}
}

func TestSnapshotBytesOutlivesTheNextSnapshot(t *testing.T) {
	// SnapshotBytes hands out a copy: the next snapshot, written over
	// the log's own buffer, must not reach it.
	w, f := NewWAL(64), New(64)
	grow(t, w, f, 7, 8, 512)
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	img, seq := w.SnapshotBytes()
	kept := bytes.Clone(img)
	for i := 0; i < 8; i++ {
		logged(t, w, f, Record{Op: OpUnlink, Path: fmt.Sprintf("/g/f%03d", i), Client: 8, Call: uint32(i + 1)})
	}
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, kept) {
		t.Fatal("the next snapshot changed a copy taken with SnapshotBytes")
	}
	restored, _, err := NewWAL(64).InstallSnapshot(img, seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Stat("/g/f000"); err != nil {
		t.Errorf("the copied image lost its files: %v", err)
	}
}

func TestSnapshotOverwritesARottedImage(t *testing.T) {
	// Bit rot in the stored image must not survive the next snapshot,
	// which rewrites every byte of the same buffer: recovery after it
	// restores the live state.
	w, f := NewWAL(64), New(64)
	workout(t, w, f)
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	if !w.CorruptSnapshotByte(17) {
		t.Fatal("no snapshot to damage")
	}
	if _, _, _, err := Recover(w); err == nil {
		t.Fatal("recovery accepted a rotted image")
	}
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	g, _, _, err := Recover(w)
	if err != nil {
		t.Fatalf("recovery after a fresh snapshot: %v", err)
	}
	if g.Fingerprint() != f.Fingerprint() {
		t.Error("recovered fingerprint differs from the live one")
	}
}
