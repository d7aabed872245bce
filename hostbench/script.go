package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"archos/internal/fs"
	"archos/internal/fsserver"
)

// opKind is one Service method.
type opKind uint8

const (
	opMkdir opKind = iota
	opCreate
	opOpen
	opClose
	opRead
	opWrite
	opStat
	opUnlink
	opReadDir
	numOpKinds
)

var opNames = [numOpKinds]string{"mkdir", "create", "open", "close", "read", "write", "stat", "unlink", "readdir"}

// logged reports whether the server appends the op to its WAL (and, in
// a cluster, ships it): every op but the two pure queries, because
// Open, Read and Close change descriptor state.
func (k opKind) logged() bool { return k != opStat && k != opReadDir }

// op is one pre-generated Service call with the result the monolithic
// reference returned for it. Descriptors are named by slot: the index
// of the Open or Create whose result is the descriptor.
type op struct {
	kind opKind
	path string
	slot int // Close, Read, Write: the op whose descriptor this uses
	n    int // Read: byte count
	data []byte

	fd        int // Open, Create: the descriptor the reference returned
	wantN     int // Write: bytes written
	wantData  []byte
	wantStat  fs.Stat
	wantNames []string
}

// script is a replayable op stream. All paths, payloads and expected
// results are built before timing starts, so the timed loop spends its
// host time in the service, not in fmt or math/rand.
type script struct {
	ops []op
	fds []int // live descriptor per slot during a replay

	// inoMoves is set for a stream that creates files: inode numbers
	// then advance with every replay, so Stat results are compared
	// without them.
	inoMoves bool
}

// scriptRecorder is a Service over the monolithic arrangement that
// records every call into a script.
type scriptRecorder struct {
	d     *fsserver.Direct
	s     *script
	slots map[int]int // live descriptor → slot of the op that opened it
}

func newScriptRecorder(d *fsserver.Direct) *scriptRecorder {
	return &scriptRecorder{d: d, s: &script{}, slots: map[int]int{}}
}

func (r *scriptRecorder) add(o op) { r.s.ops = append(r.s.ops, o) }

func (r *scriptRecorder) Open(path string) (int, error) {
	fd, err := r.d.Open(path)
	r.slots[fd] = len(r.s.ops)
	r.add(op{kind: opOpen, path: path, fd: fd})
	return fd, err
}

func (r *scriptRecorder) Create(path string) (int, error) {
	fd, err := r.d.Create(path)
	r.slots[fd] = len(r.s.ops)
	r.add(op{kind: opCreate, path: path, fd: fd})
	return fd, err
}

func (r *scriptRecorder) Close(fd int) error {
	r.add(op{kind: opClose, slot: r.slots[fd]})
	return r.d.Close(fd)
}

func (r *scriptRecorder) Read(fd, n int) ([]byte, error) {
	data, err := r.d.Read(fd, n)
	r.add(op{kind: opRead, slot: r.slots[fd], n: n, wantData: data})
	return data, err
}

func (r *scriptRecorder) Write(fd int, data []byte) (int, error) {
	n, err := r.d.Write(fd, data)
	r.add(op{kind: opWrite, slot: r.slots[fd], data: append([]byte(nil), data...), wantN: n})
	return n, err
}

func (r *scriptRecorder) Stat(path string) (fs.Stat, error) {
	st, err := r.d.Stat(path)
	r.add(op{kind: opStat, path: path, wantStat: st})
	return st, err
}

func (r *scriptRecorder) Mkdir(path string) error {
	r.add(op{kind: opMkdir, path: path})
	return r.d.Mkdir(path)
}

func (r *scriptRecorder) Unlink(path string) error {
	r.add(op{kind: opUnlink, path: path})
	return r.d.Unlink(path)
}

func (r *scriptRecorder) ReadDir(path string) ([]string, error) {
	names, err := r.d.ReadDir(path)
	r.add(op{kind: opReadDir, path: path, wantNames: names})
	return names, err
}

func (r *scriptRecorder) Stats() fsserver.Stats { return r.d.Stats() }

// finish returns the recorded script, sized for replay.
func (r *scriptRecorder) finish() *script {
	s := r.s
	s.fds = make([]int, len(s.ops))
	r.s = &script{}
	return s
}

// opTimer receives each replayed op's kind, start and host latency.
type opTimer func(k opKind, start time.Time, ns int64)

// replay issues every op of the script against svc, timing each
// Service call alone, and checks each result against the reference.
// It returns the number of ops that failed: an error, or a result that
// differs from what the monolithic arrangement returned.
func (s *script) replay(svc fsserver.Service, timer opTimer) (failed int64) {
	for i := range s.ops {
		o := &s.ops[i]
		var err error
		ok := true
		t0 := time.Now()
		switch o.kind {
		case opMkdir:
			err = svc.Mkdir(o.path)
		case opCreate:
			s.fds[i], err = svc.Create(o.path)
		case opOpen:
			s.fds[i], err = svc.Open(o.path)
		case opClose:
			err = svc.Close(s.fds[o.slot])
		case opRead:
			var data []byte
			data, err = svc.Read(s.fds[o.slot], o.n)
			ok = bytes.Equal(data, o.wantData)
		case opWrite:
			var n int
			n, err = svc.Write(s.fds[o.slot], o.data)
			ok = n == o.wantN
		case opStat:
			var st fs.Stat
			st, err = svc.Stat(o.path)
			if s.inoMoves {
				st.Ino = o.wantStat.Ino
			}
			ok = st == o.wantStat
		case opUnlink:
			err = svc.Unlink(o.path)
		case opReadDir:
			var names []string
			names, err = svc.ReadDir(o.path)
			ok = slices.Equal(names, o.wantNames)
		}
		timer(o.kind, t0, time.Since(t0).Nanoseconds())
		if err != nil || !ok {
			failed++
		}
	}
	return failed
}

// loggedOps counts the ops of the script the server logs.
func (s *script) loggedOps() int {
	n := 0
	for i := range s.ops {
		if s.ops[i].kind.logged() {
			n++
		}
	}
	return n
}

// Resident tree shape: 16 directories of 16 files of 2 KiB, the state
// every closed-loop workload runs against.
const (
	treeDirs  = 16
	treeFiles = 16
	treeBytes = 2048
)

func treeDir(d int) string     { return fmt.Sprintf("/tree/d%02d", d) }
func treeFile(d, f int) string { return fmt.Sprintf("/tree/d%02d/f%02d", d, f) }

// populate builds the resident tree through svc, with contents drawn
// from seed.
func populate(svc fsserver.Service, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, treeBytes)
	if err := svc.Mkdir("/tree"); err != nil {
		return err
	}
	for d := 0; d < treeDirs; d++ {
		if err := svc.Mkdir(treeDir(d)); err != nil {
			return err
		}
		for f := 0; f < treeFiles; f++ {
			rng.Read(buf)
			fd, err := svc.Create(treeFile(d, f))
			if err != nil {
				return err
			}
			if _, err := svc.Write(fd, buf); err != nil {
				return err
			}
			if err := svc.Close(fd); err != nil {
				return err
			}
		}
	}
	return nil
}

// populateScript records populate as a script on rec.
func populateScript(rec *scriptRecorder, seed int64) (*script, error) {
	if err := populate(rec, seed); err != nil {
		return nil, err
	}
	return rec.finish(), nil
}

// andrewRoot is where each andrew iteration builds (and then removes)
// its tree, beside the resident one.
const andrewRoot = "/andrew"

// andrewScript records one andrew iteration on rec, whose file system
// already holds the resident tree: one DefaultAndrewMini pass under
// andrewRoot, then the unlinks that remove everything it left, so the
// file system ends each iteration as it began.
func andrewScript(rec *scriptRecorder, seed int64) (*script, error) {
	a := fsserver.DefaultAndrewMini()
	a.Seed = seed
	a.Root = andrewRoot
	if _, err := a.Run(rec); err != nil {
		return nil, err
	}
	for d := 0; d < a.Dirs; d++ {
		dir := fmt.Sprintf("%s/src/d%02d", a.Root, d)
		for f := 0; f < a.FilesPerDir; f++ {
			if err := rec.Unlink(fmt.Sprintf("%s/f%02d.c", dir, f)); err != nil {
				return nil, err
			}
		}
		if err := rec.Unlink(dir); err != nil {
			return nil, err
		}
	}
	for _, p := range []string{a.Root + "/src", a.Root + "/copy", a.Root} {
		if err := rec.Unlink(p); err != nil {
			return nil, err
		}
	}
	s := rec.finish()
	s.inoMoves = true
	return s, nil
}

// lookupOps is the length of the lookup stream; the timed loop cycles
// through it.
const lookupOps = 4096

// lookupScript records a stream of 7/8 Stat and 1/8 ReadDir on rec,
// whose file system holds the resident tree: every eighth op is a
// ReadDir, so the mix is the same for every seed. Paths are drawn
// Zipf(1.2) over the tree (files and directories for Stat, directories
// for ReadDir), with popularity ranks assigned by a seeded shuffle.
func lookupScript(rec *scriptRecorder, seed int64) (*script, error) {
	rng := rand.New(rand.NewSource(seed))
	dirs := []string{"/tree"}
	var all []string
	for d := 0; d < treeDirs; d++ {
		dirs = append(dirs, treeDir(d))
		all = append(all, treeDir(d))
		for f := 0; f < treeFiles; f++ {
			all = append(all, treeFile(d, f))
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	rng.Shuffle(len(dirs), func(i, j int) { dirs[i], dirs[j] = dirs[j], dirs[i] })
	zAll := rand.NewZipf(rng, 1.2, 1, uint64(len(all)-1))
	zDir := rand.NewZipf(rng, 1.2, 1, uint64(len(dirs)-1))
	for i := 0; i < lookupOps; i++ {
		var err error
		if i%8 == 7 {
			_, err = rec.ReadDir(dirs[zDir.Uint64()])
		} else {
			_, err = rec.Stat(all[zAll.Uint64()])
		}
		if err != nil {
			return nil, err
		}
	}
	return rec.finish(), nil
}
