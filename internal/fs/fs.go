// Package fs is an in-memory hierarchical file system in the shape of
// the Unix services the paper's Section 5 workloads pound on: inodes,
// directories, file descriptors and a block cache with hit statistics.
// It is the substrate a "Unix server" serves — directly (the
// monolithic arrangement) or across address spaces over RPC (the Mach
// 3.0 arrangement); package fsserver wires it to the ipc/wire
// transport so both arrangements can run the same workload for real.
package fs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"strings"
)

// Errors mirror the Unix ones the paper's scripts would see.
var (
	ErrNotExist   = errors.New("fs: no such file or directory")
	ErrExist      = errors.New("fs: file exists")
	ErrNotDir     = errors.New("fs: not a directory")
	ErrIsDir      = errors.New("fs: is a directory")
	ErrBadFD      = errors.New("fs: bad file descriptor")
	ErrNotEmpty   = errors.New("fs: directory not empty")
	ErrNameTooBig = errors.New("fs: name too long")
	ErrBadCount   = errors.New("fs: negative byte count")
)

// BlockBytes is the file-system block size (the paper's machines use
// 4KB pages; 4KB blocks keep the cache arithmetic aligned).
const BlockBytes = 4096

// maxName bounds a single path component.
const maxName = 255

// FileKind distinguishes inode types.
type FileKind int

const (
	// KindFile is a regular file; KindDir a directory.
	KindFile FileKind = iota
	KindDir
)

func (k FileKind) String() string {
	if k == KindDir {
		return "dir"
	}
	return "file"
}

// Stat describes an inode.
type Stat struct {
	Ino    uint64
	Kind   FileKind
	Size   int
	Blocks int
	Nlink  int
}

type inode struct {
	ino      uint64
	kind     FileKind
	data     []byte            // regular files
	children map[string]*inode // directories
	nlink    int

	// listing is a directory's children sorted by name, current while
	// sorted is set (see dirty and entries); callers get copies.
	listing []dirent
	sorted  bool
}

// dirent is one directory entry.
type dirent struct {
	name string
	n    *inode
}

// dirty marks the listing stale after a change to children, dropping
// its entries so that it pins no removed inode; of a run of changes,
// only the first pays for the clear.
func (n *inode) dirty() {
	if n.sorted {
		clear(n.listing)
		n.listing, n.sorted = n.listing[:0], false
	}
}

// entries returns the directory's entries sorted by name, refilling
// the listing when it is stale. A refill allocates only when the
// directory has outgrown the listing's array, and then once.
func (n *inode) entries() []dirent {
	if !n.sorted {
		n.listing = slices.Grow(n.listing, len(n.children))
		for name, c := range n.children {
			n.listing = append(n.listing, dirent{name, c})
		}
		slices.SortFunc(n.listing, func(a, b dirent) int { return strings.Compare(a.name, b.name) })
		n.sorted = true
	}
	return n.listing
}

// FS is the file system. It takes no locks: like the single-threaded
// servers of the era, it belongs to one goroutine at a time — for a
// served FS, the goroutine that owns its server's stack (see package
// fsserver). A read may refill a stale listing, so Fingerprint and
// RangeFingerprints write too and fall under the same contract.
type FS struct {
	root    *inode
	ninodes int // live inodes, the root included: the size of a snapshot's inode table
	nextIno uint64

	// fds holds descriptor records by value, so an Open or Create
	// allocates no record of its own; an op that moves an offset
	// stores the record back.
	fds    map[int]fd
	nextFD int

	cache *blockCache
}

type fd struct {
	n      *inode
	offset int
}

// New creates an empty file system with a block cache of cacheBlocks
// blocks (0 disables caching: every block access is a "disk" access).
func New(cacheBlocks int) *FS {
	return &FS{
		root:    &inode{ino: 1, kind: KindDir, children: map[string]*inode{}, nlink: 2},
		ninodes: 1,
		nextIno: 1,
		fds:     map[int]fd{},
		cache:   newBlockCache(cacheBlocks),
	}
}

// pathDepth is how many components a lookup resolves in an array on
// its own stack; a deeper path spills to the heap and still resolves.
const pathDepth = 16

// pathArg is a path held as a string, or as bytes: a view of the call
// frame that carried it. One walk serves both, so a lookup from frame
// bytes never copies the path into a string unless an error names it.
type pathArg interface{ ~string | ~[]byte }

// Named reports whether err is one of the five sentinels whose
// failures name their path: ErrNotExist, ErrExist, ErrNotDir, ErrIsDir
// or ErrNotEmpty, bare. The path ops fail with these bare, and the
// public methods return exactly these wrapped with the path, with the
// text err.Error() + NamedSep + path. Every other error is returned
// whole: ErrNameTooBig and ErrBadFD bare, their text naming no path,
// and the relative-path error and ErrBadCount as complete fmt errors.
// StatBytes, AppendDir and ApplySession leave a Named failure bare, so
// a caller that holds the path can write the whole text where it goes
// without building it.
func Named(err error) bool {
	switch err {
	case ErrNotExist, ErrExist, ErrNotDir, ErrIsDir, ErrNotEmpty:
		return true
	}
	return false
}

// NamedSep joins a Named sentinel's text to the path in the failure's
// whole text.
const NamedSep = ": "

// pathError is an operation's failure on a path: the sentinel, which
// errors.Is matches through Unwrap, and the message "<sentinel>: <path>",
// formatted once when the error is made.
type pathError struct {
	err error
	msg string
}

func (e *pathError) Error() string { return e.msg }
func (e *pathError) Unwrap() error { return e.err }

// errPath wraps sentinel err with the path it failed on: the error
// record and its message, two allocations.
func errPath[P pathArg](err error, path P) error {
	return &pathError{err: err, msg: err.Error() + NamedSep + string(path)}
}

// named is a path op's error as the public methods return it: a Named
// sentinel wrapped with the path, anything else as it is.
func named(err error, path string) error {
	if Named(err) {
		return errPath(err, path)
	}
	return err
}

// components appends the components of an absolute path to dst: empty
// and "." components are skipped, and ".." drops the component before
// it, never rising above the root. A relative path is ErrNotExist and a
// component over maxName bytes ErrNameTooBig.
func components[P pathArg](dst []P, path P) ([]P, error) {
	if len(path) == 0 || path[0] != '/' {
		return nil, fmt.Errorf("%w: %q (need absolute path)", ErrNotExist, string(path))
	}
	for i := 0; i < len(path); {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		c := path[i:j]
		i = j + 1
		switch {
		case len(c) == 0, len(c) == 1 && c[0] == '.':
		case len(c) == 2 && c[0] == '.' && c[1] == '.':
			if len(dst) > 0 {
				dst = dst[:len(dst)-1]
			}
		default:
			if len(c) > maxName {
				return nil, ErrNameTooBig
			}
			dst = append(dst, c)
		}
	}
	return dst, nil
}

// descend follows the directory components parts down from the root,
// charging a cache access for each directory it reads.
func descend[P pathArg](f *FS, parts []P) (*inode, error) {
	cur := f.root
	for _, p := range parts {
		if cur.kind != KindDir {
			return nil, ErrNotDir
		}
		f.cache.access(cur.ino, 0) // directory block read
		if cur = cur.children[string(p)]; cur == nil {
			return nil, ErrNotExist
		}
	}
	return cur, nil
}

// walk resolves a path to its inode.
func walk[P pathArg](f *FS, path P) (*inode, error) {
	var stack [pathDepth]P
	parts, err := components(stack[:0], path)
	if err != nil {
		return nil, err
	}
	return descend(f, parts)
}

// walkParent resolves the directory containing path and the final name.
func (f *FS) walkParent(path string) (*inode, string, error) {
	var stack [pathDepth]string
	parts, err := components(stack[:0], path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", ErrExist
	}
	cur, err := descend(f, parts[:len(parts)-1])
	if err != nil {
		return nil, "", err
	}
	if cur.kind != KindDir {
		return nil, "", ErrNotDir
	}
	return cur, parts[len(parts)-1], nil
}

// Mkdir creates a directory.
func (f *FS) Mkdir(path string) error { return named(f.mkdir(path), path) }

func (f *FS) mkdir(path string) error {
	dir, name, err := f.walkParent(path)
	if err != nil {
		return err
	}
	if _, exists := dir.children[name]; exists {
		return ErrExist
	}
	f.nextIno++
	f.ninodes++
	dir.children[name] = &inode{ino: f.nextIno, kind: KindDir, children: map[string]*inode{}, nlink: 2}
	dir.dirty()
	dir.nlink++
	return nil
}

// Create makes (or truncates) a regular file and opens it.
func (f *FS) Create(path string) (int, error) {
	fdno, err := f.create(path)
	return fdno, named(err, path)
}

func (f *FS) create(path string) (int, error) {
	dir, name, err := f.walkParent(path)
	if err != nil {
		return -1, err
	}
	n := dir.children[name]
	if n == nil {
		f.nextIno++
		f.ninodes++
		n = &inode{ino: f.nextIno, kind: KindFile, nlink: 1}
		dir.children[name] = n
		dir.dirty()
	} else if n.kind == KindDir {
		return -1, ErrIsDir
	}
	n.data = n.data[:0]
	return f.allocFD(n), nil
}

// Open opens an existing regular file.
func (f *FS) Open(path string) (int, error) {
	fdno, err := f.open(path)
	return fdno, named(err, path)
}

func (f *FS) open(path string) (int, error) {
	n, err := walk(f, path)
	if err != nil {
		return -1, err
	}
	if n.kind == KindDir {
		return -1, ErrIsDir
	}
	return f.allocFD(n), nil
}

func (f *FS) allocFD(n *inode) int {
	f.nextFD++
	f.fds[f.nextFD] = fd{n: n}
	return f.nextFD
}

// Close releases a descriptor.
func (f *FS) Close(fdno int) error {
	if _, ok := f.fds[fdno]; !ok {
		return ErrBadFD
	}
	delete(f.fds, fdno)
	return nil
}

// Read reads up to len(buf) bytes at the descriptor's offset, advancing
// it. Each touched block goes through the block cache.
func (f *FS) Read(fdno int, buf []byte) (int, error) {
	d, ok := f.fds[fdno]
	if !ok {
		return 0, ErrBadFD
	}
	n := d.n
	if d.offset >= len(n.data) {
		return 0, nil // EOF
	}
	c := copy(buf, n.data[d.offset:])
	f.touchBlocks(n, d.offset, c)
	d.offset += c
	f.fds[fdno] = d
	return c, nil
}

// ReadN reads up to n bytes at the descriptor's offset into a buffer
// of its own, for callers that hold a byte count rather than a buffer:
// a read request, live or replayed from the log. The buffer is capped
// at the bytes the file holds past the offset, so a huge count
// allocates no more than the read can return; a negative count is
// refused with ErrBadCount before anything is allocated.
func (f *FS) ReadN(fdno, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadCount, n)
	}
	left := 0
	if d, ok := f.fds[fdno]; ok {
		left = len(d.n.data) - d.offset
	}
	buf := make([]byte, max(min(n, left), 0))
	c, err := f.Read(fdno, buf)
	return buf[:c], err
}

// Write writes buf at the descriptor's offset, extending the file.
func (f *FS) Write(fdno int, buf []byte) (int, error) {
	d, ok := f.fds[fdno]
	if !ok {
		return 0, ErrBadFD
	}
	n := d.n
	end := d.offset + len(buf)
	if end > len(n.data) {
		n.data = append(n.data, make([]byte, end-len(n.data))...)
	}
	copy(n.data[d.offset:end], buf)
	f.touchBlocks(n, d.offset, len(buf))
	d.offset = end
	f.fds[fdno] = d
	return len(buf), nil
}

// Seek sets the descriptor's absolute offset.
func (f *FS) Seek(fdno, offset int) error {
	d, ok := f.fds[fdno]
	if !ok {
		return ErrBadFD
	}
	if offset < 0 {
		return fmt.Errorf("fs: negative offset %d", offset)
	}
	d.offset = offset
	f.fds[fdno] = d
	return nil
}

func (f *FS) touchBlocks(n *inode, off, length int) {
	if length <= 0 {
		return
	}
	first := off / BlockBytes
	last := (off + length - 1) / BlockBytes
	for b := first; b <= last; b++ {
		f.cache.access(n.ino, b)
	}
}

// Unlink removes a file (or an empty directory via Rmdir semantics
// when kind is a directory with no children). Descriptors open on a
// removed file close with it, so no descriptor outlives its inode:
// later calls on them get ErrBadFD.
func (f *FS) Unlink(path string) error { return named(f.unlink(path), path) }

func (f *FS) unlink(path string) error {
	dir, name, err := f.walkParent(path)
	if err != nil {
		return err
	}
	n, ok := dir.children[name]
	if !ok {
		return ErrNotExist
	}
	if n.kind == KindDir {
		if len(n.children) > 0 {
			return ErrNotEmpty
		}
		dir.nlink--
	}
	delete(dir.children, name)
	dir.dirty()
	n.nlink--
	if n.nlink <= 0 || n.kind == KindDir {
		f.ninodes--
		for no, d := range f.fds {
			if d.n == n {
				delete(f.fds, no)
			}
		}
	}
	return nil
}

// Stat describes a path.
func (f *FS) Stat(path string) (Stat, error) {
	st, err := stat(f, path)
	return st, named(err, path)
}

// StatBytes is Stat for a path held in bytes, such as a view of the call
// frame that carried it; the path is never copied into a string. A
// Named failure comes back bare, for the caller to name the path.
func (f *FS) StatBytes(path []byte) (Stat, error) { return stat(f, path) }

func stat[P pathArg](f *FS, path P) (Stat, error) {
	n, err := walk(f, path)
	if err != nil {
		return Stat{}, err
	}
	return Stat{
		Ino:    n.ino,
		Kind:   n.kind,
		Size:   len(n.data),
		Blocks: (len(n.data) + BlockBytes - 1) / BlockBytes,
		Nlink:  n.nlink,
	}, nil
}

// ReadDir lists a directory's entries, sorted.
func (f *FS) ReadDir(path string) ([]string, error) {
	names, err := readDir(f, nil, path)
	return names, named(err, path)
}

// AppendDir appends the sorted entries of the directory at path, held
// in bytes, to dst and returns the extended slice: ReadDir into the
// caller's buffer, which allocates nothing once the buffer has room. A
// Named failure comes back bare, as from StatBytes.
func (f *FS) AppendDir(dst []string, path []byte) ([]string, error) { return readDir(f, dst, path) }

func readDir[P pathArg](f *FS, dst []string, path P) ([]string, error) {
	n, err := walk(f, path)
	if err != nil {
		return nil, err
	}
	if n.kind != KindDir {
		return nil, ErrNotDir
	}
	f.cache.access(n.ino, 0)
	dst = slices.Grow(dst, len(n.children))
	for _, e := range n.entries() {
		dst = append(dst, e.name)
	}
	return dst, nil
}

// ReadFile and WriteFile are whole-file conveniences used by the
// workload scripts.
func (f *FS) ReadFile(path string) ([]byte, error) {
	fdno, err := f.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close(fdno)
	st, _ := f.Stat(path)
	buf := make([]byte, st.Size)
	n, err := f.Read(fdno, buf)
	return buf[:n], err
}

func (f *FS) WriteFile(path string, data []byte) error {
	fdno, err := f.Create(path)
	if err != nil {
		return err
	}
	defer f.Close(fdno)
	_, err = f.Write(fdno, data)
	return err
}

// Fingerprint returns a stable digest of the logical file-system state
// — every path with its kind, size, and content bytes — walking the
// tree directly so the block cache is not disturbed. Two file systems
// holding the same tree produce the same fingerprint; a single
// double-applied or lost write changes it.
func (f *FS) Fingerprint() string {
	h := sha256.New()
	f.walkEntries(func(_, line []byte, n *inode) {
		h.Write(line)
		if n.kind != KindDir {
			h.Write(n.data)
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// RangeFingerprints digests the tree into n per-range fingerprints:
// each path is assigned to a range by hashing the path alone, and
// every entry in a range folds its path, kind, size, and content into
// that range's running digest. Two replicas holding the same tree
// produce the same n words; a divergent file perturbs exactly the
// ranges it hashes into, so an anti-entropy scrub comparing the words
// localises disagreement without exchanging the tree itself.
func (f *FS) RangeFingerprints(n int) []uint64 {
	if n <= 0 {
		n = 1
	}
	out := make([]uint64, n)
	h := sha256.New()
	var sum [sha256.Size]byte
	f.walkEntries(func(path, line []byte, node *inode) {
		ri := int(crc32.ChecksumIEEE(path)) % n
		if ri < 0 {
			ri += n
		}
		h.Reset()
		h.Write(line)
		if node.kind != KindDir {
			h.Write(node.data)
		}
		out[ri] ^= binary.BigEndian.Uint64(h.Sum(sum[:0]))
	})
	return out
}

// walkEntries calls visit for every entry of the tree, each directory's
// entries in name order and a directory before its own entries, with
// the entry's path and its digest line "<path>|<kind>|<size>\n". Both
// are built in buffers reused from entry to entry, so visit must not
// keep them.
func (f *FS) walkEntries(visit func(path, line []byte, n *inode)) {
	var path, line []byte
	var walk func(dir *inode)
	walk = func(dir *inode) {
		for _, e := range dir.entries() {
			parent := len(path)
			path = append(append(path, '/'), e.name...)
			line = append(append(append(line[:0], path...), '|'), e.n.kind.String()...)
			line = append(strconv.AppendInt(append(line, '|'), int64(len(e.n.data)), 10), '\n')
			visit(path, line, e.n)
			if e.n.kind == KindDir {
				walk(e.n)
			}
			path = path[:parent]
		}
	}
	walk(f.root)
}

// OpenFDs returns the number of live descriptors.
func (f *FS) OpenFDs() int { return len(f.fds) }

// CacheStats reports block-cache hits and misses ("disk" reads).
func (f *FS) CacheStats() (hits, misses int64) { return f.cache.hits, f.cache.misses }
