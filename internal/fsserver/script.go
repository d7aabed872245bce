package fsserver

import (
	"errors"
	"fmt"
	"math/rand"

	"archos/internal/fs"
)

// AndrewMini is a deterministic miniature of the paper's andrew script
// — "a script of file system intensive programs such as copy, compile
// and search" — expressed against the Service interface so the same
// workload runs under both OS arrangements:
//
//	mkdir phase   — build a source tree
//	write phase   — populate files
//	scan phase    — stat + read everything (the "search")
//	copy phase    — read each file, write a copy
//	cleanup phase — unlink the copies
type AndrewMini struct {
	Dirs        int
	FilesPerDir int
	FileBytes   int
	Seed        int64

	// Root, when non-empty, prefixes every path the script touches (the
	// directory is created first), so several scripts — one per
	// simulated client (Interleave) — replay against one file system in
	// disjoint subtrees whose combined final state is
	// interleaving-independent.
	Root string
}

// DefaultAndrewMini is sized to run in milliseconds while exercising
// hundreds of service operations.
func DefaultAndrewMini() AndrewMini {
	return AndrewMini{Dirs: 6, FilesPerDir: 8, FileBytes: 2300, Seed: 1991}
}

// Run replays the script against svc. It returns the number of
// operations issued and fails fast on any service error.
func (a AndrewMini) Run(svc Service) (int64, error) {
	rng := rand.New(rand.NewSource(a.Seed))
	content := make([]byte, a.FileBytes)
	rng.Read(content)

	// mkdir phase.
	if a.Root != "" {
		if err := svc.Mkdir(a.Root); err != nil {
			return 0, err
		}
	}
	if err := svc.Mkdir(a.Root + "/src"); err != nil {
		return 0, err
	}
	for d := 0; d < a.Dirs; d++ {
		if err := svc.Mkdir(a.dirName(d)); err != nil {
			return 0, err
		}
	}
	// write phase.
	for d := 0; d < a.Dirs; d++ {
		for f := 0; f < a.FilesPerDir; f++ {
			fd, err := svc.Create(a.fileName(d, f))
			if err != nil {
				return 0, err
			}
			if _, err := svc.Write(fd, content); err != nil {
				return 0, err
			}
			if err := svc.Close(fd); err != nil {
				return 0, err
			}
		}
	}
	// scan phase: stat and read every file (grep-like pass).
	for d := 0; d < a.Dirs; d++ {
		names, err := svc.ReadDir(a.dirName(d))
		if err != nil {
			return 0, err
		}
		for _, n := range names {
			path := a.dirName(d) + "/" + n
			if _, err := svc.Stat(path); err != nil {
				return 0, err
			}
			fd, err := svc.Open(path)
			if err != nil {
				return 0, err
			}
			for {
				chunk, err := svc.Read(fd, 1024)
				if err != nil {
					return 0, err
				}
				if len(chunk) == 0 {
					break
				}
			}
			if err := svc.Close(fd); err != nil {
				return 0, err
			}
		}
	}
	// copy phase.
	if err := svc.Mkdir(a.Root + "/copy"); err != nil {
		return 0, err
	}
	for d := 0; d < a.Dirs; d++ {
		for f := 0; f < a.FilesPerDir; f++ {
			src, err := svc.Open(a.fileName(d, f))
			if err != nil {
				return 0, err
			}
			dst, err := svc.Create(a.copyName(d, f))
			if err != nil {
				return 0, err
			}
			for {
				chunk, err := svc.Read(src, 4096)
				if err != nil {
					return 0, err
				}
				if len(chunk) == 0 {
					break
				}
				if _, err := svc.Write(dst, chunk); err != nil {
					return 0, err
				}
			}
			if err := svc.Close(src); err != nil {
				return 0, err
			}
			if err := svc.Close(dst); err != nil {
				return 0, err
			}
		}
	}
	// cleanup phase.
	for d := 0; d < a.Dirs; d++ {
		for f := 0; f < a.FilesPerDir; f++ {
			if err := svc.Unlink(a.copyName(d, f)); err != nil {
				return 0, err
			}
		}
	}
	return svc.Stats().Ops, nil
}

func (a AndrewMini) dirName(d int) string { return fmt.Sprintf("%s/src/d%02d", a.Root, d) }
func (a AndrewMini) fileName(d, f int) string {
	return fmt.Sprintf("%s/f%02d.c", a.dirName(d), f)
}
func (a AndrewMini) copyName(d, f int) string {
	return fmt.Sprintf("%s/copy/d%02d_f%02d.c", a.Root, d, f)
}

// Interleave replays scripts[i] against svcs[i], all of them at once,
// one service op per turn, with turns going round-robin in index order
// over the scripts still running. Each script runs as a coroutine that
// holds the turn for one op and hands it back before issuing the next,
// so exactly one script runs at any instant and the interleaving — and
// with it every trace of the run — is fixed by the scripts alone. A
// script that fails drops out of the rotation; the others run to the
// end. The error joins every script's failure, tagged with its index.
func Interleave(scripts []AndrewMini, svcs []Service) error {
	back := make(chan bool) // a turn ends: true when its script has finished
	errs := make([]error, len(scripts))
	live := make([]chan struct{}, len(scripts))
	for i := range scripts {
		ts := &turnService{Service: svcs[i], turn: make(chan struct{}), back: back}
		live[i] = ts.turn
		go func() {
			<-ts.turn
			if _, err := scripts[i].Run(ts); err != nil {
				errs[i] = fmt.Errorf("client %d: %w", i, err)
			}
			back <- true
		}()
	}
	for len(live) > 0 {
		next := live[:0]
		for _, turn := range live {
			turn <- struct{}{}
			if finished := <-back; !finished {
				next = append(next, turn)
			}
		}
		live = next
	}
	return errors.Join(errs...)
}

// turnService is one Interleave coroutine's view of its service: every
// op after the first ends the current turn and waits for the next.
type turnService struct {
	Service
	turn    chan struct{}
	back    chan bool
	started bool
}

func (t *turnService) next() {
	if t.started {
		t.back <- false
		<-t.turn
	}
	t.started = true
}

func (t *turnService) Open(path string) (int, error)       { t.next(); return t.Service.Open(path) }
func (t *turnService) Create(path string) (int, error)     { t.next(); return t.Service.Create(path) }
func (t *turnService) Close(fd int) error                  { t.next(); return t.Service.Close(fd) }
func (t *turnService) Read(fd, n int) ([]byte, error)      { t.next(); return t.Service.Read(fd, n) }
func (t *turnService) Write(fd int, b []byte) (int, error) { t.next(); return t.Service.Write(fd, b) }
func (t *turnService) Stat(path string) (fs.Stat, error)   { t.next(); return t.Service.Stat(path) }
func (t *turnService) Mkdir(path string) error             { t.next(); return t.Service.Mkdir(path) }
func (t *turnService) Unlink(path string) error            { t.next(); return t.Service.Unlink(path) }
func (t *turnService) ReadDir(p string) ([]string, error)  { t.next(); return t.Service.ReadDir(p) }
