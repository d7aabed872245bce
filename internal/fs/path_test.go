package fs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// splitRef is the strings.Split path splitter that components
// replaced, kept as its reference: every path must resolve to the same
// components, or fail with the same error.
func splitRef(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: %q (need absolute path)", ErrNotExist, path)
	}
	var parts []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			if len(c) > maxName {
				return nil, ErrNameTooBig
			}
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// checkComponents compares components, into a stack-sized array as the
// lookups call it, against splitRef for one path.
func checkComponents(t *testing.T, path string) {
	t.Helper()
	var stack [pathDepth]string
	got, gerr := components(stack[:0], path)
	want, werr := splitRef(path)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("components(%.40q) error %v, reference %v", path, gerr, werr)
	}
	if werr != nil {
		for _, target := range []error{ErrNotExist, ErrNameTooBig} {
			if errors.Is(gerr, target) != errors.Is(werr, target) || gerr.Error() != werr.Error() {
				t.Fatalf("components(%.40q) error %v, reference %v", path, gerr, werr)
			}
		}
		return
	}
	if !slices.Equal(got, want) {
		t.Fatalf("components(%.40q) = %q, reference %q", path, got, want)
	}
	// The walk over a frame's bytes splits the same way.
	var views [pathDepth][]byte
	gotBytes, berr := components(views[:0], []byte(path))
	if berr != nil || len(gotBytes) != len(want) {
		t.Fatalf("components(%.40q) over bytes = %q, %v; reference %q", path, gotBytes, berr, want)
	}
	for i, c := range gotBytes {
		if string(c) != want[i] {
			t.Fatalf("components(%.40q) over bytes = %q, reference %q", path, gotBytes, want)
		}
	}
}

func TestComponentsMatchSplitReference(t *testing.T) {
	name255, name256 := strings.Repeat("n", 255), strings.Repeat("n", 256)
	deep := strings.Repeat("/d", 40)
	for _, path := range []string{
		"", "/", "//", "///", ".", "..", "a", "a/b", "./a", "../a",
		"/a", "/a/", "/a//b", "//a//b//", "/a/./b", "/./.", "/a/b/..", "/a/b/../..",
		"/..", "/../..", "/../a", "/a/../../b", "/a/b/../../../c/.", "/...", "/a/.../b",
		"/" + name255, "/" + name256, "/a/" + name255 + "/b", "/a/" + name256 + "/b",
		"/" + name256 + "/..", "/../" + name256,
		deep, deep + "/x", deep + strings.Repeat("/..", 30), "relative" + deep,
	} {
		checkComponents(t, path)
	}
	words := []string{"", ".", "..", "...", "a", "b", "usr", "dict", name255, name256}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		parts := make([]string, rng.Intn(2*pathDepth+2))
		for j := range parts {
			parts[j] = words[rng.Intn(len(words))]
		}
		path := strings.Join(parts, "/")
		if rng.Intn(8) != 0 {
			path = "/" + path
		}
		checkComponents(t, path)
	}
}

func TestPathLookupAllocatesNothing(t *testing.T) {
	// A path of up to pathDepth components resolves in the lookup's own
	// stack array: walk, over a string or over bytes, and walkParent
	// allocate nothing for it.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	f := New(64)
	dir := ""
	for i := 1; i < pathDepth; i++ {
		dir += fmt.Sprintf("/d%d", i)
		if err := f.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	file := dir + "/f"
	if err := f.WriteFile(file, []byte("x")); err != nil {
		t.Fatal(err)
	}
	dotted := "/./d1/../d1/" + file[len("/d1/"):]
	for _, path := range []string{file, dotted} {
		if parts, _ := components(nil, path); len(parts) != pathDepth {
			t.Fatalf("%s has %d components, want %d", path, len(parts), pathDepth)
		}
		if got := testing.AllocsPerRun(200, func() {
			if _, err := walk(f, path); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("walk(%s) allocates %.1f times, want 0", path, got)
		}
		// The same walk over the path's bytes, as the lookup handlers
		// resolve a path straight from a call frame.
		view := []byte(path)
		if got := testing.AllocsPerRun(200, func() {
			if _, err := walk(f, view); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("walk(%s) over bytes allocates %.1f times, want 0", path, got)
		}
		if got := testing.AllocsPerRun(200, func() {
			if _, name, err := f.walkParent(path); err != nil || name != "f" {
				t.Fatalf("walkParent = %q, %v", name, err)
			}
		}); got != 0 {
			t.Errorf("walkParent(%s) allocates %.1f times, want 0", path, got)
		}
	}
	// Deeper paths spill to the heap and still resolve.
	deep := strings.Repeat("/e", 2*pathDepth)
	for p := ""; len(p) < len(deep); p += "/e" {
		if err := f.Mkdir(p + "/e"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Stat(deep); err != nil {
		t.Errorf("Stat of a %d-component path: %v", 2*pathDepth, err)
	}
}

func TestPathErrorAllocatesTwiceWithFmtText(t *testing.T) {
	// A path error keeps the text fmt.Errorf("%w: %s", sentinel, path)
	// gave it — reply frames carry that text and the WAL session record
	// stores it — and errors.Is still finds the sentinel, for two
	// allocations (the record and its message) instead of fmt's three.
	// The error is built only where a public method returns it.
	sentinels := []error{ErrNotExist, ErrExist, ErrNotDir, ErrIsDir, ErrNotEmpty}
	for _, sentinel := range sentinels {
		for _, path := range []string{"/z00042", "/a/b/c", "/", "/with space/ünïcode"} {
			want := fmt.Errorf("%w: %s", sentinel, path)
			for _, err := range []error{errPath(sentinel, path), errPath(sentinel, []byte(path))} {
				if err.Error() != want.Error() {
					t.Errorf("errPath(%v, %q) = %q, fmt.Errorf gives %q", sentinel, path, err, want)
				}
				for _, other := range sentinels {
					if got := errors.Is(err, other); got != (other == sentinel) {
						t.Errorf("errors.Is(%q, %v) = %v", err, other, got)
					}
				}
			}
		}
	}
	if raceEnabled {
		return // allocation counts are inflated under the race detector
	}
	path, view := "/z00042", []byte("/z00042")
	for name, mk := range map[string]func() error{
		"string": func() error { return errPath(ErrExist, path) },
		"bytes":  func() error { return errPath(ErrNotExist, view) },
	} {
		got := testing.AllocsPerRun(200, func() { _ = mk() })
		t.Logf("errPath over a %s path: %.1f allocations", name, got)
		if got > 2 {
			t.Errorf("errPath over a %s path allocates %.1f times, want at most 2", name, got)
		}
	}

	// The two failures the overload soak meets per op: a Mkdir of a name
	// that exists, and a Stat of a path that does not, resolved from
	// bytes. The public Mkdir builds its error; StatBytes and
	// ApplySession, the server's entry points, leave the sentinel bare
	// and allocate nothing for the failure.
	f := New(64)
	if err := f.Mkdir(path); err != nil {
		t.Fatal(err)
	}
	missing := []byte("/z00043")
	if got := testing.AllocsPerRun(200, func() {
		if err := f.Mkdir(path); !errors.Is(err, ErrExist) {
			t.Fatalf("Mkdir of an existing name = %v", err)
		}
	}); got > 2 {
		t.Errorf("a Mkdir collision allocates %.1f times, want at most 2", got)
	}
	collision := Record{Op: OpMkdir, Path: path}
	if got := testing.AllocsPerRun(200, func() {
		if s := f.ApplySession(collision); s.Err != ErrExist.Error() || s.ErrPath != path {
			t.Fatalf("ApplySession of a Mkdir collision = %+v", s)
		}
	}); got != 0 {
		t.Errorf("ApplySession of a Mkdir collision allocates %.1f times, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := f.StatBytes(missing); err != ErrNotExist {
			t.Fatalf("StatBytes of a missing path = %v", err)
		}
	}); got != 0 {
		t.Errorf("a StatBytes miss allocates %.1f times, want 0", got)
	}
}
