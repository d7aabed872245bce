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
	// stack array: walk and walkParent allocate nothing for it.
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
			if _, err := f.walk(path); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("walk(%s) allocates %.1f times, want 0", path, got)
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
