package wire

import (
	"testing"

	"archos/internal/ipc"
)

// TestBoxedCallAllocsSteady pins the end-to-end allocation count of a
// small call through the boxed Call adapter. The server side is the one
// raw dispatch path; the adapter adds only the client's boxing — the
// results slice — to CallRaw, which allocates nothing, and measures 1.
// The stack's free lists survive a GC, unlike a sync.Pool, so the count
// is exact and the bound is the measurement. (With a boxed server path,
// deleted since, the same call measured 7; the original reflective path
// measured 17.)
func TestBoxedCallAllocsSteady(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server := NewServer(link, B)
	server.RegisterRaw(4, echoRaw)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := client.Call(server, 4, int64(7)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op for small boxed call: %.1f", allocs)
	if allocs > 1 {
		t.Errorf("small boxed call allocates %.1f times per op, want <= 1", allocs)
	}
}
