package wire

import (
	"testing"

	"archos/internal/faultplane"
)

// echoRaw answers with its argument stream verbatim, whatever the
// argument types — the generic echo handler of tests whose signature
// does not matter.
func echoRaw(h Header, a *Args, rep *Reply) error {
	rep.frame = append(rep.frame, a.data[a.off:]...)
	return nil
}

// script returns link's per-frame fault script, attaching an empty one
// on first use. A test scripts frames or seeds a plane, never both.
func script(link *Link) *faultplane.Script {
	s, ok := link.plane.(*faultplane.Script)
	if !ok {
		if link.plane != nil {
			panic("wire test: link already carries a seeded fault plane")
		}
		s = &faultplane.Script{}
		link.plane = s
	}
	return s
}

// roundRobin drives calls rounds over n simulated clients on the test
// goroutine: round k issues call k of client 0, then of client 1, and
// so on — the fixed interleaving every multi-client drive uses, so a
// same-seed rerun replays it exactly. The first error stops the drive
// and names its client and call.
func roundRobin(t *testing.T, n, calls int, call func(i, k int) error) {
	t.Helper()
	for k := 0; k < calls; k++ {
		for i := 0; i < n; i++ {
			if err := call(i, k); err != nil {
				t.Fatalf("client %d, call %d: %v", i, k, err)
			}
		}
	}
}
