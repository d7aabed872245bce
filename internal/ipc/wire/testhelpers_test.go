package wire

import "archos/internal/faultplane"

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
	link.mu.Lock()
	defer link.mu.Unlock()
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
