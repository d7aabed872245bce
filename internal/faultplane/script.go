package faultplane

// Script is the deterministic injector: an explicit decision per frame
// sequence number (1-based, per link) — "drop the 4th frame", "corrupt
// the next call" — for surgical tests and demos, where a seeded Plane is
// for soaks. Frames without an entry pass clean. The zero Script is
// ready to use. Decisions may be armed mid-run, between calls, by the
// goroutine driving the link (aim at wire.Link.Frames()+1 for "the
// next frame").
type Script struct {
	at map[int]Decision
}

// Set arms decision d for frame n, replacing whatever was armed there.
func (s *Script) Set(n int, d Decision) { s.update(n, func(x *Decision) { *x = d }) }

// Drop arranges for frame n to vanish in flight.
func (s *Script) Drop(n int) { s.update(n, func(d *Decision) { d.Drop = true }) }

// Corrupt arranges for frame n to arrive with one bit flipped — the
// first payload bit (offset 0), or the checksum field of a bare header —
// so the receiver's checksum rejects it.
func (s *Script) Corrupt(n int) { s.update(n, func(d *Decision) { d.Corrupt = true }) }

// update edits frame n's decision in place, so Drop and Corrupt compose
// with each other and with an earlier Set.
func (s *Script) update(n int, f func(*Decision)) {
	if s.at == nil {
		s.at = map[int]Decision{}
	}
	d := s.at[n]
	f(&d)
	s.at[n] = d
}

// Decide returns the decision armed for frame seq (the zero Decision,
// a clean delivery, when none is).
func (s *Script) Decide(seq, frameBytes int) Decision {
	return s.at[seq]
}
