package fsserver

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
)

// tracedChaosRun is chaosRun with the observability recorder attached;
// it returns the recorder alongside the run's outputs.
func tracedChaosRun(t *testing.T, cm *kernel.CostModel, seed int64) (*obs.Recorder, string, Stats, float64) {
	t.Helper()
	link := wire.NewLink(localNet)
	link.SetFaultPlane(faultplane.New(faultplane.Chaos(seed)))
	fsys := fs.New(256)
	remote := NewRemoteOnLink(fsys, cm, link)
	rec := obs.NewRecorder(link)
	remote.SetRecorder(rec)
	if _, err := DefaultAndrewMini().Run(remote); err != nil {
		t.Fatalf("traced chaos run (seed %d) failed: %v", seed, err)
	}
	return rec, fsys.Fingerprint(), remote.Stats(), link.Clock()
}

func TestChaosTraceDeterministic(t *testing.T) {
	// Same seed, same drive: the exported JSONL event stream must be
	// byte-identical — the property the CI determinism gate rests on.
	cm := kernel.NewCostModel(arch.R3000)
	rec1, _, _, _ := tracedChaosRun(t, cm, 1991)
	rec2, _, _, _ := tracedChaosRun(t, cm, 1991)

	var b1, b2 bytes.Buffer
	if err := obs.WriteJSONL(&b1, rec1.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&b2, rec2.Events()); err != nil {
		t.Fatal(err)
	}
	if b1.Len() == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same-seed runs produced different JSONL traces")
	}
}

func TestNilRecorderInvariance(t *testing.T) {
	// Attaching a recorder must not perturb the run: fingerprint, stats,
	// and virtual clock all match the recorder-free drive of the same
	// seed (the nil fast path really is free, and observing does not
	// consume fault-plane randomness).
	cm := kernel.NewCostModel(arch.R3000)
	fpPlain, stPlain, _, clockPlain := chaosRun(t, cm, 1991)
	_, fpTraced, stTraced, clockTraced := tracedChaosRun(t, cm, 1991)
	if fpPlain != fpTraced {
		t.Error("recorder changed the final file-system state")
	}
	if stPlain != stTraced {
		t.Errorf("recorder changed the stats:\nplain:  %+v\ntraced: %+v", stPlain, stTraced)
	}
	if clockPlain != clockTraced {
		t.Errorf("recorder changed the virtual clock: %v vs %v", clockPlain, clockTraced)
	}
}

func TestSpanCausalChain(t *testing.T) {
	// One RPC under forced duplication and delay: its span must show the
	// whole causal chain — call_start, the call frame on the wire, the
	// fault plane's decisions, server execute, the duplicate answered
	// from the reply cache, the reply frame, recv_reply, call_end — in
	// that order, with monotone virtual timestamps.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	link.SetFaultPlane(faultplane.New(faultplane.Policy{
		Seed: 3, Duplicate: 1, DelayProb: 1, DelayMicrosMax: 20,
	}))
	remote := NewRemoteOnLink(fs.New(64), cm, link)
	rec := obs.NewRecorder(link)
	remote.SetRecorder(rec)

	if err := remote.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}

	span := obs.SpanEvents(rec.Events(), 1, 1)
	if len(span) == 0 {
		t.Fatal("no events for (client 1, call 1)")
	}
	find := func(layer, name, attrSub string) int {
		for i, e := range span {
			if e.Layer == layer && e.Name == name && strings.Contains(e.Attrs, attrSub) {
				return i
			}
		}
		t.Fatalf("span has no %s/%s (attrs containing %q); span:\n%s", layer, name, attrSub, fmtSpan(span))
		return -1
	}

	start := find("client", "call_start", "")
	if got := span[start].Proc; got != ProcMkdir {
		t.Errorf("call_start proc = %d, want %d", got, ProcMkdir)
	}
	sendCall := find("link", "send", "kind=call")
	delay := find("fault", "delay", "")
	dup := find("fault", "duplicate", "")
	execute := find("server", "execute", "")
	cacheHit := find("server", "cache_hit", "")
	sendReply := find("link", "send", "kind=reply")
	recv := find("client", "recv_reply", "")
	end := find("client", "call_end", "status=ok")

	for _, ord := range [][2]int{
		{start, sendCall}, {sendCall, execute}, {execute, cacheHit},
		{execute, sendReply}, {sendReply, recv}, {recv, end},
	} {
		if ord[0] >= ord[1] {
			t.Errorf("causal order violated at span indexes %d >= %d; span:\n%s", ord[0], ord[1], fmtSpan(span))
		}
	}
	if delay <= start || dup <= start {
		t.Error("fault decisions recorded before the call started")
	}

	for i := 1; i < len(span); i++ {
		if span[i].T < span[i-1].T {
			t.Errorf("virtual time went backwards at span index %d: %v after %v", i, span[i].T, span[i-1].T)
		}
		if span[i].Seq <= span[i-1].Seq {
			t.Errorf("sequence not increasing at span index %d", i)
		}
	}
	if span[0].Layer != "client" || span[0].Name != "call_start" {
		t.Errorf("span opens with %s/%s, want client/call_start", span[0].Layer, span[0].Name)
	}
	if last := span[len(span)-1]; last.Name != "call_end" {
		t.Errorf("span closes with %s/%s, want client/call_end", last.Layer, last.Name)
	}
}

func fmtSpan(span []obs.Event) string {
	var b strings.Builder
	for _, e := range span {
		fmt.Fprintf(&b, "  seq=%d t=%.3f %s/%s %s\n", e.Seq, e.T, e.Layer, e.Name, e.Attrs)
	}
	return b.String()
}

func TestConcurrentPeersWithRecorder(t *testing.T) {
	// The 8-client soak with tracing on, the clients interleaved one op
	// per turn: per-client histogram classes counting every completed
	// op, and unchanged exactly-once effects.
	cm := kernel.NewCostModel(arch.R3000)
	const n = 8
	script := func(i int) AndrewMini {
		a := DefaultAndrewMini()
		a.Seed += int64(i)
		a.Root = fmt.Sprintf("/c%02d", i)
		return a
	}

	clean := fs.New(256)
	direct := NewDirect(clean, cm)
	for i := 0; i < n; i++ {
		if _, err := script(i).Run(direct); err != nil {
			t.Fatal(err)
		}
	}

	link := wire.NewLink(localNet)
	link.SetFaultPlane(faultplane.New(faultplane.Chaos(99)))
	fsys := fs.New(256)
	base := NewRemoteOnLink(fsys, cm, link)
	rec := obs.NewRecorder(link)
	base.SetRecorder(rec)
	remotes := make([]*Remote, n)
	scripts := make([]AndrewMini, n)
	svcs := make([]Service, n)
	for i := range remotes {
		if i == 0 {
			remotes[i] = base
		} else {
			remotes[i] = base.NewPeer()
		}
		scripts[i], svcs[i] = script(i), remotes[i]
	}
	if err := Interleave(scripts, svcs); err != nil {
		t.Fatal(err)
	}

	if fsys.Fingerprint() != clean.Fingerprint() {
		t.Error("combined state diverged from sequential monolithic run")
	}
	for _, r := range remotes {
		st := r.Stats()
		h := rec.Histogram(r.LatencyClass())
		if got := h.Count(); got != uint64(st.Ops) {
			t.Errorf("%s observed %d latencies, want %d ops", r.LatencyClass(), got, st.Ops)
		}
	}
	if rec.EventCount() == 0 {
		t.Error("recorder saw no events")
	}
}
