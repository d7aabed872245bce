package wire

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/ipc"
)

func TestFreeListCapOnPurgeAllocs(t *testing.T) {
	// A crash purges a deep queue in one go. Every purged frame goes back
	// to the stack's free list, which keeps maxFree of them and leaves the
	// rest to the GC, and it stays a working free list: a raw echo on the
	// same stack still allocates nothing.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server := NewServer(link, B)
	server.RegisterRaw(4, echoRaw)
	frame, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 4, ClientID: client.ClientID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const queued = 3 * maxFree
	for i := 0; i < queued; i++ {
		link.Send(A, frame)
	}
	if n := link.PurgeToward(B); n != queued {
		t.Fatalf("purged %d frames, want the %d queued", n, queued)
	}
	if n := len(link.clock.bufs.items); n != maxFree {
		t.Errorf("free list holds %d frames after purging %d, want the cap, %d", n, queued, maxFree)
	}
	if raceEnabled {
		return // allocation counts are inflated under the race detector
	}
	echo := func() {
		w := client.NewCallArgs()
		w.Int64(7)
		res, err := client.CallRaw(server, 4, w)
		if err != nil || res.Int64() != 7 || res.Err() != nil {
			t.Fatalf("echo failed: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(100, echo); allocs != 0 {
		t.Errorf("raw echo after a purge allocates %.1f times per call, want 0", allocs)
	}
}

// wireStackOutcome is what one wire stack reports after a soak.
type wireStackOutcome struct {
	clock          float64
	client, server Stats
	err            error
}

// wireStackSoak drives one independent wire stack through every path
// that takes or returns a frame buffer: batched containers, loss,
// duplication, corruption and reordering from a seeded chaos plane,
// reply-cache eviction, and a crash every 50 rounds that purges the
// server's queue. Four simulated clients echo payloads that outgrow a
// fresh buffer.
func wireStackSoak(seed int64) (o wireStackOutcome) {
	link := NewLink(ipc.Ethernet10)
	link.SetFaultPlane(faultplane.New(faultplane.Chaos(seed)))
	link.EnableBatching(true)
	server := NewServer(link, B)
	server.ConfigureReplyCache(2) // fewer slots than clients: evictions
	server.RegisterRaw(1, echoRaw)
	server.OnRestart(func() {
		server.Restart()
		server.RegisterRaw(1, echoRaw)
	})
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = NewClient(link, A)
		clients[i].MaxRetries = 64
	}
	for k := 0; k < 200 && o.err == nil; k++ {
		if k%50 == 49 {
			server.ForceCrash()
		}
		for _, c := range clients {
			payload := bytes.Repeat([]byte{byte(c.ClientID)}, 100+7*k)
			w := c.NewCallArgs()
			w.Uint32(c.ClientID)
			w.Bytes(payload)
			res, err := c.CallRaw(server, 1, w)
			if err != nil {
				o.err = fmt.Errorf("client %d, round %d: %w", c.ClientID, k, err)
				break
			}
			if id, got := res.Uint32(), res.Bytes(); id != c.ClientID || !bytes.Equal(got, payload) || res.Err() != nil {
				o.err = fmt.Errorf("client %d, round %d: got client %d's reply (%d bytes, err %v)", c.ClientID, k, id, len(got), res.Err())
				break
			}
		}
	}
	o.clock = link.Clock()
	o.server = server.Stats()
	for _, c := range clients {
		o.client = o.client.Add(c.Stats())
	}
	return o
}

func TestParallelWireStacksShareNothing(t *testing.T) {
	// Wire stacks share nothing, their frame free lists included, so
	// stacks driven at once, each by its own goroutine, report exactly
	// what each reports alone. Under -race a frame buffer that crossed
	// from one stack into another is a reported race.
	seeds := []int64{1, 2, 3}
	alone := make([]wireStackOutcome, len(seeds))
	for i, seed := range seeds {
		alone[i] = wireStackSoak(seed)
		if alone[i].err != nil {
			t.Fatalf("seed %d alone: %v", seed, alone[i].err)
		}
		if s := alone[i].server; s.Crashes == 0 || s.RepliesEvicted == 0 || s.BadFrames+alone[i].client.BadFrames == 0 {
			t.Fatalf("seed %d: soak missed a recycling path: server %+v", seed, s)
		}
	}
	together := make([]wireStackOutcome, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = wireStackSoak(seed)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if together[i] != alone[i] {
			t.Errorf("seed %d: run alongside other stacks = %+v, alone = %+v", seed, together[i], alone[i])
		}
	}
}
