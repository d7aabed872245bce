package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/ipc"
)

// sealFrame builds a well-formed call frame for link-level tests.
func sealFrame(t *testing.T, callID uint32, payload []byte) []byte {
	t.Helper()
	frame, err := Encode(Header{Kind: KindCall, CallID: callID, ProcID: 1, ClientID: 1}, payload)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestBatchingCoalescesAndSplits(t *testing.T) {
	// Three frames staged before the receiver polls ride one container
	// and arrive intact, in order, as three separate frames. The wire
	// was occupied once, not three times.
	link := NewLink(ipc.Ethernet10)
	link.allocClientID()
	link.EnableBatching(true)
	var want [][]byte
	for i := uint32(1); i <= 3; i++ {
		f := sealFrame(t, i, []byte{byte(i), byte(i + 1)})
		want = append(want, append([]byte(nil), f...))
		link.Send(A, f)
	}
	if c := link.Clock(); c != 0 {
		t.Errorf("staging charged %g µs of wire time; the charge belongs to the flush", c)
	}
	for i, w := range want {
		got, err := link.Recv(B)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Errorf("frame %d mangled by the batch round trip", i)
		}
	}
	if _, err := link.Recv(B); !errors.Is(err, ErrEmpty) {
		t.Errorf("queue not drained: %v", err)
	}
	batches, frames := link.BatchStats()
	if batches != 1 || frames != 3 {
		t.Errorf("batch stats = %d containers / %d frames, want 1/3", batches, frames)
	}
	single := link.Clock()
	if single <= 0 {
		t.Error("flush charged no wire time")
	}
	// One container must cost less wire time than three bare sends of
	// the same frames — the per-packet amortisation is the point.
	bare := NewLink(ipc.Ethernet10)
	for _, w := range want {
		bare.Send(A, w)
	}
	if single >= bare.Clock() {
		t.Errorf("batched transfer cost %g µs, unbatched %g µs — no amortisation", single, bare.Clock())
	}
}

func TestBatchingLoneFrameSkipsContainer(t *testing.T) {
	// A single staged frame degenerates to a plain transmission: no
	// container overhead, no batch counted.
	link := NewLink(ipc.Ethernet10)
	link.allocClientID()
	link.EnableBatching(true)
	f := sealFrame(t, 1, []byte{9})
	link.Send(A, f)
	got, err := link.Recv(B)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f) {
		t.Error("lone staged frame mangled")
	}
	if batches, _ := link.BatchStats(); batches != 0 {
		t.Errorf("lone frame counted as a container (%d)", batches)
	}
}

func TestBatchCorruptionDamagesWholeBatch(t *testing.T) {
	// A bit flip on the container leaves it unsplittable: the damage
	// arrives whole, fails the checksum at the receiver, and every
	// coalesced frame is lost together — the batching trade-off.
	link := NewLink(ipc.Ethernet10)
	link.allocClientID()
	link.EnableBatching(true)
	script(link).Corrupt(1) // seq 1 is the container, not a staged frame
	link.Send(A, sealFrame(t, 1, []byte{1}))
	link.Send(A, sealFrame(t, 2, []byte{2}))
	got, err := link.Recv(B)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(got); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("damaged container decoded as %v, want checksum failure", err)
	}
	if _, err := link.Recv(B); !errors.Is(err, ErrEmpty) {
		t.Error("second frame survived a corrupted container")
	}
}

func TestBatchingDisableFlushes(t *testing.T) {
	// Turning batching off may not strand staged frames.
	link := NewLink(ipc.Ethernet10)
	link.allocClientID()
	link.EnableBatching(true)
	link.Send(A, sealFrame(t, 1, []byte{1}))
	link.Send(A, sealFrame(t, 2, []byte{2}))
	link.EnableBatching(false)
	for i := 0; i < 2; i++ {
		if _, err := link.Recv(B); err != nil {
			t.Fatalf("staged frame %d stranded: %v", i, err)
		}
	}
}

func TestBatchedCallsConcurrentChaos(t *testing.T) {
	// The full RPC stack over a batching link under the reference chaos
	// policy, with simulated clients interleaved round-robin: containers
	// drop, corrupt, duplicate, and reorder as whole units, and
	// at-most-once still holds for every coalesced call.
	const (
		nClients = 6
		calls    = 30
	)
	link := NewLink(ipc.Ethernet10)
	link.SetFaultPlane(faultplane.New(faultplane.Chaos(4242)))
	link.EnableBatching(true)
	server := NewServer(link, B)
	executions := 0
	server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
		id, n := a.Int64(), a.Int64()
		if err := a.Err(); err != nil {
			return err
		}
		executions++
		rep.Int64(id)
		rep.Int64(n)
		return nil
	})
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = NewClient(link, A)
		clients[i].MaxRetries = 64
	}
	roundRobin(t, nClients, calls, func(i, n int) error {
		c := clients[i]
		w := c.NewCallArgs()
		w.Int64(int64(c.ClientID))
		w.Int64(int64(n))
		res, err := c.CallRaw(server, 1, w)
		if err != nil {
			return err
		}
		if res.Int64() != int64(c.ClientID) || res.Int64() != int64(n) || res.Err() != nil {
			return fmt.Errorf("wrong reply (err %v)", res.Err())
		}
		return nil
	})
	if executions != nClients*calls {
		t.Errorf("handler executed %d times for %d calls — at-most-once violated under batching",
			executions, nClients*calls)
	}
}
