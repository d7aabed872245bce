// Wire RPC example: the functional message layer underneath the
// paper's Table 3 — real frames, real marshalling, a real checksum
// over the bytes, retransmission on loss and corruption — running a
// small file-server-style interface over a simulated Ethernet link.
package main

import (
	"fmt"
	"log"

	"archos/internal/faultplane"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
)

// Procedure numbers of the toy file service.
const (
	procLookup = iota + 1
	procRead
	procChecksum
)

func main() {
	link := wire.NewLink(ipc.Ethernet10)
	client := wire.NewClient(link, wire.A)
	server := wire.NewServer(link, wire.B)

	// A tiny in-memory file store served over RPC. Each handler is the
	// stub a compiler would emit: arguments read from a typed cursor,
	// results appended to the reply frame in signature order.
	files := map[string][]byte{
		"/etc/motd":    []byte("the interaction of architecture and operating system design\n"),
		"/usr/dict/ws": make([]byte, 1500), // the paper's large-result case
	}
	lookup := func(a *wire.Args) ([]byte, error) {
		name := a.String()
		if err := a.Err(); err != nil {
			return nil, err
		}
		data, ok := files[name]
		if !ok {
			return nil, fmt.Errorf("%s: not found", name)
		}
		return data, nil
	}
	server.RegisterRaw(procLookup, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		data, err := lookup(a)
		rep.Int64(int64(len(data)))
		return err
	})
	server.RegisterRaw(procRead, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		data, err := lookup(a)
		rep.Bytes(data)
		return err
	})
	server.RegisterRaw(procChecksum, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		rep.Uint32(uint32(wire.Checksum(a.Bytes())))
		return a.Err()
	})
	// callPath is the client stub for the path-taking procedures.
	callPath := func(proc uint32, path string) (wire.Args, error) {
		w := client.NewCallArgs()
		w.String(path)
		return client.CallRaw(server, proc, w)
	}

	// Plain calls.
	size, err := callPath(procLookup, "/etc/motd")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup(/etc/motd) = %d bytes\n", size.Int64())

	data, err := callPath(procRead, "/etc/motd")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read(/etc/motd)   = %q\n", data.Bytes())

	// The large-result case: watch the wire clock.
	before := link.Clock()
	big, err := callPath(procRead, "/usr/dict/ws")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read(1500 B)      = %d bytes, wire time %.0f µs (74-byte call was %.0f µs)\n",
		len(big.Bytes()), link.Clock()-before, before)

	// A remote error comes back typed.
	if _, err := callPath(procRead, "/no/such"); err != nil {
		fmt.Printf("read(/no/such)    = error: %v\n", err)
	}

	// Now sabotage the wire with a fault script: corrupt the next call
	// frame (frame 9 — four call/reply pairs have used 1–8) and drop the
	// retry's reply. The checksum rejects the damage and the client
	// retransmits — invisibly, except in the counters.
	script := &faultplane.Script{}
	script.Corrupt(9)
	script.Drop(11)
	link.SetFaultPlane(script)
	w := client.NewCallArgs()
	w.Bytes([]byte("unreliable networks"))
	sum, err := client.CallRaw(server, procChecksum, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checksum over a damaged link = %#x  (client retries: %d, server rejected frames: %d, duplicates suppressed: %d)\n",
		sum.Uint32(), client.Stats().Retries, server.Stats().BadFrames, server.Stats().DuplicatesSuppressed)

	fmt.Printf("total wire time %.0f µs across %d served calls\n", link.Clock(), server.Stats().Served)
}
