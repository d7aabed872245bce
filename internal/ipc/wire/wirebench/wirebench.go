// Package wirebench holds the RPC hot-path benchmark probes behind the
// committed benchmark trajectory (BENCH_rpc.json). Each probe is a
// plain func(*testing.B) so the same measurement runs two ways: as a
// standard `go test -bench` benchmark (bench_test.go wraps them) and
// programmatically through testing.Benchmark from `rpcbench -bench`,
// which records the results and compares them against the committed
// baseline in CI.
package wirebench

import (
	"testing"

	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/obs"
)

// CodecSmall times the specialized codec round trip for a small call's
// worth of values — append into a warm buffer, read back through the
// cursor — with no transport attached. This is the layer the
// allocation tests pin at zero.
func CodecSmall(b *testing.B) {
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf = wire.AppendUint32(buf, 7)
		buf = wire.AppendInt64(buf, -12345)
		buf = wire.AppendBool(buf, true)
		a := wire.NewArgs(buf)
		if a.Uint32() != 7 || a.Int64() != -12345 || !a.Bool() || a.Err() != nil {
			b.Fatal("codec round trip failed")
		}
	}
}

// newEcho builds a clean link with an echo server: an int64 echo at
// proc 1 and a byte-buffer echo at proc 3.
func newEcho() (*wire.Link, *wire.Server) {
	link := wire.NewLink(ipc.Ethernet10)
	server := wire.NewServer(link, wire.B)
	server.RegisterRaw(1, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		rep.Int64(a.Int64())
		return a.Err()
	})
	server.RegisterRaw(3, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		rep.Bytes(a.Bytes())
		return a.Err()
	})
	return link, server
}

// RawCallSmall times the end-to-end raw call path: recycled frames,
// typed appenders, cached execution, one int64 each way.
func RawCallSmall(b *testing.B) {
	link, server := newEcho()
	client := wire.NewClient(link, wire.A)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := client.NewCallArgs()
		w.Int64(7)
		res, err := client.CallRaw(server, 1, w)
		if err != nil || res.Int64() != 7 || res.Err() != nil {
			b.Fatal("raw call failed")
		}
	}
}

// RawCallSmallTraced times the identical raw call path with the flight
// recorder attached and recording every span event — the measurement
// behind the zero-overhead-tracing claim. The trajectory compare fails
// if this probe allocates more per op than its untraced sibling: the
// instrumentation must ride the hot path for free.
func RawCallSmallTraced(b *testing.B) {
	link, server := newEcho()
	link.SetRecorder(obs.NewFlightRecorder(link, 1<<12))
	client := wire.NewClient(link, wire.A)
	// Warm-up: the recorder's first use of each histogram class inserts
	// into a map — setup cost, not per-op cost.
	for i := 0; i < 64; i++ {
		w := client.NewCallArgs()
		w.Int64(7)
		if _, err := client.CallRaw(server, 1, w); err != nil {
			b.Fatal("traced warm-up call failed")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := client.NewCallArgs()
		w.Int64(7)
		res, err := client.CallRaw(server, 1, w)
		if err != nil || res.Int64() != 7 || res.Err() != nil {
			b.Fatal("traced raw call failed")
		}
	}
}

// BoxedCallSmall times the boxed []interface{} codec adapter (Call)
// against the same int64 echo — what marshalling and unmarshalling
// boxed values adds on top of the one call path.
func BoxedCallSmall(b *testing.B) {
	link, server := newEcho()
	client := wire.NewClient(link, wire.A)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := client.Call(server, 1, int64(7))
		if err != nil || out[0].(int64) != 7 {
			b.Fatal("boxed call failed")
		}
	}
}

// RawCall1K times the raw path carrying a 1 KiB payload each way — the
// bulk-data shape, where the reply view (zero-copy client side) earns
// its keep.
func RawCall1K(b *testing.B) {
	link, server := newEcho()
	client := wire.NewClient(link, wire.A)
	payload := make([]byte, 1024)
	b.SetBytes(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := client.NewCallArgs()
		w.Bytes(payload)
		res, err := client.CallRaw(server, 3, w)
		if err != nil || len(res.Bytes()) != 1024 || res.Err() != nil {
			b.Fatal("bulk call failed")
		}
	}
}

// Throughput returns a probe driving n simulated clients against one
// server whose handler does real work — a checksum pass over 2 KiB,
// four times, the kind of per-call computation a file service performs
// under its execution lock. The benchmark goroutine issues the clients'
// calls round-robin, the one drive the stack supports, so ns/op is per
// call across all clients and includes the reply routing and cache
// traffic that n identities on one link cost over one.
func Throughput(n int) func(*testing.B) {
	return func(b *testing.B) {
		link, server := newEcho()
		work := make([]byte, 2048)
		for i := range work {
			work[i] = byte(i)
		}
		server.RegisterRaw(4, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
			v := a.Int64()
			if err := a.Err(); err != nil {
				return err
			}
			var sum uint16
			for j := 0; j < 4; j++ {
				sum = wire.Checksum(work)
			}
			rep.Int64(v + int64(sum&1))
			return nil
		})
		clients := make([]*wire.Client, n)
		for i := range clients {
			clients[i] = wire.NewClient(link, wire.A)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := clients[i%n]
			w := c.NewCallArgs()
			w.Int64(int64(i))
			res, err := c.CallRaw(server, 4, w)
			if err != nil || res.Err() != nil {
				b.Fatalf("throughput call %d failed", i)
			}
			_ = res.Int64()
		}
	}
}
