package wirebench

import "testing"

// Standard-benchmark wrappers over the probes, so `go test -bench .`
// measures exactly what `rpcbench -bench` records into BENCH_rpc.json.

func BenchmarkCodecSmall(b *testing.B)         { CodecSmall(b) }
func BenchmarkRawCallSmall(b *testing.B)       { RawCallSmall(b) }
func BenchmarkRawCallSmallTraced(b *testing.B) { RawCallSmallTraced(b) }
func BenchmarkBoxedCallSmall(b *testing.B)     { BoxedCallSmall(b) }
func BenchmarkRawCall1K(b *testing.B)          { RawCall1K(b) }

func BenchmarkThroughput8(b *testing.B) { Throughput(8)(b) }
