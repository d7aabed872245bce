// Command hostbench is the repository's host-time benchmark of the
// decomposed file service. The paper prices each OS primitive and then
// counts how often a decomposed system uses it (its Tables 3, 4 and 7);
// hostbench asks the same of this Go stack on the machine it runs on:
// what one file-service operation costs end to end, and which layer the
// cost belongs to.
//
// Run it from the repository root:
//
//	bash hostbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the benchmark from the checkout's sources (its Go build
// cache, binary and outputs stay under .bench_build/) and runs it. The
// benchmark is its own module so that the program's tier-1 build and
// tests do not compile it; it imports the program's packages through a
// replace directive and changes none of them. Every input (paths,
// payloads, the Zipf draws) is generated from --seed during set-up, and
// the timed loop is driven by one goroutine in one process, with
// GOMAXPROCS left at its default and recorded.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics below; with --trace 1 they are the per-layer
// metrics. The line before it stamps the host: CPU model, nproc,
// GOMAXPROCS, Go version, the times of a fixed integer loop and of a
// fixed cache-missing memory loop, and the share of CPU time the
// hypervisor stole during the run, so a set of runs taken while the
// machine drifted can be recognised as such.
//
// # Workloads
//
//	andrew-single      Closed loop, one client, on the single-server decomposed
//	                   arrangement (fsserver.NewRemoteOnLink over a link the
//	                   benchmark builds: the raw call path). A resident tree of
//	                   16 dirs × 16 files × 2 KiB; each iteration is one
//	                   DefaultAndrewMini pass (936 ops with its teardown) under
//	                   /andrew, which then unlinks everything it made, so the
//	                   file system is the same size after every iteration.
//	                   Why: it runs the raw call path, the fs layer, the block
//	                   cache and the WAL with full-image snapshots every 512
//	                   appends, and skips replication and the boxed and failover
//	                   call paths. Because the file system keeps its size,
//	                   snapshot cost does not grow with run length.
//	andrew-replicated  The same op stream and resident tree on fsserver.NewCluster
//	                   with two backups and no faults, through Cluster.NewClient.
//	                   Why: every logged op ships a gob-encoded batch to both
//	                   backups before it is acknowledged, and all three nodes
//	                   snapshot every 512 appends. A change to the replicated
//	                   call path, the ship codec or the snapshot policy shows here.
//	lookup-replicated  Closed loop, one client, same cluster shape: 7/8 Stat and
//	                   1/8 ReadDir, paths drawn Zipf(1.2) over the resident tree
//	                   from a 4096-op stream.
//	                   Why: the same client stubs, FailoverClient and server
//	                   dispatch as andrew-replicated, for reads. It skips the WAL,
//	                   snapshots, replication and the block cache (Open, Read and
//	                   Close are logged and shipped like writes, so only Stat and
//	                   ReadDir are true reads). It is the control that must not
//	                   move for write-path changes and must move for call-path
//	                   changes.
//	overload-soak      The paired open-loop soak: workload.RunLoad with
//	                   DefaultLoadConfig at the seed, ControlsOff then ControlsOn,
//	                   repeated; open loop in virtual time, run as fast as the
//	                   host allows (31,346 offered ops per pair at seed 1991).
//	                   Why: its host cost is the load generator's own client
//	                   engine, admission and deadline shedding, retransmit storms
//	                   and the always-on flight recorder — where one client
//	                   engine, cheaper tracing or RunLoad driving a Cluster will
//	                   show up, or regress.
//
// # End-to-end metrics (--trace 0)
//
// Measured with tracing off. A closed-loop op's latency is timed around
// its Service call alone. The timed loop is cut into slices: 30 for a
// closed loop, 8 of several RunLoad pairs each for the soak. On a
// shared virtual machine much of the noise is CPU time the hypervisor
// gives to other guests, and /proc/stat counts it as stolen, so each
// slice records the machine's stolen ticks and the run reports the
// median of each per-slice value over the half of its slices during
// which the least was stolen.
//
//	setup_s        s      Build the arrangement, generate the inputs, populate the
//	                      resident tree and run one untimed warm-up iteration
//	                      (for the soak: one untimed warm-up pair). Done at least
//	                      5 times per run, each after a forced GC, and again until
//	                      2 s have gone on set-ups (at most 41 times); the median
//	                      is reported.
//	op_p50_us      us     Median host latency per op.
//	op_p95_us      us     p95 host latency per op: the tail, taken where it is
//	                      steady. Writes are 10% of an andrew iteration and ReadDir
//	                      12.5% of the lookup stream, so p95 lies on their plateau.
//	                      p99 does not: on andrew-replicated it sits where the
//	                      write tail meets the snapshot ops (≈0.55% of ops, three
//	                      nodes) and moved from 300 to 520 µs between runs on a
//	                      quiet and a busy host; p99.9 sits on the snapshots.
//	allocs_per_op  count  MemStats.Mallocs delta ÷ ops.
//	heap_live_mb   MB     HeapAlloc after a forced GC, sampled at every slice
//	                      boundary and averaged: the WAL tail grows and folds
//	                      every 512 appends, so one sample would land anywhere
//	                      on that cycle.
//	success_ratio  ratio  Ops that returned no error and the reference result ÷
//	                      ops attempted; 0 when a correctness check fails. For the
//	                      soak, offered ops answered within their deadline ÷
//	                      offered, which is deterministic for a seed (≈0.39 at
//	                      seed 1991), and 0 when any pair of the run erred or
//	                      differed from the warm-up pair. It is 1 − failed_ratio,
//	                      reported this way round so that no metric is ever 0.
//
// The soak's ops are simulated inside one RunLoad call and cannot be
// timed from outside it, so each timed pair gives one cost sample: the
// process CPU time (getrusage) it took over its offered ops. A soak
// slice holds 3 to 6 pairs, so its p50 is a typical pair's batch cost
// per offered op and its p95 lies near its costliest pair's: batch
// costs, not a per-op tail. The sample is CPU time, not wall time,
// because this kernel accounts stolen time as steal
// (CONFIG_PARAVIRT_TIME_ACCOUNTING) and leaves it out of CPU time,
// while a half-second pair takes every burst of stolen time in full.
// Over twenty 25 s runs each, the soak's p50 rose 27% per tenth of the
// machine's CPU time stolen with wall-time samples and 15% with CPU-time
// samples, about as much as the closed-loop p50s (7–16%), which move
// only with the slowdown the other guests bring with them.
//
// Throughput (ops ÷ host seconds; for the soak, offered ops) and process
// CPU per op (getrusage user+system ÷ ops, GC on the other core
// included) are printed on the "not gated" line but are not end-to-end
// metrics. Both are means over every op, so they take in each burst of
// stolen time and each slowdown of the shared machine, and they spread
// too far between runs of the same code to gate on (see Noise). A
// closed-loop op lasts 3–200 µs, so a burst of stolen time lands on a
// handful of ops above p95 and misses the percentiles. The cost
// of the rare heavy ops that p95 does not reach, the WAL snapshots
// among them, is therefore in no gated metric: it shows in the traced
// run's bench.untraced_ops_per_s, runtime.cpu_us_per_op and fs.wal_*.
//
// # Correctness
//
// Every check that fails makes the run incorrect and counts all of its
// ops as failed.
//
//   - andrew-*: each op's result equals the monolithic reference's
//     (fsserver.NewDirect over fs.New(512) running the same stream; Stat
//     results without their inode numbers, which advance with every
//     iteration), and the final ServerFS().Fingerprint() equals the
//     reference's.
//     An iteration removes everything it makes, so the reference's state
//     after one iteration is the state after any number.
//   - andrew-replicated, additionally: every Cluster.NodeFingerprints()
//     entry equals it, and Cluster.Audit() returns nil.
//   - lookup-replicated: each Stat and ReadDir result equals Direct's.
//   - overload-soak: LoadResult.ReplayAccepted on a fresh Direct
//     reproduces Fingerprint, and every timed pair gives the same virtual
//     results as the warm-up pair; the first that does not fails the
//     run.
//   - All: the exact counts (fsserver.virtual_us_per_op among them) are
//     bit-identical across a run's set-ups, and across runs of the same
//     binary with the same seed: each run records them under
//     .bench_build/out/exact and compares with any earlier record.
//
// # Per-layer metrics (--trace 1), and what each should move
//
// The traced run first runs the workload untraced (the total the layer
// table sums to), then with a span around every Service call, then with
// an obs flight recorder attached through Remote.SetRecorder, then the
// layer probes: timed calls into each layer's public functions, fed the
// inputs the workload generates. It keeps its spans (name, start, end,
// parent, op identifier) in memory and writes them at exit to
// .bench_build/out/spans/<workload>-seed<n>.jsonl. Comparing
// bench.traced_ops_per_s with bench.untraced_ops_per_s gives the
// benchmark's own tracing overhead. A workload whose path does not
// cross a layer reports 0 for it.
//
// "Exact" marks a count that repeats bit for bit for a seed: it is
// taken over the warm-up iteration (or pair), or from a probe's fixed
// inputs, never over a timed loop, whose length depends on the host. A
// later claim may rest on an exact count only if it is marked here.
//
//	metric                               should move → on                    should not move on
//	fsserver.{stat,read,write,create}_p50_us  op_p50_us where the class is issued  —
//	fsserver.over_direct                 op_p50_us, all closed-loop          —
//	fsserver.payload_bytes_per_op (exact) —                                  all (an input property)
//	fsserver.virtual_us_per_op (exact)   nothing: it is the cost model       all host-only changes
//	fsserver.repl_ship_calls_per_op, repl_records_per_ship, repl_lag_ops (exact)
//	                                     op_p50_us, allocs_per_op on andrew-replicated
//	                                                                         andrew-single, lookup-replicated
//	fs.direct_op_us                      op_p50_us on andrew-*               lookup-replicated
//	fs.cache_hit_ratio (exact)           op_p50_us on andrew-*               lookup-replicated
//	fs.wal_append_us                     op_p50_us, op_p95_us on andrew-*    lookup-replicated
//	fs.wal_snapshot_ms, wal_snapshots_per_kop (exact), wal_snapshot_kb (exact)
//	                                     no gated metric (snapshots are 0.2–0.55% of ops, above p95);
//	                                     bench.untraced_ops_per_s, runtime.cpu_us_per_op on andrew-*
//	                                                                         lookup-replicated
//	fs.records_encode_us, records_decode_us, records_bytes (exact), wal_apply_shipped_us
//	                                     op_p50_us, allocs_per_op on andrew-replicated
//	                                                                         andrew-single, lookup-replicated
//	wire.raw_call_us                     op_p50_us on andrew-single          *-replicated
//	wire.boxed_call_us, failover_call_us op_p50_us, allocs_per_op on *-replicated
//	                                                                         andrew-single
//	wire.frame_codec_ns                  op_p50_us, all closed-loop          —
//	wire.retries_per_op, served_per_op (exact)  —                            all (a change is a behaviour change)
//	obs.emit_ns                          op_p50_us on overload-soak          closed-loop workloads
//	obs.recorder_slowdown, recorder_allocs_per_op
//	                                     op_p50_us on overload-soak          —
//	obs.trace_dropped_per_op (exact)     —                                   all
//	workload.goodput_ratio_*, executed_per_offered_*, retransmits_per_offered_*,
//	rejected_per_offered_on (exact)      op_p50_us on overload-soak          all others
//	runtime.cpu_us_per_op, gc_per_kop, alloc_bytes_per_op
//	                                     allocs_per_op, op_p95_us on andrew-replicated
//	                                                                         —
//
// How the probes measure: fs.direct_op_us replays the op stream on
// NewDirect; fs.wal_append_us is WAL.Append + FS.Apply + WAL.Commit per
// logged record (with the three steps as child spans), the snapshot
// policy applied off the clock; fs.wal_snapshot_ms and the exact
// fs.wal_snapshot_kb are WAL.Snapshot of the file system one pass of the
// stream leaves; fs.wal_snapshots_per_kop counts one node's snapshots
// per 1000 ops: on a cluster the primary's own count from fs.WALStats
// over the warm-up iteration, in whole snapshots (2 in the andrew
// warm-up, given where the populate leaves the 512-append cycle); on the
// single server, which exposes no Server to read, the policy
// (Server.SnapshotEvery) applied to the stream's logged ops;
// fs.records_* run fs.EncodeRecords and DecodeRecords on one shipped
// record, the records being those of the same single pass, so the exact
// fs.records_bytes does not depend on the host; fs.wal_apply_shipped_us
// is WAL.AppendShipped + FS.Apply per record on a fresh backup-side log;
// wire.*_call_us are null
// echo calls (Client.CallRaw to a RegisterRaw handler, Client.Call, and
// FailoverClient.Call over three endpoints) carrying the workload's mean
// argument size, and wire.frame_codec_ns is Encode + Decode of one such
// frame; obs.emit_ns is Recorder.Emit into NewFlightRecorder(…, 1<<15).
// The bench.* metrics describe the run itself: its untraced and traced
// throughput, the layer table's unattributed residual, and how many
// exact counts differ from an earlier same-seed run. The runtime.*
// metrics are taken over the untraced loop: process CPU per op, GC
// cycles and bytes allocated.
//
// For each closed-loop workload the traced run prints a table in the
// shape of the paper's Tables 3 and 4: the monolithic op, WAL
// Append+Commit, snapshots amortised over every node, the call path, and on the
// replicated path the ship codec and backup apply times the ships per
// op, each with the virtual µs the cost model charges beside the host
// µs. An explicit unattributed row makes the parts add up to the
// untraced mean op.
//
// # Noise
//
// An earlier design with these four workloads was too noisy to gate on,
// for three reasons, each avoided here by construction:
//
//   - Its soak latencies were means over whole RunLoad calls, so its p99
//     equalled its p99.9. Here the soak's latency samples are defined per
//     RunLoad call and documented as batch costs (above), and no
//     percentile claims a per-op tail the soak cannot show.
//   - Its op_p99.9 landed on the WAL-snapshot schedule and the GC tail.
//     Here the tail metric is p95, which lies on the write and ReadDir
//     plateaus, well clear of both, summarised over 30 slices; snapshot
//     cost is reported as its own layer metrics instead.
//   - Its set-up took about 50 ms and was timed once, and two medians of
//     the same code differed by 17%. Here every run sets up at least 5
//     times and until 2 s have gone on set-ups, each after a forced GC,
//     and reports the median.
//
// Steal is the noise that remains. On the 2-vCPU virtual machine these
// workloads were sized on, stretches of tens of seconds to minutes in
// which the hypervisor stole 5–60% of the machine's CPU time slowed
// every workload together, by up to 2×, and raised CPU time per op too.
// Where stolen time comes and goes slice by slice, ranking the slices by
// it and keeping the cleaner half helps; a run that is stolen from
// throughout cannot be corrected, and shows as such in the host line's
// steal_frac (stolen share of the machine's CPU time while it measured).
//
// The drift has no time scale that a longer run could average away. One
// 276 s run of andrew-replicated, cut into 0.25 s slices while the
// machine was busy, was summarised over windows of 10, 25 and 50 s; the
// spread (IQR ÷ median) between windows was 17–21%, 18–22% and 15–22%
// for throughput, 13–16%, 11–15% and 14% for CPU time per op, and
// 10–11%, 6–12% and 9% for the median op latency. Throughput tracked the
// stolen share (correlation −0.78 over 10 s windows). Two sets of ten
// 25 s runs of the same code spread 30–32% in throughput on
// andrew-replicated and 19–26% on lookup-replicated, and 25% in CPU time
// per op on andrew-replicated, while p50 and p95 stayed inside 25% on
// every workload. That is why throughput and CPU time per op are not
// end-to-end metrics. Over four later sets of ten 25 s runs, p50 and p95
// spread 4–22% (the soak most), and two sets of the same code never
// had medians more than 8% apart.
//
// A second drift steals almost nothing: for stretches of tens of
// minutes to hours the whole machine ran every workload about 2× faster
// or slower (andrew-replicated 20.6K or 9.2K ops/s, lookup-replicated
// 610K or 280K, the soak 140K or 61K), as other guests came and went.
// The host line's two loops show it: ref_loop_ms was about 50 on the
// quiet machine and 75–118 on the busy one, mem_loop_ms (dependent loads
// through 8 MB) about 30 and 45–95. No summary inside one run can remove
// a shift that outlasts it, so compare runs only with like host lines.
//
// # Out of scope
//
//   - A concurrent-client workload: concurrent CallRaw callers fail on a
//     clean link today, which would make success_ratio itself noisy.
//   - The paper-table simulators (cmd/machbench, cmd/sweep): they are not
//     on the file service's path.
package main
