package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"archos/internal/obs"
	"archos/internal/workload"
)

// runTraced is the per-layer run: an untraced loop (the total the layer
// table must sum to, and the baseline for tracing overhead), then the
// workload's traced phases and layer probes. Spans go to
// <outDir>/spans/<workload>-seed<seed>.jsonl.
func runTraced(out io.Writer, b bench, name string, seed int64, seconds float64, exact map[string]float64, outDir string) (*result, error) {
	tr := newTracer()
	m := map[string]float64{}
	for k, v := range exact {
		m[k] = v
	}
	untraced := timedLoop(untracedShare*seconds, slicesFor(b), b.step)
	m["bench.untraced_ops_per_s"] = untraced.opsPerSec()
	m["runtime.cpu_us_per_op"] = untraced.cpuUsPerOp()
	m["runtime.gc_per_kop"] = 1000 * float64(untraced.numGC) / float64(untraced.ops)
	m["runtime.alloc_bytes_per_op"] = float64(untraced.allocB) / float64(untraced.ops)
	probeBudget := time.Duration(probeShare * seconds * float64(time.Second))

	attempted, failed := untraced.ops, untraced.failed
	switch w := b.(type) {
	case *closedLoop:
		a, f := w.traced(tr, m, untraced, seconds)
		attempted, failed = attempted+a, failed+f
		w.layerTable(out, m, untraced, layerProbes(tr, m, w.pop, w.iter, true, probeBudget))
	case *soak:
		a, f := w.traced(tr, m, seconds)
		attempted, failed = attempted+a, failed+f
		layerProbes(tr, m, nil, w.mkdirScript(), false, probeBudget)
	}

	path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metricValue{m[lm.name], lm.unit}
	}
	return res, nil
}

// traced runs the closed loop with a span around every Service call,
// then again with a flight recorder attached to the arrangement.
func (c *closedLoop) traced(tr *tracer, m map[string]float64, untraced *loopStats, seconds float64) (attempted, failed int64) {
	var ids [numOpKinds]int32
	for k := range ids {
		ids[k] = tr.id("op." + opNames[k])
	}
	phase := tr.open("phase.traced", -1)
	var opID uint64
	limit := time.Duration(tracedShare * seconds * float64(time.Second))
	t0 := time.Now()
	for attempted == 0 || (time.Since(t0) < limit && attempted < maxTracedOps) {
		it := tr.open("iteration", phase)
		failed += c.iter.replay(c.svc, func(k opKind, start time.Time, ns int64) {
			opID++
			tr.add(ids[k], it, opID, start, ns)
		})
		tr.end(it)
		attempted += int64(len(c.iter.ops))
	}
	m["bench.traced_ops_per_s"] = float64(attempted) / time.Since(t0).Seconds()
	tr.end(phase)
	for _, k := range []opKind{opStat, opRead, opWrite, opCreate} {
		m["fsserver."+opNames[k]+"_p50_us"] = tr.durations("op."+opNames[k]).quantile(0.5) / 1e3
	}

	c.svc.SetRecorder(obs.NewFlightRecorder(c.clock(), 1<<15))
	withRec := timedLoop(recorderShare*seconds, sliceCount, c.step)
	c.svc.SetRecorder(nil)
	m["obs.recorder_slowdown"] = untraced.opsPerSec() / withRec.opsPerSec()
	m["obs.recorder_allocs_per_op"] = withRec.allocsPerOp() - untraced.allocsPerOp()
	return attempted + withRec.ops, failed + withRec.failed
}

// layerTable prints the host-time breakdown of one op in the shape of
// the paper's Tables 3 and 4 and records the residual.
func (c *closedLoop) layerTable(out io.Writer, m map[string]float64, untraced *loopStats, walLogUs float64) {
	meanUs := untraced.lat.meanNs() / 1e3
	m["fsserver.over_direct"] = meanUs / m["fs.direct_op_us"]
	loggedPerOp := float64(c.iter.loggedOps()) / float64(len(c.iter.ops))
	syscall := c.cm.SyscallMicros()
	virt := m["fsserver.virtual_us_per_op"]
	callName, call := "call path: Client.CallRaw", m["wire.raw_call_us"]
	if c.replicated {
		callName, call = "call path: FailoverClient.Call", m["wire.failover_call_us"]
	}
	rows := []layerRow{
		{"fs: op stream on NewDirect", m["fs.direct_op_us"], syscall},
		{"fs: WAL Append+Commit × logged/op", walLogUs * loggedPerOp, 0},
		{"fs: WAL Snapshot, amortised over nodes", float64(c.nodes()) * m["fs.wal_snapshots_per_kop"] * m["fs.wal_snapshot_ms"], 0},
		{callName, call, virt - syscall},
	}
	if c.replicated {
		ship := m["fs.records_encode_us"] + m["fs.records_decode_us"] + m["fs.wal_apply_shipped_us"]
		rows = append(rows, layerRow{"fsserver: ship encode+decode+apply × ships/op", ship * m["fsserver.repl_ship_calls_per_op"], 0})
	}
	m["bench.unattributed_us"] = printTable(out, fmt.Sprintf("per-layer host time, %s (%d ops per iteration, %.3f logged per op)", c.name, len(c.iter.ops), loggedPerOp), rows, meanUs, virt)
}

// traced times soak pairs with one span per RunLoad call.
func (s *soak) traced(tr *tracer, m map[string]float64, seconds float64) (attempted, failed int64) {
	phase := tr.open("phase.traced", -1)
	ids := [2]int32{tr.id("runload." + soakNames[0]), tr.id("runload." + soakNames[1])}
	limit := time.Duration(tracedShare * seconds * float64(time.Second))
	t0 := time.Now()
	for attempted == 0 || time.Since(t0) < limit {
		pair := tr.open("pair", phase)
		n, bad := s.pair(func(i int, _ *workload.LoadResult, start time.Time, ns int64) {
			tr.add(ids[i], pair, uint64(attempted)+1, start, ns)
		})
		tr.end(pair)
		attempted += n
		if bad {
			failed += n
		}
	}
	m["bench.traced_ops_per_s"] = float64(attempted) / time.Since(t0).Seconds()
	tr.end(phase)
	return attempted, failed
}

// mkdirScript is the soak's logged stream as the layer probes take it:
// one Mkdir per path the defended run accepted.
func (s *soak) mkdirScript() *script {
	sc := &script{}
	for _, p := range s.warm[1].AcceptedMkdirs {
		sc.ops = append(sc.ops, op{kind: opMkdir, path: p})
	}
	sc.fds = make([]int, len(sc.ops))
	return sc
}
