package main

import (
	"fmt"
	"slices"
	"time"

	"archos/internal/arch"
	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
	"archos/internal/workload"
)

// cacheBlocks is the block-cache size of every file system the
// benchmark builds, the live servers' and the monolithic reference's.
const cacheBlocks = 512

// localNet is the single-server arrangement's link: a local
// cross-address-space hop, as fsserver.NewRemote builds it.
var localNet = ipc.NetworkConfig{Name: "local", BandwidthMbps: 1e6}

// replicaConfig is the replicated arrangement: a primary and two
// backups, failover armed, no faults.
var replicaConfig = fsserver.ReplicaConfig{Backups: 2, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64}

func costModel() *kernel.CostModel { return kernel.NewCostModel(arch.R3000) }

// bench is one workload. setup builds the arrangement and its inputs
// from the seed and runs one untimed warm-up; step runs one unit of the
// timed loop; check verifies the end state; exact returns the counts
// that repeat bit-for-bit for a seed, taken over the warm-up.
type bench interface {
	setup(seed int64) error
	step(lat *latHist) (ops, failed int64)
	check() error
	exact() map[string]float64
}

// workloadNames lists the workloads in the order the documentation
// gives them.
var workloadNames = []string{"andrew-single", "andrew-replicated", "lookup-replicated", "overload-soak"}

func newBench(name string) (bench, error) {
	switch name {
	case "andrew-single":
		return &closedLoop{name: name}, nil
	case "andrew-replicated":
		return &closedLoop{name: name, replicated: true}, nil
	case "lookup-replicated":
		return &closedLoop{name: name, replicated: true, lookup: true}, nil
	case "overload-soak":
		return &soak{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// slicesFor is how many slices a timed loop of b is cut into.
func slicesFor(b bench) int {
	if _, ok := b.(*soak); ok {
		return soakSliceCount
	}
	return sliceCount
}

// ---- closed-loop workloads ----

// closedLoop drives one client, one op at a time, against the
// single-server or the replicated arrangement.
type closedLoop struct {
	name       string
	replicated bool
	lookup     bool

	cm        *kernel.CostModel
	pop, iter *script
	wantFP    string // the monolithic reference's fingerprint after pop + iter

	svc     *fsserver.Remote
	link    *wire.Link // single-server arrangement only
	cluster *fsserver.Cluster
	warm    counts // counter deltas over the warm-up iteration
}

// counts are the service's own counters at one instant.
type counts struct {
	ops, payload, retries, served, hits, misses int64
	virtual                                     float64
	shipCalls, shipRecords, lagOps, snapshots   int64
}

func (c *closedLoop) read() counts {
	st := c.svc.Stats()
	hits, misses := c.svc.ServerFS().CacheStats()
	k := counts{
		ops: st.Ops, payload: st.PayloadBytes, virtual: st.VirtualMicros,
		retries: int64(st.Wire.Retries), served: int64(st.Wire.Served),
		hits: hits, misses: misses,
	}
	if c.cluster != nil {
		cs := c.cluster.Stats()
		k.shipCalls, k.shipRecords, k.lagOps = int64(cs.ShipCalls), int64(cs.ShipRecords), int64(cs.LagOps)
		k.snapshots = int64(c.cluster.Primary().WALStats().Snapshots)
	}
	return k
}

func (a counts) sub(b counts) counts {
	return counts{
		ops: a.ops - b.ops, payload: a.payload - b.payload, virtual: a.virtual - b.virtual,
		retries: a.retries - b.retries, served: a.served - b.served,
		hits: a.hits - b.hits, misses: a.misses - b.misses,
		shipCalls: a.shipCalls - b.shipCalls, shipRecords: a.shipRecords - b.shipRecords,
		lagOps: a.lagOps - b.lagOps, snapshots: a.snapshots - b.snapshots,
	}
}

// inputs records the populate and iteration scripts on a monolithic
// reference and returns the reference's final fingerprint.
func (c *closedLoop) inputs(seed int64) error {
	rec := newScriptRecorder(fsserver.NewDirect(fs.New(cacheBlocks), c.cm))
	var err error
	if c.pop, err = populateScript(rec, seed); err != nil {
		return fmt.Errorf("record populate: %w", err)
	}
	if c.lookup {
		c.iter, err = lookupScript(rec, seed)
	} else {
		c.iter, err = andrewScript(rec, seed)
	}
	if err != nil {
		return fmt.Errorf("record %s stream: %w", c.name, err)
	}
	c.wantFP = rec.d.FS.Fingerprint()
	return nil
}

// build makes a fresh arrangement.
func (c *closedLoop) build() {
	if c.replicated {
		c.cluster = fsserver.NewCluster(cacheBlocks, c.cm, replicaConfig)
		c.svc = c.cluster.NewClient()
		return
	}
	c.link = wire.NewLink(localNet)
	c.svc = fsserver.NewRemoteOnLink(fs.New(cacheBlocks), c.cm, c.link)
}

func nopTimer(opKind, time.Time, int64) {}

func (c *closedLoop) setup(seed int64) error {
	c.cm = costModel()
	if err := c.inputs(seed); err != nil {
		return err
	}
	c.build()
	if n := c.pop.replay(c.svc, nopTimer); n > 0 {
		return fmt.Errorf("populate: %d ops failed", n)
	}
	before := c.read()
	if n := c.iter.replay(c.svc, nopTimer); n > 0 {
		return fmt.Errorf("warm-up iteration: %d ops failed", n)
	}
	c.warm = c.read().sub(before)
	return nil
}

func (c *closedLoop) step(lat *latHist) (ops, failed int64) {
	failed = c.iter.replay(c.svc, func(_ opKind, _ time.Time, ns int64) { lat.add(ns) })
	return int64(len(c.iter.ops)), failed
}

// check compares the live end state with the monolithic reference. An
// andrew iteration removes everything it creates and a lookup changes
// nothing, so the reference's state after one iteration is the state
// after any number of them.
func (c *closedLoop) check() error {
	fps := []string{c.svc.ServerFS().Fingerprint()}
	if c.cluster != nil {
		fps = c.cluster.NodeFingerprints() // the active node first
	}
	for i, fp := range fps {
		if fp != c.wantFP {
			return fmt.Errorf("%s: node %d fingerprint %.12s, monolithic reference %.12s", c.name, i, fp, c.wantFP)
		}
	}
	if c.cluster != nil {
		if err := c.cluster.Audit(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

// snapshotEvery is the servers' WAL snapshot policy, read off a server
// built with the defaults every arrangement here uses.
func snapshotEvery() int {
	return fsserver.NewServer(fs.New(1), wire.NewLink(localNet), wire.B).SnapshotEvery
}

// nodes is how many servers hold a copy of the file system.
func (c *closedLoop) nodes() int {
	if c.replicated {
		return 1 + replicaConfig.Backups
	}
	return 1
}

// snapshotsPerKop is how many WAL snapshots one node takes per 1000
// ops. On a cluster it is the primary's own count over the warm-up
// iteration (fs.WALStats through Cluster.Primary), in whole snapshots,
// so it depends on where the populate left the snapshot cycle. The
// single-server arrangement exposes no Server, so there it is the
// policy (Server.SnapshotEvery) applied to the stream's logged ops.
func (c *closedLoop) snapshotsPerKop() float64 {
	if c.cluster != nil {
		return 1000 * float64(c.warm.snapshots) / float64(c.warm.ops)
	}
	return 1000 * float64(c.iter.loggedOps()) / float64(len(c.iter.ops)) / float64(snapshotEvery())
}

func (c *closedLoop) exact() map[string]float64 {
	w := c.warm
	ops := float64(w.ops)
	snapKB, recBytes := passSizes(c.pop, c.iter)
	m := map[string]float64{
		"fsserver.payload_bytes_per_op":   float64(w.payload) / ops,
		"fsserver.virtual_us_per_op":      w.virtual / ops,
		"fsserver.repl_ship_calls_per_op": float64(w.shipCalls) / ops,
		"fsserver.repl_records_per_ship":  ratio(w.shipRecords, w.shipCalls),
		"fsserver.repl_lag_ops":           float64(w.lagOps),
		"fs.cache_hit_ratio":              ratio(w.hits, w.hits+w.misses),
		"fs.wal_snapshots_per_kop":        c.snapshotsPerKop(),
		"fs.wal_snapshot_kb":              snapKB,
		"fs.records_bytes":                recBytes,
		"wire.retries_per_op":             float64(w.retries) / ops,
		"wire.served_per_op":              float64(w.served) / ops,
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// clock is the virtual clock a recorder attached to this arrangement
// stamps events with.
func (c *closedLoop) clock() obs.Clock {
	if c.cluster != nil {
		return c.cluster.Clock()
	}
	return c.link
}

// ---- the open-loop soak ----

// soak runs workload.RunLoad's paired soak: the default configuration
// at the benchmark seed, undefended and then defended.
type soak struct {
	seed     int64
	warm     [2]*workload.LoadResult
	last     [2]*workload.LoadResult
	diverged error // the first timed pair whose virtual results differed from warm's
}

var (
	soakControls = [2]workload.LoadControls{workload.ControlsOff(), workload.ControlsOn()}
	soakNames    = [2]string{"ControlsOff", "ControlsOn"}
)

// runPair runs the pair, handing each RunLoad call's result, start and
// wall time to each.
func (s *soak) runPair(each func(i int, res *workload.LoadResult, start time.Time, ns int64)) ([2]*workload.LoadResult, error) {
	var p [2]*workload.LoadResult
	for i := range p {
		cfg := workload.DefaultLoadConfig()
		cfg.Seed = s.seed
		cfg.Controls = soakControls[i]
		t0 := time.Now()
		res, err := workload.RunLoad(cfg)
		if err != nil {
			return p, fmt.Errorf("overload-soak %s: %w", soakNames[i], err)
		}
		each(i, res, t0, time.Since(t0).Nanoseconds())
		p[i] = res
	}
	return p, nil
}

func offered(p [2]*workload.LoadResult) int64 { return int64(p[0].Offered + p[1].Offered) }

func (s *soak) setup(seed int64) error {
	s.seed = seed
	var err error
	if s.warm, err = s.runPair(func(int, *workload.LoadResult, time.Time, int64) {}); err != nil {
		return err
	}
	// The warm-up pair is kept for its counters only: its event dumps
	// would add to the heap every timed pair's GC must mark.
	for _, r := range s.warm {
		r.TraceTail, r.AnomalyDump = nil, nil
	}
	s.last = s.warm
	return nil
}

// pair runs one timed pair, handing each RunLoad call to each, and
// compares its virtual results with the warm-up pair's; the first pair
// that errs or differs is kept for check. It returns the pair's offered
// ops and whether they failed. The previous pair is dropped first, so
// its results are not live while this one runs.
func (s *soak) pair(each func(i int, res *workload.LoadResult, start time.Time, ns int64)) (n int64, bad bool) {
	s.last = [2]*workload.LoadResult{}
	p, err := s.runPair(each)
	if err == nil {
		s.last = p
		n = offered(p)
		err = sameVirtual(p, s.warm)
	}
	if err != nil && s.diverged == nil {
		s.diverged = err
	}
	return max(n, 1), err != nil
}

// step runs one timed pair. A RunLoad call is a batch simulation whose
// individual ops cannot be timed from outside, so each pair gives one
// cost sample: the process CPU time it took over its offered ops. CPU
// time, not wall time, because the kernel leaves time the hypervisor
// stole out of it: half a second of wall time takes in every burst of
// stolen time in full, where a closed-loop op of a few µs escapes them.
func (s *soak) step(lat *latHist) (ops, failed int64) {
	c0 := cpuNow()
	n, bad := s.pair(func(int, *workload.LoadResult, time.Time, int64) {})
	lat.add((cpuNow() - c0).Nanoseconds() / n)
	if bad {
		return n, n
	}
	return n, 0
}

// sameVirtual reports how a pair's virtual outcome differs from want's.
func sameVirtual(got, want [2]*workload.LoadResult) error {
	for i := range got {
		g, w := got[i], want[i]
		if g == nil {
			return fmt.Errorf("overload-soak: no %s result to compare", soakNames[i])
		}
		if g.Offered != w.Offered || g.Issued != w.Issued || g.Executed != w.Executed ||
			g.Goodput != w.Goodput || g.Failed != w.Failed || g.Rejected != w.Rejected ||
			g.Retransmits != w.Retransmits || g.ClockMicros != w.ClockMicros ||
			g.TraceDropped != w.TraceDropped || g.Fingerprint != w.Fingerprint ||
			!slices.Equal(g.AcceptedMkdirs, w.AcceptedMkdirs) {
			return fmt.Errorf("overload-soak: %s run differs from the warm-up run at the same seed", soakNames[i])
		}
	}
	return nil
}

// check replays each configuration's accepted mutations on a fresh
// monolithic arrangement and compares fingerprints, and requires every
// timed pair to have matched the warm-up pair.
func (s *soak) check() error {
	if s.diverged != nil {
		return s.diverged
	}
	for i, res := range s.warm {
		d := fsserver.NewDirect(fs.New(workload.DefaultLoadConfig().CacheBlocks), costModel())
		if err := res.ReplayAccepted(d.Mkdir); err != nil {
			return fmt.Errorf("overload-soak: %w", err)
		}
		if got := d.FS.Fingerprint(); got != res.Fingerprint {
			return fmt.Errorf("overload-soak: %s replay fingerprint %.12s, served %.12s", soakNames[i], got, res.Fingerprint)
		}
	}
	return sameVirtual(s.last, s.warm)
}

// goodput is the share of offered ops answered within their deadline,
// over both configurations of the pair.
func (s *soak) goodput() float64 {
	return float64(s.warm[0].Goodput+s.warm[1].Goodput) / float64(offered(s.warm))
}

func (s *soak) exact() map[string]float64 {
	off, on := s.warm[0], s.warm[1]
	n := float64(offered(s.warm))
	per := func(r *workload.LoadResult, v int) float64 { return float64(v) / float64(r.Offered) }
	snapKB, recBytes := passSizes(nil, s.mkdirScript())
	return map[string]float64{
		"fs.wal_snapshot_kb":                   snapKB,
		"fs.records_bytes":                     recBytes,
		"fsserver.virtual_us_per_op":           (off.ClockMicros + on.ClockMicros) / n,
		"wire.retries_per_op":                  float64(off.Retransmits+on.Retransmits) / n,
		"wire.served_per_op":                   float64(off.ServerStats.Served+on.ServerStats.Served) / n,
		"obs.trace_dropped_per_op":             float64(off.TraceDropped+on.TraceDropped) / n,
		"workload.goodput_ratio_off":           per(off, off.Goodput),
		"workload.goodput_ratio_on":            per(on, on.Goodput),
		"workload.executed_per_offered_off":    per(off, off.Executed),
		"workload.executed_per_offered_on":     per(on, on.Executed),
		"workload.retransmits_per_offered_off": per(off, off.Retransmits),
		"workload.retransmits_per_offered_on":  per(on, on.Retransmits),
		"workload.rejected_per_offered_on":     per(on, on.Rejected),
	}
}
