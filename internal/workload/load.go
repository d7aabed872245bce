package workload

// The open-loop load generator: a discrete-event simulation, on the
// wire's virtual clock, of up to a million independent sessions
// pressing metadata operations onto the real decomposed file service —
// real frames through the real codec, admission control, reply cache,
// and WAL, not a queueing model of them. "Open loop" is the property
// that matters for overload: arrivals are scheduled by the workload's
// own arrival process (bursty session activations over a diurnal ramp,
// with a configurable overload burst), not by completions, so a slow
// server does not slow its offered load — the regime where retry
// storms turn a transient burst into a metastable collapse.
//
// Each logical op is one RPC: a Mkdir (mutation) or Stat (read) on a
// Zipf-popular path. Sessions multiplex onto a bounded pool of wire
// client identities (a connection pool), one outstanding call per
// identity, so the server's per-client at-most-once window holds.
// Client behaviour mirrors wire.Client's discipline: an absolute
// deadline stamped into the frame header (when deadline propagation is
// on), jittered retransmission backoff, a shared retry budget, and —
// above the transport — the application-level re-issue: a user whose
// request failed presses the button again, with a fresh deadline and a
// fresh call ID. Re-issues are what dedup cannot absorb, and what
// sustains collapse when the server keeps executing work whose callers
// have already given up.
//
// Everything is seeded and single-threaded: same seed, same arrival
// schedule, same byte-identical result — and the arrival process draws
// from its own PRNG stream, so toggling the overload controls changes
// the service's behaviour under a load that is provably the same.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/obs"
)

// Flight-recorder sizing and anomaly thresholds. The ring holds the
// last flightRecorderCap events in bounded memory no matter how long
// the run — a million-session soak retains its tail, not its history —
// and the anomaly checks snapshot that tail the moment a closed curve
// window shows the service misbehaving, so the dump holds the events
// leading INTO the incident, not the quiet aftermath.
const (
	// flightRecorderCap is the ring size of the always-on recorder:
	// 32Ki events, a few MB, regardless of run length.
	flightRecorderCap = 1 << 15
	// shedStormThreshold flags a window in which the server shed at
	// least this many calls — the defended configuration's signature
	// under a burst.
	shedStormThreshold = 200
	// collapseMinOffered guards the goodput-collapse trigger: a window
	// must have offered at least this many fresh arrivals and completed
	// none of them in time. Quiet windows never trip it.
	collapseMinOffered = 50
)

// Anomaly is one tripped trigger: which rule fired, on which closed
// curve window, and the window's vital signs. The first anomaly of a
// run also snapshots the flight recorder's ring (LoadResult.AnomalyDump).
type Anomaly struct {
	Kind    string  `json:"kind"` // "shed_storm" | "goodput_collapse"
	Window  int     `json:"window"`
	TMicros float64 `json:"t_micros"`
	Offered int     `json:"offered"`
	Goodput int     `json:"goodput"`
	Shed    int     `json:"shed"`
}

// LoadControls selects which overload defences the run arms. The zero
// value is the undefended configuration: no deadline in the frame
// header, no server-side shedding, unlimited retransmissions.
type LoadControls struct {
	// PropagateDeadline stamps each call's absolute deadline into the
	// frame header, giving the server grounds to shed expired work.
	PropagateDeadline bool `json:"propagate_deadline"`
	// ShedExpired arms the server's deadline-aware admission check.
	ShedExpired bool `json:"shed_expired"`
	// RetryBudgetRatio funds retransmissions at this fraction of
	// completions (0 = unlimited retransmissions).
	RetryBudgetRatio float64 `json:"retry_budget_ratio"`
	// RetryBudgetBurst is the budget's bucket depth.
	RetryBudgetBurst int `json:"retry_budget_burst"`
}

// ControlsOn is the defended configuration: deadlines propagate, the
// server sheds expired work, and retransmissions are budgeted.
func ControlsOn() LoadControls {
	return LoadControls{
		PropagateDeadline: true,
		ShedExpired:       true,
		RetryBudgetRatio:  0.1,
		RetryBudgetBurst:  8,
	}
}

// ControlsOff is the undefended configuration.
func ControlsOff() LoadControls { return LoadControls{} }

// LoadConfig parameterises one open-loop run. All times are virtual
// microseconds; all rates are per virtual second.
type LoadConfig struct {
	Seed     int64 `json:"seed"`
	Sessions int   `json:"sessions"` // logical session identity space (up to 1e6)

	Paths         int     `json:"paths"`          // path universe size
	ZipfS         float64 `json:"zipf_s"`         // path popularity skew (>1)
	WriteFraction float64 `json:"write_fraction"` // fraction of ops that are Mkdir; rest Stat

	DurationMicros float64 `json:"duration_micros"`
	BaseRate       float64 `json:"base_rate"`   // offered ops/sec at the diurnal trough
	DiurnalAmp     float64 `json:"diurnal_amp"` // peak adds amp*base halfway through the run
	BurstFactor    float64 `json:"burst_factor"`
	BurstStart     float64 `json:"burst_start_micros"`
	BurstEnd       float64 `json:"burst_end_micros"`

	ParetoAlpha float64 `json:"pareto_alpha"` // session burst-size tail exponent
	BurstCap    int     `json:"burst_cap"`    // largest single session burst
	IntraGap    float64 `json:"intra_gap_micros"`

	ServiceMicros    float64 `json:"service_micros"` // per-executed-op charge; capacity = 1e6/this
	DeadlineMicros   float64 `json:"deadline_micros"`
	RetransmitMicros float64 `json:"retransmit_micros"`
	TransportRetries int     `json:"transport_retries"` // retransmissions per issue
	ReissueMax       int     `json:"reissue_max"`       // application-level re-issues per op
	ReissueDelay     float64 `json:"reissue_delay_micros"`
	MaxInFlight      int     `json:"max_in_flight"` // connection-pool size

	WindowMicros float64 `json:"window_micros"` // curve bucket width
	CacheBlocks  int     `json:"cache_blocks"`  // server file-system size

	Controls LoadControls `json:"controls"`
}

// DefaultLoadConfig sizes a run that collapses without the controls
// and recovers with them: capacity 10k ops/s (100 µs service charge),
// 60% baseline utilisation, and a 4× burst through the middle that
// outruns capacity long enough for every queued op to blow its 20 ms
// deadline.
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{
		Seed:     1991,
		Sessions: 100_000,

		Paths:         4096,
		ZipfS:         1.2,
		WriteFraction: 0.3,

		DurationMicros: 2_000_000,
		BaseRate:       6000,
		DiurnalAmp:     0.25,
		BurstFactor:    4,
		BurstStart:     500_000,
		BurstEnd:       800_000,

		ParetoAlpha: 1.5,
		BurstCap:    64,
		IntraGap:    200,

		ServiceMicros:    100,
		DeadlineMicros:   20_000,
		RetransmitMicros: 8_000,
		TransportRetries: 2,
		ReissueMax:       2,
		ReissueDelay:     10_000,
		MaxInFlight:      512,

		WindowMicros: 100_000,
		CacheBlocks:  512,

		Controls: ControlsOff(),
	}
}

// LoadPoint is one time bucket of the throughput-vs-latency curve.
type LoadPoint struct {
	TMicros   float64 `json:"t_micros"` // bucket start
	Offered   int     `json:"offered"`  // fresh arrivals scheduled in the bucket
	Done      int     `json:"done"`     // replies delivered in the bucket, any latency
	Goodput   int     `json:"goodput"`  // replies delivered within their deadline
	Failed    int     `json:"failed"`   // ops given up in the bucket
	Shed      int     `json:"shed"`     // reject frames seen in the bucket
	P99Micros float64 `json:"p99_micros"`
}

// LoadResult is one run's outcome: aggregate counters, the per-window
// curve, and the evidence needed to check the run against a monolithic
// replay.
type LoadResult struct {
	Curve []LoadPoint `json:"curve"`

	Offered         int `json:"offered"`  // fresh arrivals
	Reissues        int `json:"reissues"` // application-level re-issues
	Issued          int `json:"issued"`   // call frames for distinct (op, incarnation)
	Retransmits     int `json:"retransmits"`
	ClientDropped   int `json:"client_dropped"` // arrivals that found no free connection
	Executed        int `json:"executed"`       // op incarnations the server answered
	Goodput         int `json:"goodput"`        // answered within deadline
	Failed          int `json:"failed"`
	Rejected        int `json:"rejected"` // ops failed by a reject frame
	Timeouts        int `json:"timeouts"`
	BudgetDenied    int `json:"budget_denied"`
	SessionsTouched int `json:"sessions_touched"`

	CapacityPerSec float64 `json:"capacity_per_sec"`
	ClockMicros    float64 `json:"clock_micros"`

	// Fingerprint digests the server's final file-system state;
	// AcceptedMkdirs is the sorted set of directories whose creation the
	// service provably executed (a reply — success or name collision —
	// came back for a Mkdir on that path). Replaying the set on a fresh
	// monolithic arrangement must reproduce Fingerprint exactly: the
	// overload plane may refuse work, but everything it accepted took
	// effect exactly once.
	Fingerprint    string   `json:"fingerprint"`
	AcceptedMkdirs []string `json:"accepted_mkdirs"`

	ServerStats wire.Stats `json:"server_stats"`

	// Flight-recorder outcome: every anomaly trigger that fired, how
	// many events the bounded ring retained, and how many it overwrote.
	// The event dumps themselves are not part of the JSON result (they
	// are large); AnomalyDump is the ring as of the first trigger,
	// TraceTail the ring at end of run.
	Anomalies     []Anomaly `json:"anomalies,omitempty"`
	TraceRetained int       `json:"trace_retained"`
	TraceDropped  uint64    `json:"trace_dropped"`

	AnomalyDump []obs.Event `json:"-"`
	TraceTail   []obs.Event `json:"-"`
}

// ReplayAccepted re-runs every accepted mutation against mkdir — a
// fresh monolithic service, typically — so the caller can compare
// fingerprints. The load paths are single-component siblings, so the
// set replays order-independently; any error is a real divergence.
func (r *LoadResult) ReplayAccepted(mkdir func(string) error) error {
	for _, p := range r.AcceptedMkdirs {
		if err := mkdir(p); err != nil {
			return fmt.Errorf("replay of accepted mkdir %s: %w", p, err)
		}
	}
	return nil
}

// op states.
const (
	opInFlight = iota + 1
	opDone
	opFailed
)

// pending is one transmission waiting in the NIC queue: what its frame
// is sealed from when served, taken at the send so that a copy queued
// before a re-issue keeps its old call ID and deadline stamp, and its
// enqueue time, so the serve chain can attribute the FIFO wait.
type pending struct {
	ci     int
	client uint32
	call   uint32
	proc   uint32
	expiry uint32
	path   uint32 // Zipf rank
	enq    float64
}

// flight is one incarnation's transport record: which op and which of
// its incarnations the call ID belongs to, and how many responses the
// incarnation is still owed. Late responses to an abandoned
// incarnation route here and prove execution without being allowed to
// complete the op's current incarnation. Records live by value in
// loadRun.flights, keyed by the call's (client, call) identity.
type flight struct {
	op   uint32 // index of the op record (loadRun.op)
	gen  int
	sent int // transmissions of this incarnation
	seen int // responses drained for it
}

// lop is one logical operation (and its re-issued incarnations).
type lop struct {
	proc uint32
	path uint32 // Zipf rank

	arrival  float64 // this incarnation's scheduled issue time
	deadline float64

	state    int
	gen      int // incarnation counter; stale timers check it
	conn     int // pool index, -1 when not holding a connection
	callID   uint32
	attempts int
	backoff  float64
	reissues int
	answered bool // some incarnation got a reply (op executed)
}

// event kinds.
const (
	evActivate = iota
	evArrive
	evRetx
	evTimeout
	evServe
)

// levent is one scheduled event. It names its op by index rather than
// by pointer, so the heap holds no pointers: sifting it moves plain
// words, with no GC write barrier, and the collector never scans it.
type levent struct {
	t    float64
	seq  int // tie-break, preserving scheduling order
	gen  int
	op   uint32 // index of the op record (loadRun.op)
	kind uint8
}

// before orders events by time, then by scheduling order. seq is unique
// per run, so the order is total: every correct heap pops one sequence.
func (e *levent) before(o *levent) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events in before order, sifted in
// place over its own slice: no boxing, so pushing and popping an event
// allocates nothing once the slice has grown to the run's peak.
type eventHeap []levent

// push adds e, moving it up past every parent it precedes.
func (h *eventHeap) push(e levent) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest event: the last event takes the
// root's place and moves down past every child that precedes it.
func (h *eventHeap) pop() levent {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if d := c + 1; d < n && q[d].before(&q[c]) {
				c = d
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// loadRun is the live state of one simulation.
type loadRun struct {
	cfg     LoadConfig
	link    *wire.Link
	srv     *fsserver.Server
	budget  *wire.RetryBudget
	rec     *obs.Recorder // always-on bounded flight recorder
	curWin  int           // first curve window not yet closed by the clock
	anomaly string        // kind of the ongoing incident, "" when healthy

	// arrive drives the arrival process, behave everything the client
	// does about failures — separate streams so the offered load is
	// byte-identical across control settings.
	arrive *rand.Rand
	behave *rand.Rand
	zipf   *rand.Zipf
	paths  []loadPath // Zipf rank -> interned path

	events eventHeap
	seq    int
	slabs  [][]lop // op records, opSlab to a slab, never reused
	nops   int     // op records handed out
	frame  []byte  // the serve chain's sealing buffer

	connID  []uint32 // pool index -> wire client ID
	nextCID []uint32 // pool index -> next call ID
	free    []int
	flights map[uint64]flight
	drainQ  []int // pool indexes with responses owed this round
	inDrain []bool

	// sendQ is the NIC queue between the clients and the server: frames
	// wait here and a chain of serve events feeds them to the server one
	// at a time, each charged at the service rate — so client timers
	// genuinely race server completions on the shared clock, instead of
	// every call resolving in the instant it was issued.
	sendQ    []pending
	sendHead int
	serving  bool

	touched []bool
	nTouch  int

	accepted map[string]bool

	res  *LoadResult
	lats [][]float64 // per-window completion latencies
}

// loadPath is one interned Zipf path: its name and its encoded call
// payload (the Stat and Mkdir argument both), shared by every op that
// draws it.
type loadPath struct {
	name    string
	payload []byte
}

// internPaths interns the path of every Zipf rank below n: the names in
// one string and the call payloads in one byte arena.
func internPaths(n int) []loadPath {
	var name [24]byte
	var all strings.Builder
	all.Grow(n * len("/z00000")) // exact for up to 100,000 ranks
	for z := range n {
		all.Write(appendName(name[:0], z))
	}
	names := all.String()
	paths := make([]loadPath, n)
	// A payload is its name behind a string's tag and length.
	arena := make([]byte, 0, len(names)+n*len(wire.AppendString(name[:0], "")))
	for z := range paths {
		w, at := len(appendName(name[:0], z)), len(arena)
		arena = wire.AppendString(arena, names[:w])
		paths[z] = loadPath{name: names[:w], payload: arena[at:]}
		names = names[w:]
	}
	return paths
}

// appendName appends Zipf rank z's path name to dst: "/z" and the rank,
// zero-padded to five digits.
func appendName(dst []byte, z int) []byte {
	dst = append(dst, "/z"...)
	for p := 10000; p > 1 && z < p; p /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(z), 10)
}

// Validate reports the first field of c that RunLoad cannot run with,
// or nil. Every rate and time must be finite: a NaN slips past an
// ordering check, and an infinite one schedules the next arrival at
// +Inf. The arrival process needs a positive rate at every instant
// (BurstFactor > 0, DiurnalAmp > −1) and bursts of at least one op, and
// no delay may schedule an event before the clock.
func (c LoadConfig) Validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	above := func(v, lo float64) bool { return v > lo && finite(v) }
	atLeast := func(v, lo float64) bool { return v >= lo && finite(v) }
	for _, f := range []struct {
		name string
		v    float64
		ok   bool
		want string
	}{
		{"Sessions", float64(c.Sessions), c.Sessions >= 1, "≥ 1"},
		{"Paths", float64(c.Paths), c.Paths >= 2, "≥ 2"},
		{"ZipfS", c.ZipfS, above(c.ZipfS, 1), "finite and > 1"},
		{"WriteFraction", c.WriteFraction, atLeast(c.WriteFraction, 0) && c.WriteFraction <= 1, "within [0, 1]"},
		{"DurationMicros", c.DurationMicros, above(c.DurationMicros, 0), "finite and > 0"},
		{"BaseRate", c.BaseRate, above(c.BaseRate, 0), "finite and > 0"},
		{"DiurnalAmp", c.DiurnalAmp, above(c.DiurnalAmp, -1), "finite and > −1"},
		{"BurstFactor", c.BurstFactor, above(c.BurstFactor, 0), "finite and > 0"},
		{"BurstStart", c.BurstStart, finite(c.BurstStart), "finite"},
		{"BurstEnd", c.BurstEnd, finite(c.BurstEnd), "finite"},
		{"ParetoAlpha", c.ParetoAlpha, above(c.ParetoAlpha, 1), "finite and > 1"},
		{"BurstCap", float64(c.BurstCap), c.BurstCap >= 1, "≥ 1"},
		{"IntraGap", c.IntraGap, atLeast(c.IntraGap, 0), "finite and ≥ 0"},
		{"ServiceMicros", c.ServiceMicros, above(c.ServiceMicros, 0), "finite and > 0"},
		{"DeadlineMicros", c.DeadlineMicros, above(c.DeadlineMicros, 0), "finite and > 0"},
		{"RetransmitMicros", c.RetransmitMicros, above(c.RetransmitMicros, 0), "finite and > 0"},
		{"TransportRetries", float64(c.TransportRetries), c.TransportRetries >= 0, "≥ 0"},
		{"ReissueMax", float64(c.ReissueMax), c.ReissueMax >= 0, "≥ 0"},
		{"ReissueDelay", c.ReissueDelay, atLeast(c.ReissueDelay, 0), "finite and ≥ 0"},
		{"MaxInFlight", float64(c.MaxInFlight), c.MaxInFlight >= 1, "≥ 1"},
		{"WindowMicros", c.WindowMicros, above(c.WindowMicros, 0), "finite and > 0"},
	} {
		if !f.ok {
			return fmt.Errorf("workload: %s = %g, want %s", f.name, f.v, f.want)
		}
	}
	return nil
}

// RunLoad executes one open-loop run and returns its result. Same
// config, same result, bit for bit.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	r := &loadRun{
		cfg: cfg,
		// The wire itself is effectively free (a fat local link):
		// capacity comes from the service charge alone, so the
		// collapse-vs-recovery comparison is about scheduling, not
		// bandwidth.
		link:     wire.NewLink(ipc.NetworkConfig{Name: "load", BandwidthMbps: 1e6}),
		arrive:   rand.New(rand.NewSource(cfg.Seed)),
		behave:   rand.New(rand.NewSource(cfg.Seed ^ 0x6c6f6164)), // "load"
		paths:    internPaths(cfg.Paths),
		flights:  map[uint64]flight{},
		touched:  make([]bool, cfg.Sessions),
		accepted: map[string]bool{},
		res:      &LoadResult{CapacityPerSec: 1e6 / cfg.ServiceMicros},
	}
	r.zipf = rand.NewZipf(r.arrive, cfg.ZipfS, 1, uint64(cfg.Paths-1))

	// The flight recorder is always on: a preallocated ring of the last
	// flightRecorderCap events, shared by the link, the server, and the
	// generator's own client-side emissions. Recording never touches the
	// clock or either PRNG stream, so the run is byte-identical to an
	// unrecorded one.
	r.rec = obs.NewFlightRecorder(r.link, flightRecorderCap)
	r.link.SetRecorder(r.rec)

	fsys := fs.New(cfg.CacheBlocks)
	r.srv = fsserver.NewServer(fsys, r.link, wire.B)
	r.srv.Wire.SetServiceCharge(cfg.ServiceMicros)
	r.srv.Wire.SetShedExpired(cfg.Controls.ShedExpired)
	// Every pool identity must stay inside the at-most-once window for
	// the whole run — eviction would re-execute a retransmission.
	r.srv.Wire.ConfigureReplyCache(cfg.MaxInFlight + 64)
	if cfg.Controls.RetryBudgetRatio > 0 {
		r.budget = wire.NewRetryBudget(cfg.Controls.RetryBudgetRatio, float64(cfg.Controls.RetryBudgetBurst))
		r.budget.SetRecorder(r.rec)
	}

	r.connID = make([]uint32, cfg.MaxInFlight)
	r.nextCID = make([]uint32, cfg.MaxInFlight)
	r.inDrain = make([]bool, cfg.MaxInFlight)
	r.free = make([]int, 0, cfg.MaxInFlight)
	for i := 0; i < cfg.MaxInFlight; i++ {
		// NewClient registers the identity with the link's reply router;
		// the pool drives the protocol itself and keeps only the ID.
		r.connID[i] = wire.NewClient(r.link, wire.A).ClientID
		r.free = append(r.free, i)
	}

	r.push(levent{t: 0, kind: evActivate})
	for len(r.events) > 0 {
		e := r.events.pop()
		if now := r.link.Clock(); now < e.t {
			r.link.AdvanceClock(e.t - now)
		}
		switch e.kind {
		case evActivate:
			r.activate(e.t)
		case evArrive:
			r.issue(e.op)
		case evRetx:
			r.retx(e.op, e.gen)
		case evTimeout:
			r.timeout(e.op, e.gen)
		case evServe:
			r.serve()
		}
		r.closeWindows()
	}
	// Belt and braces: one final poll and a sweep of every pool queue.
	// The serve chain answered every transmission before the heap could
	// empty, so this finds nothing — unless the protocol grew a leak.
	r.srv.Wire.Poll()
	for i := range r.connID {
		r.queueDrain(i)
	}
	r.drain()

	r.finish()
	return r.res, nil
}

// rate is the offered-load intensity at virtual time t: the diurnal
// ramp (trough at the endpoints, peak mid-run) times the burst window.
func (r *loadRun) rate(t float64) float64 {
	c := r.cfg
	v := c.BaseRate * (1 + c.DiurnalAmp*0.5*(1-math.Cos(2*math.Pi*t/c.DurationMicros)))
	if t >= c.BurstStart && t < c.BurstEnd {
		v *= c.BurstFactor
	}
	return v
}

// activate fires one session: it wakes, issues a heavy-tailed burst of
// ops, and the process schedules its next activation so the op rate
// tracks rate(t).
func (r *loadRun) activate(t float64) {
	c := r.cfg
	if t < c.DurationMicros {
		session := r.arrive.Intn(c.Sessions)
		if !r.touched[session] {
			r.touched[session] = true
			r.nTouch++
		}
		k := r.burstSize()
		for i := 0; i < k; i++ {
			arrival := t + float64(i)*c.IntraGap
			if arrival >= c.DurationMicros {
				break
			}
			proc := fsserver.ProcStat
			if r.arrive.Float64() < c.WriteFraction {
				proc = fsserver.ProcMkdir
			}
			id := r.newOp()
			*r.op(id) = lop{
				proc:     proc,
				path:     uint32(r.zipf.Uint64()),
				arrival:  arrival,
				deadline: arrival + c.DeadlineMicros,
				conn:     -1,
			}
			r.res.Offered++
			r.point(arrival).Offered++
			r.push(levent{t: arrival, kind: evArrive, op: id})
		}
		// Mean burst size of the (uncapped) Pareto, so activations are
		// paced to deliver rate(t) ops per second.
		meanBurst := c.ParetoAlpha / (c.ParetoAlpha - 1)
		r.push(levent{t: t + r.arrive.ExpFloat64()*meanBurst*1e6/r.rate(t), kind: evActivate})
	}
}

// opSlab is how many op records one allocation holds.
const opSlab = 1024

// newOp hands out the next op record and returns its index. Records
// come opSlab to an allocation and are never reused: a stale timer's
// op stays valid, and its gen check retires it.
func (r *loadRun) newOp() uint32 {
	if r.nops%opSlab == 0 {
		r.slabs = append(r.slabs, make([]lop, opSlab))
	}
	r.nops++
	return uint32(r.nops - 1)
}

// op returns the op record with index id.
func (r *loadRun) op(id uint32) *lop {
	return &r.slabs[id/opSlab][id%opSlab]
}

// burstSize draws a Pareto(1, alpha) burst, capped.
func (r *loadRun) burstSize() int {
	u := r.arrive.Float64()
	if u == 0 {
		return r.cfg.BurstCap
	}
	k := int(math.Pow(u, -1/r.cfg.ParetoAlpha))
	if k < 1 {
		k = 1
	}
	if k > r.cfg.BurstCap {
		k = r.cfg.BurstCap
	}
	return k
}

// issue places one incarnation of an op onto the wire: grab a
// connection and a call ID, transmit, and arm the retransmission and
// deadline timers.
func (r *loadRun) issue(id uint32) {
	op := r.op(id)
	now := r.link.Clock()
	if len(r.free) == 0 {
		r.res.ClientDropped++
		r.rec.Emit(obs.Event{Layer: "client", Name: "drop_local",
			Val: float64(r.res.ClientDropped)})
		r.fail(id, now, false)
		return
	}
	ci := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.nextCID[ci]++

	op.conn = ci
	op.callID = r.nextCID[ci]
	op.state = opInFlight
	r.rec.Emit(obs.Event{Layer: "client", Name: "call_start",
		Client: r.connID[ci], Call: op.callID, Proc: op.proc})
	op.attempts = 1
	op.backoff = r.cfg.RetransmitMicros
	r.flights[flightKey(r.connID[ci], op.callID)] = flight{op: id, gen: op.gen}
	r.send(op)
	r.res.Issued++
	r.push(levent{t: now + op.backoff*(0.5+r.behave.Float64()), kind: evRetx, op: id, gen: op.gen})
	r.push(levent{t: op.deadline, kind: evTimeout, op: id, gen: op.gen})
}

// send enqueues one transmission of the op's current incarnation on
// the NIC queue (its deadline stamped if propagation is on), counts it
// against the incarnation's flight record, and kicks the serve chain if
// the server is idle.
func (r *loadRun) send(op *lop) {
	key := flightKey(r.connID[op.conn], op.callID)
	fl := r.flights[key]
	fl.sent++
	r.flights[key] = fl
	var expiry uint32
	if r.cfg.Controls.PropagateDeadline {
		expiry = wire.ExpiryStamp(op.deadline)
	}
	r.sendQ = append(r.sendQ, pending{
		ci: op.conn, client: r.connID[op.conn], call: op.callID,
		proc: op.proc, expiry: expiry, path: op.path,
		enq: r.link.Clock(),
	})
	if !r.serving {
		r.serving = true
		r.push(levent{t: r.link.Clock(), kind: evServe})
	}
}

// serve seals exactly one queued transmission into the run's sealing
// buffer (the link copies it in flight) and feeds it to the server. The
// server executes it (charging the service time to the shared clock),
// sheds it, or answers it from the reply cache; the response drains in
// the same round. A non-empty queue schedules the next serve at the new
// clock, so the server works the backlog serially at the service rate
// — the FIFO queueing delay every overload mechanism here is about.
//
// A served slot is cleared at once, and the queue slides its live
// entries to the front once the served prefix is at least half of it,
// so a collapse backlog does not regrow the queue.
func (r *loadRun) serve() {
	if r.sendHead >= len(r.sendQ) {
		r.serving = false
		return
	}
	p := r.sendQ[r.sendHead]
	r.sendQ[r.sendHead] = pending{}
	r.sendHead++
	if 2*r.sendHead >= len(r.sendQ) {
		n := copy(r.sendQ, r.sendQ[r.sendHead:])
		clear(r.sendQ[n:])
		r.sendQ = r.sendQ[:n]
		r.sendHead = 0
	}
	if r.rec.Enabled() {
		now := r.link.Clock()
		r.rec.EmitAt(obs.Event{T: now, Layer: "queue", Name: "wait",
			Client: p.client, Call: p.call,
			Dur: now - p.enq, Val: float64(len(r.sendQ) - r.sendHead)})
	}
	frame, err := wire.AppendEncode(r.frame[:0], wire.Header{Kind: wire.KindCall,
		CallID: p.call, ProcID: p.proc, ClientID: p.client, Expiry: p.expiry}, r.paths[p.path].payload)
	if err != nil {
		panic(err) // bounded payload over our own codec: cannot fail
	}
	r.frame = frame
	r.link.Send(wire.A, frame)
	r.srv.Wire.Poll()
	r.queueDrain(p.ci)
	r.drain()
	if r.sendHead < len(r.sendQ) {
		r.push(levent{t: r.link.Clock(), kind: evServe})
	} else {
		r.serving = false
	}
}

func (r *loadRun) queueDrain(ci int) {
	if !r.inDrain[ci] {
		r.inDrain[ci] = true
		r.drainQ = append(r.drainQ, ci)
	}
}

// retx fires the retransmission timer for one incarnation. It only
// ever retransmits: the same frame, same call ID, same stamped
// deadline — the transport never forges a fresh deadline for stale
// work — and when the retries or the budget run out it simply stops
// sending copies. Giving up belongs to the deadline timer alone: a
// caller waits out its full patience before pressing the button again.
func (r *loadRun) retx(id uint32, gen int) {
	op := r.op(id)
	if op.state != opInFlight || op.gen != gen {
		return
	}
	now := r.link.Clock()
	if now >= op.deadline || op.attempts > r.cfg.TransportRetries {
		return
	}
	if r.budget != nil && !r.budget.Spend() {
		r.res.BudgetDenied++
		return
	}
	op.attempts++
	r.res.Retransmits++
	r.rec.Emit(obs.Event{Layer: "client", Name: "retransmit",
		Client: r.connID[op.conn], Call: op.callID, Proc: op.proc,
		Val: float64(op.attempts)})
	r.send(op)
	if op.backoff *= 2; op.backoff > 4*r.cfg.RetransmitMicros {
		op.backoff = 4 * r.cfg.RetransmitMicros
	}
	r.push(levent{t: now + op.backoff*(0.5+r.behave.Float64()), kind: evRetx, op: id, gen: gen})
}

// timeout fires at the incarnation's deadline: if no response settled
// the op by then, the caller gives up — and, re-issues permitting,
// presses the button again.
func (r *loadRun) timeout(id uint32, gen int) {
	if op := r.op(id); op.state != opInFlight || op.gen != gen {
		return
	}
	r.res.Timeouts++
	r.fail(id, r.link.Clock(), false)
}

// fail ends one incarnation: release the connection, score the
// failure, and — sessions being sessions — schedule the re-issue if
// the op has presses left. The re-issue is a fresh call: new call ID,
// new deadline, a fresh draw on the service.
func (r *loadRun) fail(id uint32, now float64, rejected bool) {
	op := r.op(id)
	op.state = opFailed
	r.res.Failed++
	r.point(now).Failed++
	status := "status=timeout"
	if rejected {
		r.res.Rejected++
		status = "status=rejected"
	}
	if op.conn >= 0 {
		r.rec.Emit(obs.Event{Layer: "client", Name: "call_end",
			Client: r.connID[op.conn], Call: op.callID, Proc: op.proc,
			Attrs: status})
	}
	r.release(op)
	if op.reissues < r.cfg.ReissueMax {
		op.reissues++
		op.gen++
		r.res.Reissues++
		op.arrival = now + r.cfg.ReissueDelay*(0.5+r.behave.Float64())
		op.deadline = op.arrival + r.cfg.DeadlineMicros
		r.push(levent{t: op.arrival, kind: evArrive, op: id})
	}
}

func (r *loadRun) release(op *lop) {
	if op.conn >= 0 {
		r.free = append(r.free, op.conn)
		op.conn = -1
	}
}

// drain routes every response delivered this round to its op. Replies
// — success or remote error — prove execution and earn the budget;
// rejects prove the opposite. Only the header is read, so every frame
// goes back to the stack's free list as it is received.
func (r *loadRun) drain() {
	for len(r.drainQ) > 0 {
		ci := r.drainQ[len(r.drainQ)-1]
		r.drainQ = r.drainQ[:len(r.drainQ)-1]
		r.inDrain[ci] = false
		for {
			h, err := r.link.RecvClientHeader(wire.A, r.connID[ci])
			if errors.Is(err, wire.ErrEmpty) {
				break
			}
			if err != nil {
				continue // damaged; clean link: unreachable
			}
			key := flightKey(h.ClientID, h.CallID)
			fl, ok := r.flights[key]
			if !ok {
				continue
			}
			fl.seen++
			op := r.op(fl.op)
			live := fl.gen == op.gen && op.state == opInFlight
			now := r.link.Clock()
			switch h.Kind {
			case wire.KindReply:
				if r.budget != nil {
					r.budget.Earn()
				}
				if !op.answered {
					op.answered = true
					r.res.Executed++
					if op.proc == fsserver.ProcMkdir {
						r.accepted[r.paths[op.path].name] = true
					}
				}
				if live {
					op.state = opDone
					r.release(op)
					lat := now - op.arrival
					p := r.point(now)
					p.Done++
					attrs := "status=late"
					if now <= op.deadline {
						p.Goodput++
						r.res.Goodput++
						attrs = "status=ok"
					}
					r.rec.Emit(obs.Event{Layer: "client", Name: "call_end",
						Client: h.ClientID, Call: h.CallID, Proc: op.proc,
						Dur: lat, Attrs: attrs})
					idx := r.winIdx(now)
					r.lats[idx] = append(r.lats[idx], lat)
				}
			case wire.KindReject:
				r.point(now).Shed++
				if live {
					r.fail(fl.op, now, true)
				}
			}
			if fl.seen == fl.sent && (fl.gen != op.gen || op.state != opInFlight) {
				delete(r.flights, key)
			} else {
				r.flights[key] = fl
			}
		}
	}
}

// closeWindows fires the anomaly checks for every curve window the
// virtual clock has fully passed. A window's counters are final once
// the clock crosses its end (completions, sheds, and failures land at
// the current clock; arrivals are never scheduled into the past), so
// a closed window is safe to judge.
func (r *loadRun) closeWindows() {
	w := int(r.link.Clock() / r.cfg.WindowMicros)
	for r.curWin < w {
		r.checkAnomaly(r.curWin)
		r.curWin++
	}
}

// checkAnomaly judges one closed window against the trigger rules. An
// incident is logged at its ONSET — the first triggering window after a
// healthy one — not once per window it persists, so a two-second
// collapse is one anomaly, not fourteen. The first trigger of the run
// also snapshots the flight recorder's ring — the events leading into
// the incident — before the drain tail scrolls them away.
func (r *loadRun) checkAnomaly(idx int) {
	if idx >= len(r.res.Curve) {
		return
	}
	p := r.res.Curve[idx]
	var kind string
	switch {
	case p.Shed >= shedStormThreshold:
		kind = "shed_storm"
	case p.Offered >= collapseMinOffered && p.Goodput == 0:
		kind = "goodput_collapse"
	default:
		r.anomaly = ""
		return
	}
	if kind == r.anomaly {
		return // the incident logged at its onset is still running
	}
	r.anomaly = kind
	r.rec.Emit(obs.Event{Layer: "anomaly", Name: kind,
		Dur: r.cfg.WindowMicros, Val: float64(idx)})
	r.res.Anomalies = append(r.res.Anomalies, Anomaly{
		Kind:    kind,
		Window:  idx,
		TMicros: p.TMicros,
		Offered: p.Offered,
		Goodput: p.Goodput,
		Shed:    p.Shed,
	})
	if r.res.AnomalyDump == nil {
		r.res.AnomalyDump = r.rec.Events()
	}
}

// finish assembles the result.
func (r *loadRun) finish() {
	res := r.res
	res.SessionsTouched = r.nTouch
	res.ClockMicros = r.link.Clock()
	res.ServerStats = r.srv.Wire.Stats()
	res.Fingerprint = r.srv.CurrentFS().Fingerprint()
	res.AcceptedMkdirs = make([]string, 0, len(r.accepted))
	for p := range r.accepted {
		res.AcceptedMkdirs = append(res.AcceptedMkdirs, p)
	}
	sort.Strings(res.AcceptedMkdirs)
	for i := range res.Curve {
		res.Curve[i].P99Micros = p99(r.lats[i])
	}
	res.TraceRetained = r.rec.EventCount()
	res.TraceDropped = r.rec.Dropped()
	res.TraceTail = r.rec.TakeEvents()
}

// p99 is the 99th-percentile of one window's completion latencies.
func p99(lats []float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]float64(nil), lats...)
	sort.Float64s(s)
	return s[(len(s)*99)/100]
}

func (r *loadRun) push(e levent) {
	e.seq = r.seq
	r.seq++
	r.events.push(e)
}

// winIdx returns the curve bucket for time t, growing the curve as the
// drain tail runs past the configured duration.
func (r *loadRun) winIdx(t float64) int {
	idx := int(t / r.cfg.WindowMicros)
	if idx < 0 {
		idx = 0
	}
	for len(r.res.Curve) <= idx {
		r.res.Curve = append(r.res.Curve, LoadPoint{
			TMicros: float64(len(r.res.Curve)) * r.cfg.WindowMicros,
		})
		r.lats = append(r.lats, nil)
	}
	return idx
}

func (r *loadRun) point(t float64) *LoadPoint {
	return &r.res.Curve[r.winIdx(t)]
}

func flightKey(clientID, callID uint32) uint64 {
	return uint64(clientID)<<32 | uint64(callID)
}
