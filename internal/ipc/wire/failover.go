package wire

import (
	"errors"
	"strconv"

	"archos/internal/obs"
)

// EpochFence is the highest server epoch a logical caller has observed
// across every endpoint it spans. Replies below the fence are stale by
// construction — they were produced by a server incarnation that has
// since been superseded (restarted, or deposed by a promoted backup) —
// and must never be surfaced to the caller.
type EpochFence struct {
	max uint32
}

// Admit checks epoch e against the fence: an epoch at or above the
// fence raises it and is admitted; an older epoch is rejected.
func (f *EpochFence) Admit(e uint32) bool {
	if e < f.max {
		return false
	}
	f.max = e
	return true
}

// Max returns the highest epoch observed so far.
func (f *EpochFence) Max() uint32 {
	return f.max
}

// FailoverClient presents a set of replica endpoints — one (client,
// server) pair per link — as a single logical service. All underlying
// clients share one ClientID, one call-ID sequence, and one epoch
// fence, so a call retried against a different endpoint is the same
// operation to every server's dedup machinery, and a stale reply from
// a deposed endpoint can never race past the promoted one.
//
// Calls go to the active endpoint. When a call fails at the transport
// level (retries exhausted or deadline blown), the failover hook is
// consulted: it may report that a different endpoint is now primary —
// typically after promoting a backup — and the call is retransmitted
// there under the same call ID. Server-side errors (RemoteError) are
// not failover triggers: the service answered; it said no.
//
// With one endpoint and no hook it is simply a caller of one server —
// a transport failure surfaces as it is — so a service client holds a
// FailoverClient whether or not it spans replicas, and places every
// call on the one CallRaw path.
//
// Several callers each hold their own FailoverClient over the same
// links (Peer builds one), and the goroutine driving the stack
// interleaves their calls.
type FailoverClient struct {
	clients []*Client
	servers []*Server
	fence   *EpochFence

	active    int
	nextID    uint32
	failovers int

	// onFailover reports which endpoint index is primary now, or -1
	// when no failover is possible (the active endpoint may yet
	// recover). Installed by the control plane (fsserver.Cluster).
	onFailover func() int
}

// NewFailoverClient bundles per-link clients and their servers into one
// logical caller. clients[i] must live on the link that reaches
// servers[i]; endpoint 0 is active initially. The first client's
// identity becomes the shared one; the other links adopt it.
func NewFailoverClient(clients []*Client, servers []*Server) *FailoverClient {
	if len(clients) == 0 || len(clients) != len(servers) {
		panic("wire: FailoverClient needs one client per server")
	}
	f := &FailoverClient{clients: clients, servers: servers, fence: &EpochFence{}}
	id := clients[0].ClientID
	for _, c := range clients {
		c.ClientID = id
		c.link.adoptClientID(id)
		c.Fence = f.fence
	}
	return f
}

// OnFailover installs the hook consulted when the active endpoint fails
// at the transport level. It returns the endpoint index that is primary
// now (possibly after promoting a backup), or -1 to give up on this
// call.
func (f *FailoverClient) OnFailover(fn func() int) {
	f.onFailover = fn
}

// Peer builds another logical caller over the same endpoints: a fresh
// client on each link (a new identity, shared across them), the same
// servers, retry bound, deadline budget, and failover hook. Like a
// second process dialling the same service, it starts on endpoint 0.
func (f *FailoverClient) Peer() *FailoverClient {
	clients := make([]*Client, len(f.clients))
	for i, c := range f.clients {
		clients[i] = NewClient(c.link, c.side)
		clients[i].MaxRetries = c.MaxRetries
		clients[i].DeadlineMicros = c.DeadlineMicros
	}
	p := NewFailoverClient(clients, f.servers)
	p.onFailover = f.onFailover
	return p
}

// ClientID returns the shared caller identity.
func (f *FailoverClient) ClientID() uint32 { return f.clients[0].ClientID }

// Active returns the index of the endpoint currently called.
func (f *FailoverClient) Active() int {
	return f.active
}

// Fence returns the shared epoch fence.
func (f *FailoverClient) Fence() *EpochFence { return f.fence }

// Tune applies retry/deadline settings to every underlying client. Each
// endpoint attempt gets its own deadline budget — the budget bounds one
// server's chance to answer, not the whole failover episode.
func (f *FailoverClient) Tune(maxRetries int, deadlineMicros float64) {
	for _, c := range f.clients {
		c.MaxRetries = maxRetries
		c.DeadlineMicros = deadlineMicros
	}
}

// Stats sums the transport counters of every underlying client and adds
// the failover count.
func (f *FailoverClient) Stats() Stats {
	var s Stats
	for _, c := range f.clients {
		s = s.Add(c.Stats())
	}
	s.Failovers = f.failovers
	return s
}

// transportFailure reports whether err means "the endpoint did not
// answer" (retry elsewhere is sound) as opposed to "the service
// answered with an error" (failover must not mask it). ErrOverloaded
// is deliberately neither: an overloaded server is alive and saying
// "not now" — failing over would stampede the backups with exactly the
// load the primary just shed.
func transportFailure(err error) bool {
	return errors.Is(err, ErrCallFailed) || errors.Is(err, ErrDeadlineExceeded)
}

// NewCallArgs returns an argument builder for CallRaw from the stack's
// free list. Every endpoint sits on the one stack, so the builder
// returns to the list it came from whichever endpoint answers.
func (f *FailoverClient) NewCallArgs() *CallArgs { return f.clients[0].NewCallArgs() }

// Call invokes proc with boxed args and returns the boxed results — the
// codec adapter over CallRaw, for callers without a typed stub.
func (f *FailoverClient) Call(proc uint32, args ...interface{}) ([]interface{}, error) {
	w := f.NewCallArgs()
	if err := w.marshal(args); err != nil {
		return nil, err
	}
	res, err := f.CallRaw(proc, w)
	if err != nil {
		return nil, err
	}
	return Unmarshal(res.data)
}

// CallRaw invokes proc with the arguments staged in w against the
// active endpoint, failing over — same call ID, next endpoint — when
// the transport gives up and the failover hook names a new primary.
// Each endpoint re-seals the same builder under its own client's expiry
// stamp, and the builder is recycled once, when the call concludes.
// At-most-once holds across the switch: the shared ClientID/CallID pair
// lets the new primary's reply cache and durable dedup authority
// recognise a retransmission of an op the old primary already executed
// and shipped. The virtual time from the first transport failure to the
// first reply after a switch is observed as the "client.failover"
// histogram class. The result cursor views the answering endpoint
// client's reply buffer and, as Client.CallRaw's does, stays valid
// until this caller's next call.
func (f *FailoverClient) CallRaw(proc uint32, w *CallArgs) (Args, error) {
	res, err := f.callHops(proc, w)
	w.release()
	return res, err
}

// callHops is CallRaw's hop loop; the builder stays the caller's.
func (f *FailoverClient) callHops(proc uint32, w *CallArgs) (Args, error) {
	f.nextID++
	id := f.nextID
	active := f.active
	hook := f.onFailover

	rec := f.clients[active].link.Recorder()
	failedAt := -1.0 // clock at the first transport failure, -1 = none yet
	// Each endpoint gets at most one shot per call: the active one, then
	// whatever the hook promotes, around the ring at worst.
	for hops := 0; hops <= len(f.clients); hops++ {
		c, s := f.clients[active], f.servers[active]
		c.nextID = id // keep the shared sequence visible to the endpoint client
		res, err := c.callSealed(s, id, proc, w)
		if err == nil {
			if failedAt >= 0 {
				d := c.link.Clock() - failedAt
				rec.Observe("client.failover", d)
				rec.Emit(obs.Event{Layer: "client", Name: "failover_done", Client: c.ClientID, Call: id,
					Attrs: "endpoint=" + strconv.Itoa(active) + " micros=" + strconv.FormatFloat(d, 'g', -1, 64)})
			}
			return res, nil
		}
		if !transportFailure(err) {
			return Args{}, err
		}
		if failedAt < 0 {
			failedAt = c.link.Clock()
		}
		next := -1
		if hook != nil {
			next = hook()
		}
		if next < 0 || next == active {
			return Args{}, err
		}
		rec.Emit(obs.Event{Layer: "client", Name: "failover", Client: c.ClientID, Call: id,
			Attrs: "from=" + strconv.Itoa(active) + " to=" + strconv.Itoa(next)})
		f.active = next
		f.failovers++
		active = next
	}
	return Args{}, ErrCallFailed
}
