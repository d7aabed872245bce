package fsserver

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"archos/internal/arch"
	"archos/internal/fs"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
)

// failingOp is one op that fails, named by its procedure and arguments.
type failingOp struct {
	name     string
	proc     uint32
	path     string
	fd, n    int64
	sentinel error // what errors.Is finds in the monolith's error
}

// failingOps covers every shape of failure: each Named sentinel, the
// relative-path error, the bare ErrNameTooBig and ErrBadFD, and
// ErrBadCount, on queries and on logged ops. They run on failureTree.
var failingOps = []failingOp{
	{name: "Mkdir of an existing name", proc: ProcMkdir, path: "/d", sentinel: fs.ErrExist},
	{name: "Mkdir of the root", proc: ProcMkdir, path: "/", sentinel: fs.ErrExist},
	{name: "Stat of a missing path", proc: ProcStat, path: "/z00042", sentinel: fs.ErrNotExist},
	{name: "ReadDir of a missing path", proc: ProcReadDir, path: "/z/y", sentinel: fs.ErrNotExist},
	{name: "Open of a missing path", proc: ProcOpen, path: "/d/z", sentinel: fs.ErrNotExist},
	{name: "Unlink of a missing path", proc: ProcUnlink, path: "/z", sentinel: fs.ErrNotExist},
	{name: "Create under a missing directory", proc: ProcCreate, path: "/z/f", sentinel: fs.ErrNotExist},
	{name: "Stat through a file", proc: ProcStat, path: "/d/f/x", sentinel: fs.ErrNotDir},
	{name: "ReadDir of a file", proc: ProcReadDir, path: "/d/f", sentinel: fs.ErrNotDir},
	{name: "Mkdir under a file", proc: ProcMkdir, path: "/d/f/x", sentinel: fs.ErrNotDir},
	{name: "Open of a directory", proc: ProcOpen, path: "/d", sentinel: fs.ErrIsDir},
	{name: "Create over a directory", proc: ProcCreate, path: "/n", sentinel: fs.ErrIsDir},
	{name: "Unlink of a non-empty directory", proc: ProcUnlink, path: "/n", sentinel: fs.ErrNotEmpty},
	{name: "Stat of a relative path", proc: ProcStat, path: "d/f", sentinel: fs.ErrNotExist},
	{name: "Mkdir of a relative path", proc: ProcMkdir, path: "e", sentinel: fs.ErrNotExist},
	{name: "Stat of a 256-byte component", proc: ProcStat, path: "/" + strings.Repeat("a", 256), sentinel: fs.ErrNameTooBig},
	{name: "Create of a 256-byte component", proc: ProcCreate, path: "/d/" + strings.Repeat("b", 256), sentinel: fs.ErrNameTooBig},
	{name: "Close of an unknown descriptor", proc: ProcClose, fd: 99, sentinel: fs.ErrBadFD},
	{name: "Read of a negative count", proc: ProcRead, fd: 1, n: -3, sentinel: fs.ErrBadCount},
}

// logged reports whether the op goes through the WAL.
func (op failingOp) logged() bool { return op.proc != ProcStat && op.proc != ProcReadDir }

// on runs the op on svc and returns its error.
func (op failingOp) on(svc Service) error {
	var err error
	switch op.proc {
	case ProcMkdir:
		err = svc.Mkdir(op.path)
	case ProcStat:
		_, err = svc.Stat(op.path)
	case ProcReadDir:
		_, err = svc.ReadDir(op.path)
	case ProcOpen:
		_, err = svc.Open(op.path)
	case ProcCreate:
		_, err = svc.Create(op.path)
	case ProcUnlink:
		err = svc.Unlink(op.path)
	case ProcClose:
		err = svc.Close(int(op.fd))
	case ProcRead:
		_, err = svc.Read(int(op.fd), int(op.n))
	}
	return err
}

// args encodes the op's call arguments.
func (op failingOp) args() []byte {
	switch op.proc {
	case ProcClose:
		return wire.AppendInt64(nil, op.fd)
	case ProcRead:
		return wire.AppendInt64(wire.AppendInt64(nil, op.fd), op.n)
	}
	return wire.AppendString(nil, op.path)
}

// failureTree builds the tree the failing ops run on: a directory /d
// holding a file /d/f, open on descriptor 1, and a directory /n holding
// a directory.
func failureTree(t *testing.T, svc Service) {
	t.Helper()
	for _, dir := range []string{"/d", "/n", "/n/c"} {
		if err := svc.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if fd, err := svc.Create("/d/f"); err != nil || fd != 1 {
		t.Fatalf("Create(/d/f) = %d, %v; want descriptor 1", fd, err)
	}
}

// rawCaller seals calls by hand as the client with the given ID and
// reads each reply's payload, so a test sees the reply bytes a server
// sends.
type rawCaller struct {
	t      *testing.T
	client uint32
	callID uint32
	frame  []byte // the last call sealed, for a retransmission
}

// call places a new call to proc with payload args on link, served by
// srv, and returns the reply's payload.
func (c *rawCaller) call(link *wire.Link, srv *wire.Server, proc uint32, args []byte) []byte {
	c.t.Helper()
	c.callID++
	frame, err := wire.Encode(wire.Header{Kind: wire.KindCall, CallID: c.callID, ProcID: proc, ClientID: c.client}, args)
	if err != nil {
		c.t.Fatal(err)
	}
	c.frame = frame
	return c.resend(link, srv)
}

// resend retransmits the last call on link, served by srv — the same
// server or another that now answers for it — and returns the reply's
// payload.
func (c *rawCaller) resend(link *wire.Link, srv *wire.Server) []byte {
	c.t.Helper()
	link.Send(wire.A, c.frame)
	srv.Poll()
	reply, err := link.RecvClient(wire.A, c.client)
	if err != nil {
		c.t.Fatalf("call %d: no reply: %v", c.callID, err)
	}
	h, payload, err := wire.Decode(reply)
	if err != nil || h.Kind != wire.KindReply || h.CallID != c.callID {
		c.t.Fatalf("call %d: reply %+v, %v", c.callID, h, err)
	}
	return bytes.Clone(payload)
}

// setUp builds failureTree through the caller's raw calls.
func (c *rawCaller) setUp(link *wire.Link, srv *wire.Server) {
	c.t.Helper()
	for _, dir := range []string{"/d", "/n", "/n/c"} {
		c.call(link, srv, ProcMkdir, wire.AppendString(nil, dir))
	}
	c.call(link, srv, ProcCreate, wire.AppendString(nil, "/d/f"))
}

func TestFailureRepliesMatchTheMonolithsErrorText(t *testing.T) {
	// A failed op's reply is [false, text], with text the error the
	// public fs methods give the same op on the monolith, whether the
	// server built that text or wrote it in pieces. A logged op's reply,
	// regenerated from the WAL session record, equals the live one: after
	// a crash wipes the reply cache (the session replayed from the log's
	// tail), after a snapshot folds the session into the image (restored
	// from its whole text), and on a backup that applied the op, after
	// failover. Through Remote the caller gets ErrRemote's text joined to
	// the same text.
	cm := kernel.NewCostModel(arch.R3000)
	for _, op := range failingOps {
		direct := NewDirect(fs.New(64), cm)
		failureTree(t, direct)
		want := op.on(direct)
		if want == nil || !errors.Is(want, op.sentinel) {
			t.Fatalf("%s: the monolith returns %v, want %v", op.name, want, op.sentinel)
		}
		wantReply := wire.AppendString(wire.AppendBool(nil, false), want.Error())

		remote := NewRemote(fs.New(64), cm)
		failureTree(t, remote)
		if err := op.on(remote); !errors.Is(err, ErrRemote) || err.Error() != ErrRemote.Error()+": "+want.Error() {
			t.Errorf("%s: Remote returns %v, want ErrRemote with the text %q", op.name, err, want)
		}

		// One server, replies answered from the tail's replay or, with a
		// snapshot after every logged op, from the image.
		for _, snapshotEvery := range []int{0, 1} {
			link := wire.NewLink(localNet)
			srv := NewServer(fs.New(64), link, wire.B)
			srv.SnapshotEvery = snapshotEvery
			c := &rawCaller{t: t, client: wire.NewClient(link, wire.A).ClientID}
			c.setUp(link, srv.Wire)
			live := c.call(link, srv.Wire, op.proc, op.args())
			if !bytes.Equal(live, wantReply) {
				t.Errorf("%s: the server replied %q, want %q", op.name, live, wantReply)
			}
			if !op.logged() {
				continue
			}
			srv.Crash()
			fromLog := srv.Wire.Stats().LogDuplicates
			if replayed := c.resend(link, srv.Wire); !bytes.Equal(replayed, live) {
				t.Errorf("%s (snapshot every %d): after a crash the log answers %q, the live reply was %q",
					op.name, snapshotEvery, replayed, live)
			}
			if srv.Wire.Stats().LogDuplicates != fromLog+1 {
				t.Errorf("%s: the retransmission was not answered from the log", op.name)
			}
		}
		if !op.logged() {
			continue
		}

		// A backup applied the op as the primary shipped it; after
		// failover its log answers the retransmission.
		cluster := NewCluster(64, cm, ReplicaConfig{Backups: 1, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64})
		c := &rawCaller{t: t, client: cluster.NewClient().fo.ClientID()}
		c.setUp(cluster.PrimaryLink(), cluster.Primary().Wire)
		live := c.call(cluster.PrimaryLink(), cluster.Primary().Wire, op.proc, op.args())
		if !bytes.Equal(live, wantReply) {
			t.Errorf("%s: the primary replied %q, want %q", op.name, live, wantReply)
		}
		cluster.KillPrimaryForever()
		if cluster.Failover() != 1 {
			t.Fatalf("%s: no backup promoted", op.name)
		}
		backup := cluster.Backup(0).srv.Wire
		if replayed := c.resend(cluster.Backup(0).srv.link, backup); !bytes.Equal(replayed, live) {
			t.Errorf("%s: after failover the backup answers %q, the live reply was %q", op.name, replayed, live)
		}
		if backup.Stats().LogDuplicates != 1 {
			t.Errorf("%s: the backup did not answer the retransmission from its log", op.name)
		}
	}
}
