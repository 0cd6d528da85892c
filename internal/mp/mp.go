// Package mp provides a rank-based, MPI-like message passing interface on
// top of the vgrid simulator: point-to-point sends/receives (blocking and
// non-blocking), broadcast, reductions and gathers. It is the
// communication substrate for both the multisplitting solvers (the paper's
// MPI/Corba layers) and the distributed LU baseline.
package mp

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/simctx"
	"repro/internal/vgrid"
)

// AnySource, re-exported, matches a message from every rank in Recv/TryRecv.
const AnySource = vgrid.AnySource

// internalTagBase separates collective-operation traffic from user tags.
// User tags must stay below this value.
const internalTagBase = 1 << 20

// The numbering starts at +2 (the first two belonged to a barrier that is
// gone): traces record tags, so the remaining values must not move.
const (
	tagReduceIn = internalTagBase + 2 + iota
	tagReduceOut
	tagBcast
	tagGather
	tagGatherHier
)

// msgOverheadBytes models per-message envelope cost.
const msgOverheadBytes = 64

// RetryPolicy configures retransmission for unreliable grids: every send is
// attempted up to Attempts times, sleeping Backoff virtual seconds before the
// first retry and doubling after each. The simulator's omniscient delivery
// verdict (vgrid.Proc.SendFate) stands in for an acknowledgment protocol, so
// retries fire only for messages that were actually lost and the virtual
// clock pays only the backoff — no ack traffic is simulated. The zero value
// means a single attempt (fire and forget, the healthy-grid default).
type RetryPolicy struct {
	// Attempts is the total number of transmission attempts (≥ 1; 0 and 1
	// both mean no retries).
	Attempts int
	// Backoff is the virtual sleep before the first retry, doubling after
	// each subsequent one.
	Backoff float64
}

// Comm is one rank's endpoint of a communicator.
type Comm struct {
	rank  int
	procs []*vgrid.Proc
	p     *vgrid.Proc
	ctx   *simctx.Ctx

	// Topo switches the collectives to the two-level topology-aware
	// algorithm: ranks reduce to a per-cluster leader over the LAN, the
	// leaders exchange over the WAN, and the result fans back out inside
	// each cluster — so a collective crosses the inter-cluster links only
	// O(#clusters) times instead of once per rank. It takes effect only when
	// the platform declares at least two clusters covering every rank's host
	// (vgrid.Platform.AddCluster); otherwise the flat rank-0 star runs
	// unchanged. All ranks must agree on the setting.
	Topo bool
	// topoCached/topoDone memoize the cluster layout derived from the
	// ranks' hosts (computed on first topology-aware collective).
	topoCached *topoInfo
	topoDone   bool
	// Retry is the retransmission policy applied to every send, point-to-
	// point and collective alike (default: single attempt).
	Retry RetryPolicy
	// pkFree recycles Packet shells returned with Release. Like the engine
	// pools it is only touched at serialized points (this rank's body), so
	// no locking is needed.
	pkFree []*Packet
}

// Launch spawns one process per host and runs body on each with a Comm of
// matching rank. It must be called before engine.Run.
func Launch(e *vgrid.Engine, hosts []*vgrid.Host, name string, body func(c *Comm) error) []*vgrid.Proc {
	n := len(hosts)
	procs := make([]*vgrid.Proc, n)
	for r := 0; r < n; r++ {
		r := r
		procs[r] = e.Spawn(hosts[r], fmt.Sprintf("%s-%d", name, r), func(p *vgrid.Proc) error {
			return body(&Comm{rank: r, procs: procs, p: p})
		})
	}
	return procs
}

// Rank returns this process's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.procs) }

// Proc exposes the underlying simulated process (clock, compute, memory).
func (c *Comm) Proc() *vgrid.Proc { return c.p }

// Compute charges flops of local work.
func (c *Comm) Compute(flops float64) { c.p.Compute(flops) }

// AttachCtx installs the rank's solver context; the Charge and ComputeSeg
// accounting helpers operate on it. The caller (the rank body) builds and
// owns the Ctx — one per process, never shared.
func (c *Comm) AttachCtx(ctx *simctx.Ctx) { c.ctx = ctx }

// Charge converts flops counted since the last charge into virtual compute
// time: the difference between the context counter and its charged
// watermark. Work declared through ComputeSeg is already charged; any
// remainder (e.g. message-application arithmetic, or a segment whose
// declared cost underestimated the counted work) reconciles here.
func (c *Comm) Charge() {
	if c.ctx == nil {
		return
	}
	if f := c.ctx.Counter.Flops(); f > c.ctx.Charged {
		c.p.Compute(f - c.ctx.Charged)
		c.ctx.Charged = f
	}
}

// ComputeSeg charges flops of declared work up front and runs the segment,
// overlapping it with other processes' segments on the engine's worker pool
// (vgrid.Proc.ComputeFunc). The charged watermark advances by the declared
// cost so a following Charge only pays for work the declaration missed. The
// segment must not call communicator or simulator primitives and must touch
// only this rank's state.
func (c *Comm) ComputeSeg(flops float64, fn func()) {
	if c.ctx != nil {
		c.ctx.Charged += flops
	}
	c.p.ComputeFunc(flops, fn)
}

// ComputeDeferred runs fn — a compute phase whose cost is unknowable up
// front, such as a fill-dependent factorization — on the engine's worker
// pool and charges the flops it returns when it completes
// (vgrid.Proc.ComputeDeferred, which also says what the floor minFlops buys
// and what a measured cost below it does). The charged watermark advances by
// the measured cost.
func (c *Comm) ComputeDeferred(minFlops float64, fn func() float64) {
	var measured float64
	c.p.ComputeDeferred(minFlops, func() float64 {
		measured = fn()
		return measured
	})
	if c.ctx != nil {
		c.ctx.Charged += measured
	}
}

// Now returns the local virtual time.
func (c *Comm) Now() float64 { return c.p.Now() }

func (c *Comm) checkTag(tag int) {
	if tag < 0 || tag >= internalTagBase {
		panic(fmt.Sprintf("mp: user tag %d out of range [0,%d)", tag, internalTagBase))
	}
}

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.procs) {
		panic(fmt.Sprintf("mp: rank %d out of range [0,%d)", r, len(c.procs)))
	}
}

// xsend is the single transmission funnel: every Comm send — point-to-point,
// collective or protocol traffic — goes through it, so the retry policy
// covers them all. It owns floats (nil for a bare signal): a delivered
// payload travels to the receiver, and one still lost after the last attempt
// goes back to the payload pool. The loss is otherwise silent (counted as
// undelivered): loss is a simulated condition for the solver to tolerate,
// not a Go error.
func (c *Comm) xsend(dst *vgrid.Proc, tag int, floats []float64, bytes int) error {
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := c.Retry.Backoff
	for i := 0; ; i++ {
		delivered, err := c.p.SendFate(dst, tag, floats, bytes)
		if err != nil || delivered {
			return err
		}
		if i == attempts-1 {
			c.p.PutFloats(floats)
			c.ctx.Observe().Count("undelivered", 1)
			return nil
		}
		c.ctx.Observe().Count("retries", 1)
		if backoff > 0 {
			t0 := c.p.Now()
			c.p.Sleep(backoff)
			// Iter carries the attempt number so the windowed retry-pressure
			// view can distinguish first backoffs from escalating ones.
			c.ctx.Observe().Span(obs.Span{Cat: obs.CatRetry, Name: "retry",
				Start: t0, End: c.p.Now(), To: dst.Name, Tag: tag, Bytes: int64(bytes), Iter: i + 1})
			backoff *= 2
		}
	}
}

// SendFloats sends a copy of data to rank dst with the given tag. The copy
// comes from the engine's payload pool; ownership travels with the message,
// and the receiver returns the buffer via Release (or keeps it — returning
// is optional).
func (c *Comm) SendFloats(dst, tag int, data []float64) error {
	c.checkTag(tag)
	c.checkRank(dst)
	buf := c.p.GetFloats(len(data))
	copy(buf, data)
	return c.xsend(c.procs[dst], tag, buf, 8*len(buf)+msgOverheadBytes)
}

// Signal sends an empty control message.
func (c *Comm) Signal(dst, tag int) error {
	c.checkTag(tag)
	c.checkRank(dst)
	return c.xsend(c.procs[dst], tag, nil, msgOverheadBytes)
}

// Packet is a received message with its metadata.
type Packet struct {
	// From is the sender's rank.
	From int
	// Tag is the application message tag.
	Tag int
	// Floats is the payload, nil for a bare signal.
	Floats []float64
}

// packet returns an empty Packet from the rank's shell pool.
func (c *Comm) packet() *Packet {
	k := len(c.pkFree)
	if k == 0 {
		return &Packet{}
	}
	pk := c.pkFree[k-1]
	c.pkFree[k-1] = nil
	c.pkFree = c.pkFree[:k-1]
	return pk
}

// toPacket converts a delivered message into a Packet from the rank's shell
// pool and recycles the vgrid envelope. The payload moves by reference: the
// packet now owns it, until the caller hands both back with Release.
func (c *Comm) toPacket(m *vgrid.Message) *Packet {
	pk := c.packet()
	pk.From, pk.Tag, pk.Floats = c.rankOf(m), m.Tag, m.Floats
	c.p.ReleaseMessage(m)
	return pk
}

// Release returns a received packet to the rank's pools: the shell to the
// packet pool and a float payload to the engine's buffer pool. Releasing is
// optional — an unreleased packet is simply GC'd, so callers that let the
// payload escape (a gathered row handed to the application) just skip the
// call. The caller must not touch the packet or its payload afterwards, and
// must release at most once.
func (c *Comm) Release(pk *Packet) {
	if pk == nil {
		return
	}
	c.p.PutFloats(pk.Floats)
	*pk = Packet{}
	c.pkFree = append(c.pkFree, pk)
}

// pid returns the process id of rank src, or AnySource unchanged. Launch
// spawns a communicator's processes one after another, so their ids run
// contiguously from rank 0's; other processes spawned before or after leave
// that run intact.
func (c *Comm) pid(src int) int {
	if src == AnySource {
		return src
	}
	c.checkRank(src)
	return c.procs[0].ID + src
}

// rankOf returns the rank of a delivered message's sender.
func (c *Comm) rankOf(m *vgrid.Message) int { return m.From - c.procs[0].ID }

// recv blocks until a message matching (src rank, tag) arrives.
func (c *Comm) recv(src, tag int) *vgrid.Message { return c.p.Recv(c.pid(src), tag) }

// Recv blocks until a message matching (src, tag) arrives.
func (c *Comm) Recv(src, tag int) *Packet { return c.toPacket(c.recv(src, tag)) }

// TryRecv returns a matching already-arrived message or nil.
func (c *Comm) TryRecv(src, tag int) *Packet {
	m := c.p.TryRecv(c.pid(src), tag)
	if m == nil {
		return nil
	}
	return c.toPacket(m)
}

// DrainLatest consumes every already-arrived message matching (src, tag)
// and returns the most recently sent one (nil if none). The asynchronous
// multisplitting driver uses it to adopt only the freshest neighbor iterate.
// Superseded packets are recycled internally; the caller owns (and may
// Release) only the returned one.
func (c *Comm) DrainLatest(src, tag int) *Packet {
	var last *Packet
	for {
		m := c.TryRecv(src, tag)
		if m == nil {
			return last
		}
		c.Release(last)
		last = m
	}
}

// RecvTimeout blocks like Recv but for at most timeout virtual seconds,
// returning nil once the deadline passes with no matching message. The
// fault-tolerant drivers use it to tell a slow peer from a dead one.
func (c *Comm) RecvTimeout(src, tag int, timeout float64) *Packet {
	m := c.p.RecvTimeout(c.pid(src), tag, timeout)
	if m == nil {
		return nil
	}
	return c.toPacket(m)
}

// PeerDown reports whether rank r's host is inside a fault-plan outage
// window right now (at this rank's clock).
func (c *Comm) PeerDown(r int) bool {
	c.checkRank(r)
	return c.procs[r].DownAt(c.p.Now())
}

// PeerFailed reports whether rank r's process has terminated with an error.
func (c *Comm) PeerFailed(r int) bool {
	c.checkRank(r)
	return c.procs[r].Done() && c.procs[r].Err() != nil
}

// PeerErr returns rank r's process error (nil while running or on success).
func (c *Comm) PeerErr(r int) error {
	c.checkRank(r)
	return c.procs[r].Err()
}

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
)

// scalar wraps one value in a pooled single-element payload buffer.
func (c *Comm) scalar(v float64) []float64 {
	buf := c.p.GetFloats(1)
	buf[0] = v
	return buf
}

// takeScalar extracts the single value of a reduction message and recycles
// both the payload buffer and the envelope.
func (c *Comm) takeScalar(m *vgrid.Message) float64 {
	buf := m.Floats
	v := buf[0]
	c.p.PutFloats(buf)
	c.p.ReleaseMessage(m)
	return v
}

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	default:
		panic("mp: unknown op")
	}
}

// Allreduce combines one value per rank with op and returns the result on
// every rank.
func (c *Comm) Allreduce(v float64, op Op) (float64, error) {
	n := c.Size()
	if n == 1 {
		return v, nil
	}
	if c.Topo {
		if ti := c.topo(); ti != nil {
			return c.hierAllreduce(v, op, ti)
		}
	}
	if c.rank == 0 {
		acc := v
		for i := 1; i < n; i++ {
			acc = op.apply(acc, c.takeScalar(c.recv(AnySource, tagReduceIn)))
		}
		for i := 1; i < n; i++ {
			if err := c.xsend(c.procs[i], tagReduceOut, c.scalar(acc), 8+msgOverheadBytes); err != nil {
				return 0, err
			}
		}
		return acc, nil
	}
	if err := c.xsend(c.procs[0], tagReduceIn, c.scalar(v), 8+msgOverheadBytes); err != nil {
		return 0, err
	}
	return c.takeScalar(c.recv(0, tagReduceOut)), nil
}

// Bcast sends data from root to every rank; every rank returns the slice.
func (c *Comm) Bcast(root int, data []float64) ([]float64, error) {
	c.checkRank(root)
	if c.Size() == 1 {
		return data, nil
	}
	if c.Topo {
		if ti := c.topo(); ti != nil {
			return c.hierBcast(root, data, ti)
		}
	}
	if c.rank == root {
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			cp := c.p.GetFloats(len(data))
			copy(cp, data)
			if err := c.xsend(c.procs[i], tagBcast, cp, 8*len(cp)+msgOverheadBytes); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	m := c.recv(root, tagBcast)
	out := m.Floats
	c.p.ReleaseMessage(m)
	return out, nil
}

// Gather collects each rank's slice at root, returned indexed by rank (nil
// on non-root ranks).
func (c *Comm) Gather(root int, data []float64) ([][]float64, error) {
	c.checkRank(root)
	n := c.Size()
	if c.Topo {
		if ti := c.topo(); ti != nil {
			return c.hierGather(root, data, ti)
		}
	}
	if c.rank != root {
		cp := c.p.GetFloats(len(data))
		copy(cp, data)
		return nil, c.xsend(c.procs[root], tagGather, cp, 8*len(cp)+msgOverheadBytes)
	}
	out := make([][]float64, n)
	out[root] = data
	for i := 0; i < n-1; i++ {
		m := c.recv(AnySource, tagGather)
		out[c.rankOf(m)] = m.Floats
		c.p.ReleaseMessage(m)
	}
	return out, nil
}
