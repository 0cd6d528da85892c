// The simulated process: its state, its life as a coroutine of its lane
// (Spawn, safeBody, yield) and the compute primitives. Messaging primitives
// are in vgrid.go, the scheduler that resumes processes in lane.go.

package vgrid

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/obs"
)

type procState int32

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	// stateComputing marks a process inside ComputeFunc: its virtual cost is
	// already charged (so its next event time is final) while the real work
	// may still be running on a pool worker. The scheduler treats it like a
	// ready process and waits for the work only when the process is picked.
	stateComputing
	// stateDeferred marks a process inside ComputeDeferred: the segment is
	// running on a pool worker and its virtual cost is unknown until it
	// returns, so the end of its declared cost floor (until) is only a lower
	// bound on its resume time. The scheduler may not commit to any event at
	// or after that bound until the true cost has been collected.
	stateDeferred
	stateDone
)

// Proc is a simulated process. All methods must be called from within the
// process's own body function.
type Proc struct {
	// ID is the process's index in the engine's spawn order (and its address
	// for messages).
	ID int
	// Name identifies the process in traces and diagnostics.
	Name string

	eng  *Engine
	host *Host
	// ln is the scheduler lane that owns this process, assigned at Run
	// start (single-lane engines have exactly one lane).
	ln    *lane
	clock float64
	// state is atomic because peers on other lanes may poll Done/Err
	// concurrently with this process's own transitions.
	state atomic.Int32
	// The process is a coroutine of its lane (coro.go): next switches to the
	// body until it yields or finishes, yieldTo switches back (false once
	// stopped), stop ends an unfinished coroutine after the run. stopped marks
	// a body being unwound by stop: its outcome must not reach err or state.
	// inFlight is set while a dispatched segment is uncollected. Both sit in
	// the state word's padding, which keeps Proc in its size class.
	stopped  bool
	inFlight bool
	next     func() (struct{}, bool)
	stop     func()
	yieldTo  func(struct{}) bool
	mailbox  []*Message
	// matcher is set while blocked in Recv.
	matchSrc, matchTag int
	// until is the instant that bounds the process's next event, by state:
	// while blocked, the receive's deadline (+Inf for a plain Recv, the
	// timeout instant for RecvTimeout); while deferred, the end of the
	// segment's declared cost floor on its host, where the scheduler keys
	// it. No process is both at once, and one field for the two keeps Proc
	// in its size class.
	until     float64
	err       error
	allocated int64
	// key is the process's cached next-event time, maintained by the
	// scheduler index (sched.go); heapPos is its position in its lane's
	// event heap, -1 while not indexed (running, held by a pick, or done).
	key     float64
	heapPos int
	// pendingMatch caches the earliest mailbox message matching the current
	// blocked receive, maintained incrementally: Recv seeds it with a scan,
	// Send deposits improve it in O(1). Only meaningful while blocked.
	pendingMatch *Message
	// computing is the process's completion channel (capacity 1, made on its
	// first dispatch): the worker signals it when the segment returns.
	computing chan struct{}
	segment   func()
	// fnPanic carries a panic recovered on the worker back to the process's
	// coroutine, where it is re-raised so safeBody turns it into an error.
	fnPanic any
	// deferredFlops is the measured cost of a ComputeDeferred segment,
	// written by the worker before it signals computing and charged by the
	// scheduler at collection time.
	deferredFlops float64
	// sendSeq counts this process's sends; combined with the ID it forms
	// the per-sender message sequence number (see SendFate).
	sendSeq int64

	// FlopsDone counts the virtual floating-point work charged so far.
	FlopsDone float64
	// BytesSent counts the simulated bytes this process sent (drops included:
	// the sender pays for lost messages too).
	BytesSent int64
	// MsgsSent counts the messages this process sent, delivered or not.
	MsgsSent int64
	// IntraBytes counts the sent bytes that stayed inside the sender's
	// cluster (loopback included); with no clusters declared all traffic is
	// intra-cluster.
	IntraBytes int64
	// InterBytes counts the sent bytes that crossed a cluster boundary.
	InterBytes int64
	// IntraMsgs counts the messages that stayed inside the sender's cluster.
	IntraMsgs int64
	// InterMsgs counts the messages that crossed a cluster boundary.
	InterMsgs int64
	// ComputeTime accumulates the virtual time spent in compute segments.
	ComputeTime float64
	// BusyTime accumulates the clock time compute segments occupied,
	// including fault-plan stalls: under a host outage or slowdown window it
	// grows faster than ComputeTime. The gap between the two is the
	// degradation signal the adaptive controller rebalances on.
	BusyTime float64
	// BlockedTime accumulates the virtual time spent blocked in Recv.
	BlockedTime   float64
	lastBlockedAt float64
}

// Spawn registers a process on a host with a body function. Must be called
// before Run.
func (e *Engine) Spawn(h *Host, name string, body func(p *Proc) error) *Proc {
	if e.started {
		panic("vgrid: Spawn after Run")
	}
	p := &Proc{
		ID:      len(e.procs),
		Name:    name,
		eng:     e,
		host:    h,
		until:   math.Inf(1),
		heapPos: -1,
	}
	p.setSt(stateReady)
	e.procs = append(e.procs, p)
	p.next, p.stop = pullProc(func(yield func(struct{}) bool) {
		p.yieldTo = yield
		err := safeBody(body, p)
		if p.stopped {
			return
		}
		// The error is written before the atomic state transition so a
		// peer that observes Done also observes the error.
		p.err = err
		p.setSt(stateDone)
		// Release any memory the process still holds.
		p.host.used -= p.allocated
		p.allocated = 0
	})
	return p
}

// st reads the process state (atomically: peers on other lanes poll it).
func (p *Proc) st() procState { return procState(p.state.Load()) }

// setSt writes the process state.
func (p *Proc) setSt(s procState) { p.state.Store(int32(s)) }

// procStopped is the panic value yield unwinds a stopped body with.
type procStopped struct{}

func safeBody(body func(p *Proc) error, p *Proc) (err error) {
	defer func() {
		if r := recover(); r != nil && !p.stopped {
			err = fmt.Errorf("vgrid: process %s panicked: %v", p.Name, r)
		}
	}()
	return body(p)
}

// yield ends the process's current slice. The lane's next event is committed
// here, on the process's own coroutine (lane.advance); only when it belongs
// to another process — or lies past the window limit — does the coroutine
// switch back to the lane loop. yieldTo returns false once Run has stopped
// the process on its way out: the body unwinds through its deferred calls,
// and safeBody swallows the panic.
func (p *Proc) yield() {
	if !p.stopped {
		ln := p.ln
		p.key = ln.eventTime(p)
		ln.endGroup()
		if ln.picked = ln.advance(p); ln.picked == p {
			return
		}
		p.stopped = !p.yieldTo(struct{}{})
	}
	if p.stopped {
		panic(procStopped{})
	}
}

// chargeFlops advances the clock and work statistics by flops at the host's
// speed, without yielding. Under a fault plan the work pauses across outage
// windows of the host (warm restart), so the clock advances by the work time
// plus any overlapping downtime.
func (p *Proc) chargeFlops(flops float64) {
	if flops < 0 {
		panic("vgrid: negative flops")
	}
	start, dt := p.clock, flops/p.host.Speed
	p.clock = p.eng.faults.workEnd(p.host, p.clock, dt)
	p.ComputeTime += dt
	p.BusyTime += p.clock - start
	p.FlopsDone += flops
	// Serialized emission point: either the process is the unique runner in
	// its lane, or the lane scheduler is collecting a deferred segment's
	// charge.
	if o := p.ln.obsRec(); o != nil && p.clock > start {
		o.Span(obs.Span{Track: p.Name, Cat: obs.CatCompute, Name: "compute",
			Start: start, End: p.clock, Flops: flops})
	}
}

// Compute charges flops of work at the host's speed and advances the clock.
func (p *Proc) Compute(flops float64) {
	p.chargeFlops(flops)
	p.setSt(stateReady)
	p.yield()
}

// InlineFlops is the declared cost below which ComputeFunc runs a segment
// inline on any worker count: the pool handoff would cost the host more than
// overlapping the segment saves. Reading only the declared cost, the choice
// is the same on every host and leaves the virtual schedule unchanged.
const InlineFlops = 4096

// ComputeFunc charges flops of declared work up front — advancing the clock
// exactly as Compute(flops) would — and executes fn, the real arithmetic the
// declared cost stands for. With more than one worker configured and a
// declared cost of at least InlineFlops, fn runs on the engine's worker pool
// while the scheduler proceeds to other processes whose next events are not
// later, so independent compute segments of different processes overlap in
// wall-clock time; the scheduler waits for fn before this process resumes, so
// everything the process observes afterwards is as if fn had run inline.
// With 1 worker, or a declared cost below InlineFlops, fn runs inline. The
// virtual schedule is identical for any worker count.
//
// fn must not call simulator primitives and must touch only process-local
// state (its owner's vectors, matrices and flop counter): unlike the process
// body, it is not serialized with other processes' segments.
func (p *Proc) ComputeFunc(flops float64, fn func()) {
	p.chargeFlops(flops)
	if p.eng.workers <= 1 || flops < InlineFlops {
		fn()
		p.setSt(stateReady)
		p.yield()
		return
	}
	p.dispatch(stateComputing, fn)
}

// dispatch queues fn on the worker pool and yields in state st; the lane
// waits for the segment before it resumes the process, whose coroutine then
// re-raises a panic the worker recovered so safeBody turns it into an error.
func (p *Proc) dispatch(st procState, fn func()) {
	p.eng.startPool()
	if p.computing == nil {
		p.computing = make(chan struct{}, 1)
	}
	p.inFlight = true
	p.segment = fn
	p.setSt(st)
	p.eng.jobs <- p
	p.yield()
	if r := p.fnPanic; r != nil {
		p.fnPanic = nil
		panic(r)
	}
}

// runSegment executes the dispatched segment on a pool worker.
func (p *Proc) runSegment() {
	defer func() {
		p.fnPanic = recover()
		p.computing <- struct{}{}
	}()
	p.segment()
}

// ComputeDeferred executes fn — a compute phase whose virtual cost cannot be
// declared up front (e.g. a sparse factorization whose flop count depends on
// the fill it discovers) — and charges the cost fn returns when it
// completes, exactly as Compute(fn()) would have. minFlops is a floor the
// caller can promise the measured cost reaches (0 when nothing is provable).
// With more than one worker configured, fn runs on the engine's worker pool:
// until it returns, the instant the floor's work would end on the host is
// treated as a lower bound on the process's next event, so the scheduler
// keeps running other processes with earlier events — among them every
// process tied at the dispatch instant, which dispatches its own segment
// first when the floor is positive — and resolves the true cost only when
// this process could be next. The virtual schedule is identical for any
// worker count and any valid floor. A measured cost below minFlops ends the
// process with an error.
//
// The restrictions on fn are the same as for ComputeFunc: no simulator
// primitives, process-local state only.
//
// Commit guarantee: when ComputeDeferred returns, fn has fully completed,
// its writes to process-local state are visible to the process body and its
// measured cost has been charged. Callers may therefore read results fn
// produced — a factorization handle, an error — immediately after the call,
// with no extra synchronization. The scheduler enforces this by collecting
// the segment (waiting on p.computing, then charging deferredFlops) before
// the owning process can be committed and resumed; see lane.advance's
// stateDeferred branch. TestComputeDeferredCommitsBeforeReturn pins the invariant under
// the race detector.
func (p *Proc) ComputeDeferred(minFlops float64, fn func() float64) {
	if !(minFlops >= 0) {
		panic("vgrid: negative flops floor")
	}
	p.until = p.eng.faults.workEnd(p.host, p.clock, minFlops/p.host.Speed)
	if p.eng.workers <= 1 {
		if err := p.chargeDeferred(fn()); err != nil {
			panic(err)
		}
		p.setSt(stateReady)
		p.yield()
		return
	}
	p.deferredFlops = 0
	p.dispatch(stateDeferred, func() { p.deferredFlops = fn() })
}

// chargeDeferred charges a deferred segment's measured cost from its
// dispatch clock. A cost that ends before the declared floor's end means the
// process was keyed past its true resume time: it fails, with its clock at
// the floor's end so that its lane's commits never run backwards.
func (p *Proc) chargeDeferred(flops float64) error {
	p.chargeFlops(flops)
	if p.clock >= p.until {
		return nil
	}
	p.clock = p.until
	return fmt.Errorf("vgrid: deferred segment measured %g flops, below its declared floor", flops)
}

// Sleep advances the clock by dt seconds without doing work.
func (p *Proc) Sleep(dt float64) {
	if dt < 0 {
		panic("vgrid: negative sleep")
	}
	if o := p.ln.obsRec(); o != nil && dt > 0 {
		o.Span(obs.Span{Track: p.Name, Cat: obs.CatSleep, Name: "sleep",
			Start: p.clock, End: p.clock + dt})
	}
	p.clock += dt
	p.setSt(stateReady)
	p.yield()
}
