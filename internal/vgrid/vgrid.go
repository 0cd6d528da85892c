// Package vgrid is a conservative discrete-event simulator of a grid
// computing platform: hosts with a compute speed (flop/s) and a memory
// capacity, connected by links with latency, bandwidth and serialization
// contention. It plays the role of the paper's physical clusters
// (cluster1/2/3): numerical kernels execute for real inside simulated
// processes and charge their counted flop cost to a virtual clock, while
// messages cost latency plus bytes over the route's bottleneck bandwidth.
//
// Simulated processes are coroutines of the scheduler lane that owns them
// (iter.Pull; coro.go), so exactly one runs at a time: every simulator
// primitive (Compute, Send, Recv, TryRecv, Sleep, Alloc) yields to the
// scheduler, which always resumes the process with the smallest next event
// time — a direct switch, with no channel operation and no pass through the
// Go scheduler's run queue. Because a process can only create future events
// at or after its own clock, this order is causally safe and fully
// deterministic.
//
// Pure compute segments are the one exception to the single-runner rule:
// Proc.ComputeFunc charges its declared virtual cost up front and hands the
// real work to a bounded pool of OS threads (Engine.SetWorkers; a segment
// declaring less than InlineFlops runs inline), so segments of different
// processes overlap in wall-clock time. The virtual schedule is
// unchanged — the scheduler commits clock charges in the same conservative
// order and blocks on a segment's completion before resuming its owner — so
// obs records and results are identical for 1 worker and N workers.
package vgrid

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrOutOfMemory is returned by Proc.Alloc when the host memory would be
// exceeded; the experiments map it to the paper's "nem" table entries.
var ErrOutOfMemory = errors.New("vgrid: not enough memory")

// ErrDeadlock is returned by Engine.Run when every live process is blocked
// on a receive that can never be satisfied.
var ErrDeadlock = errors.New("vgrid: deadlock: all processes blocked")

// Host is a machine in the platform.
type Host struct {
	// ID is the host's index in the platform's Hosts slice.
	ID int
	// Name identifies the host in traces and fault plans.
	Name  string
	Speed float64 // flop/s
	// Memory is the capacity in bytes; 0 means unlimited.
	Memory int64

	used int64
	// cluster is the index of the cluster this host belongs to, or -1 when
	// the platform declares no cluster for it (flat topology).
	cluster int
}

// ClusterIndex returns the index of the cluster the host was assigned to
// with Platform.AddCluster, or -1 on a flat platform.
func (h *Host) ClusterIndex() int { return h.cluster }

// Sharing selects how a link divides its bandwidth among concurrent
// transfers.
type Sharing int

const (
	// SharingFIFO serializes transfers: each waits for the link to be free
	// (store-and-forward switches, default).
	SharingFIFO Sharing = iota
	// SharingFair divides the bandwidth among concurrent transfers, in the
	// manner of TCP flows on a shared path: a transfer starting while k
	// others are active proceeds at bandwidth/(k+1) for its whole duration
	// (a processor-sharing approximation, evaluated at start time).
	SharingFair
)

// Link is a network resource with contention: concurrent transfers either
// queue behind each other (FIFO) or share the bandwidth (Fair).
type Link struct {
	// Name identifies the link in traces and fault plans.
	Name      string
	Latency   float64 // seconds
	Bandwidth float64 // bytes/s
	// Mode selects the contention model (default SharingFIFO).
	Mode Sharing

	nextFree   float64
	activeEnds []float64 // fair mode: end times of in-flight transfers
	// laneClass classifies the link on a sharded run: 0 unclassified,
	// -1 global (inter-lane routes, touched only during serialized WAN
	// turns), laneID+1 private to one lane. See lane.markLinks.
	laneClass atomic.Int32
}

// fairShare returns the bandwidth share for a transfer starting at now and
// records tentative membership; the caller registers the actual end time.
func (l *Link) fairShare(now float64) float64 {
	live := l.activeEnds[:0]
	for _, e := range l.activeEnds {
		if e > now {
			live = append(live, e)
		}
	}
	l.activeEnds = live
	return l.Bandwidth / float64(len(l.activeEnds)+1)
}

// Platform describes hosts and the routes between them.
type Platform struct {
	// Hosts lists every machine, indexed by Host.ID.
	Hosts  []*Host
	routes map[uint64][]*Link
	// router lazily resolves routes not declared with SetRoute; resolved
	// routes are memoized into the routes map (see SetRouter).
	router func(a, b *Host) []*Link
	// extraLinks lists links declared with AddLinks for platforms using a
	// lazy router, so fault plans can resolve link names before any route
	// has been materialized.
	extraLinks []*Link
	// clusters groups hosts into named LAN islands (see AddCluster); empty
	// for a flat platform.
	clusters []*Cluster
	// loopback cost for messages a host sends to itself.
	loopLatency   float64
	loopBandwidth float64
	// routeLabels caches the "+"-joined link-name label per host pair for
	// the observability send spans, so the hot send path does not rebuild
	// the string per message.
	routeLabels map[uint64]string
	// mu guards only lazy memoization: routes written by the router and
	// routeLabels, which lanes of a sharded engine fill concurrently.
	// Declared routes are fixed before Run and read without it.
	mu sync.RWMutex
}

// pairKey is the route-table key of the ordered host pair (a, b): one
// uint64, which takes the runtime's 64-bit map path.
func pairKey(a, b *Host) uint64 { return uint64(a.ID)<<32 | uint64(b.ID) }

// NewPlatform returns an empty platform. Loopback transfers cost a fixed
// 1 µs latency at 1 GB/s.
func NewPlatform() *Platform {
	return &Platform{
		routes:        make(map[uint64][]*Link),
		loopLatency:   1e-6,
		loopBandwidth: 1e9,
		routeLabels:   make(map[uint64]string),
	}
}

// AddHost registers a host and returns it.
func (pl *Platform) AddHost(name string, speed float64, memory int64) *Host {
	if speed <= 0 {
		panic("vgrid: host speed must be positive")
	}
	h := &Host{ID: len(pl.Hosts), Name: name, Speed: speed, Memory: memory, cluster: -1}
	pl.Hosts = append(pl.Hosts, h)
	return h
}

// NewLink creates a link resource (not yet on any route).
func NewLink(name string, latency, bandwidth float64) *Link {
	if bandwidth <= 0 {
		panic("vgrid: link bandwidth must be positive")
	}
	return &Link{Name: name, Latency: latency, Bandwidth: bandwidth}
}

// SetRoute declares the link sequence used by messages from a to b and,
// symmetrically, from b to a.
func (pl *Platform) SetRoute(a, b *Host, links ...*Link) {
	if len(links) == 0 {
		panic("vgrid: route needs at least one link")
	}
	pl.routes[pairKey(a, b)] = links
	rev := make([]*Link, len(links))
	for i, l := range links {
		rev[len(links)-1-i] = l
	}
	pl.routes[pairKey(b, a)] = rev
}

// SetRouter installs a lazy route resolver: when Route finds no declared
// route for a host pair, it asks the resolver and memoizes a non-nil answer
// into the route table. This keeps platform construction O(hosts) for
// generated grids (a 1000-host grid has ~10⁶ host pairs; materializing them
// all up front is exactly the kind of cost the event-core refactor removes)
// and the table to the pairs that communicate; a send on such a platform
// pays a read lock and one map probe. The resolver must be
// deterministic — same pair, same links — and is called at most once per
// ordered pair. Explicit SetRoute declarations take precedence. Fault plans
// resolve link names against declared routes plus AddLinks, so a platform
// using a router should register its links there.
func (pl *Platform) SetRouter(r func(a, b *Host) []*Link) {
	pl.router = r
}

// AddLinks registers links with the platform without declaring a route,
// so fault plans can reference them by name on lazily-routed platforms
// (SetRouter) before any route has been materialized.
func (pl *Platform) AddLinks(links ...*Link) {
	pl.extraLinks = append(pl.extraLinks, links...)
}

// Route returns the links from a to b, or nil for loopback: one map probe,
// without a lock on a platform whose routes are all declared (SetRoute before
// Run). On a platform with a lazy resolver (SetRouter), the first lookup of a
// pair materializes and memoizes its route, so there the probe takes mu.
func (pl *Platform) Route(a, b *Host) ([]*Link, error) {
	if a.ID == b.ID {
		return nil, nil
	}
	key := pairKey(a, b)
	var links []*Link
	var ok bool
	if pl.router == nil {
		links, ok = pl.routes[key]
	} else {
		pl.mu.RLock()
		links, ok = pl.routes[key]
		pl.mu.RUnlock()
		if !ok {
			pl.mu.Lock()
			if links, ok = pl.routes[key]; !ok {
				if links = pl.router(a, b); links != nil {
					pl.routes[key] = links
					ok = true
				}
			}
			pl.mu.Unlock()
		}
	}
	if !ok {
		return nil, fmt.Errorf("vgrid: no route %s -> %s", a.Name, b.Name)
	}
	return links, nil
}

// routeLabel returns the cached "+"-joined link-name label for the a→b
// route, building it on first use.
func (pl *Platform) routeLabel(a, b *Host, links []*Link) string {
	key := pairKey(a, b)
	pl.mu.RLock()
	s, ok := pl.routeLabels[key]
	pl.mu.RUnlock()
	if ok {
		return s
	}
	parts := make([]string, len(links))
	for i, l := range links {
		parts[i] = l.Name
	}
	s = strings.Join(parts, "+")
	pl.mu.Lock()
	pl.routeLabels[key] = s
	pl.mu.Unlock()
	return s
}

// Message is a payload in flight or delivered to a process mailbox.
type Message struct {
	From, To int // process ids
	// Tag is the application-level channel selector matched by Recv.
	Tag int
	// Floats is the payload, nil for a bare signal.
	Floats []float64
	// Bytes is the simulated wire size charged to the links.
	Bytes int
	// Arrival is the virtual time the message reaches the destination mailbox.
	Arrival float64
	seq     int64
	// pooled marks an envelope currently sitting in a lane's free pool;
	// ReleaseMessage uses it to panic on a double release.
	pooled bool
}

const (
	// AnySource matches messages from every sender in Recv/TryRecv.
	AnySource = -1
	// AnyTag matches every message tag in Recv/TryRecv.
	AnyTag = -1
)

// Engine runs a set of processes over a platform.
type Engine struct {
	// Platform is the simulated grid the processes run on.
	Platform *Platform
	procs    []*Proc
	started  bool
	now      float64
	// faults is the resolved fault-injection plan (nil for a healthy grid).
	faults *faultState
	// obs, when non-nil, receives virtual-time spans from the scheduler's
	// commit points (compute, send, transfer, wait, sleep, fault marks).
	obs *obs.Recorder

	// workers bounds the pool of OS threads executing ComputeFunc segments
	// concurrently; 1, or a declared cost below InlineFlops, runs it inline.
	workers  int
	poolOnce sync.Once
	jobs     chan *Proc

	// crossCheck, when non-nil, is shown every pick of the scheduler index
	// before it is committed (test hook: sched_test.go compares the pick with
	// its O(P) reference scan). Setting it forces a single lane.
	crossCheck func(ln *lane, p *Proc, at float64, deliver *Message)

	// lanesReq is the requested scheduler-lane count (SetLanes): 1 single
	// lane (default), 0 auto (one lane per cluster), n an explicit count.
	lanesReq int
	// lanes holds the scheduler shards built at Run start; a single-lane
	// engine has exactly one, owning every process. See lane.go.
	lanes []*lane
	// sharded is set while the run uses more than one lane.
	sharded bool
	// lookaheadOverride, when non-zero, replaces the platform-derived
	// safe-window lookahead (only tests set it); lookahead memoizes the
	// resolved value.
	lookaheadOverride float64
	lookahead         float64
	// horizon is the current window's exclusive commit bound (coordinator
	// state; lanes read it only at serialized points).
	horizon float64
	// windows and wanTurns count the sharded run's synchronization events:
	// window barriers and serialized inter-lane send turns. See EventStats.
	windows  int64
	wanTurns int64
	// parkCh carries the lanes' park reports to the window coordinator.
	parkCh chan parkMsg
	// unshardable is the first shared-link rejection of a sharded run
	// (lane.markLinks); Run returns it ahead of any process error.
	unshardable atomic.Pointer[error]

	// poolCheck arms the float-pool ownership guard (only tests set it);
	// poolOut tracks pooled buffers under poolMu across all lanes.
	poolCheck bool
	poolMu    sync.Mutex
	poolOut   map[*float64]bool
}

// NewEngine creates an engine for the platform. Compute segments handed to
// Proc.ComputeFunc run on up to GOMAXPROCS OS threads, those declaring less
// than InlineFlops inline; use SetWorkers to change the bound (the virtual
// schedule is identical either way). The scheduler runs a single lane unless
// SetLanes asks for sharding.
func NewEngine(pl *Platform) *Engine {
	return &Engine{Platform: pl, workers: runtime.GOMAXPROCS(0), lanesReq: 1}
}

// SetLanes requests sharded event scheduling: the processes are
// partitioned by cluster into n per-lane schedulers that advance
// independently inside conservative WAN-lookahead safe windows (lane.go).
// n = 1 (the default) is the single-lane scheduler; n = 0 means one lane
// per cluster; other values are clamped to [1, clusters]. Obs
// exports, metrics and iterates are byte-identical for any lane count —
// sharding changes wall-clock cost only. The engine falls back to a single
// lane when the preconditions do not hold (a per-pick cross-check hook,
// hosts outside every cluster, no inter-cluster route lookahead). No command
// reaches it: its callers are the benchmark and tests. Must be called
// before Run.
func (e *Engine) SetLanes(n int) {
	if e.started {
		panic("vgrid: SetLanes after Run")
	}
	if n < 0 {
		n = 1
	}
	e.lanesReq = n
}

// Lanes returns the number of scheduler lanes the run resolved to (0
// before Run).
func (e *Engine) Lanes() int { return len(e.lanes) }

// EventStats reports the run's scheduling volume: commits is the number of
// committed event slices, syncs the number of points at which the run had to
// be in one global order — every commit on a single-lane engine (each one
// passes through the one lane, as a coroutine switch or, when a process's
// next event is its own, in place), but only window barriers plus serialized
// WAN turns on a sharded one, the only points where goroutines synchronize.
// The benchmark's grid1000_events workload reports both (vgrid.commits,
// vgrid.syncs) and the host time per commit.
func (e *Engine) EventStats() (commits, syncs int64) {
	for _, ln := range e.lanes {
		commits += ln.commits
	}
	if e.sharded {
		return commits, e.windows + e.wanTurns
	}
	return commits, commits
}

// SetWorkers bounds the number of OS threads that execute ComputeFunc
// segments concurrently (default GOMAXPROCS). n = 1, or a declared cost below
// InlineFlops, runs a segment inline in the process body. Must be called
// before Run.
func (e *Engine) SetWorkers(n int) {
	if e.started {
		panic("vgrid: SetWorkers after Run")
	}
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Workers returns the configured compute-segment concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Observe attaches an observability recorder: every scheduler commit point
// emits a virtual-time span into it (compute segments, sender pushes,
// in-flight transfers, blocked waits, sleeps, crash/restart marks). Must be
// called before Run; pass nil to detach. The recorder is the engine's only
// event record: attaching it never changes the virtual schedule, and the
// recorded data is identical for any worker and lane count.
func (e *Engine) Observe(rec *obs.Recorder) {
	if e.started {
		panic("vgrid: Observe after Run")
	}
	e.obs = rec
}

// startPool lazily spins up the worker goroutines on first use. The jobs
// channel is buffered with one slot per process — a process can have at most
// one segment in flight — so dispatching never blocks the scheduler.
func (e *Engine) startPool() {
	e.poolOnce.Do(func() {
		e.jobs = make(chan *Proc, len(e.procs))
		for i := 0; i < e.workers; i++ {
			go func() {
				for p := range e.jobs {
					p.runSegment()
				}
			}()
		}
	})
}

// Run executes the simulation until every process finishes. It returns the
// final virtual time and the first process error (all process errors are
// available via Errors). With SetLanes the event loop shards into
// per-cluster scheduler lanes advancing inside WAN-lookahead safe windows
// (lane.go); the results — obs exports, metrics, iterates — are
// byte-identical to the single-lane run.
func (e *Engine) Run() (float64, error) {
	if e.started {
		panic("vgrid: Run called twice")
	}
	e.started = true
	defer func() {
		// Stop the worker pool, if one was started. At this point no segment
		// is in flight: a computing process is always schedulable, so the
		// loop only exits after every segment has been collected.
		if e.jobs != nil {
			close(e.jobs)
		}
		// No goroutine outlives Run: end the coroutine of every process it
		// left unfinished — blocked at a deadlock or behind an unshardable
		// link, or never started because the fault plan did not resolve. A
		// suspended body unwinds from its yield (Proc.yield), with err and
		// state staying as the return values below saw them.
		for _, p := range e.procs {
			p.stop()
		}
	}()
	if e.faults != nil {
		if err := e.faults.resolve(e.Platform); err != nil {
			return 0, err
		}
	}
	nl := e.resolveLaneCount()
	e.buildLanes(nl)
	if e.sharded {
		e.runSharded()
		e.mergeShardLog()
	} else {
		ln := e.lanes[0]
		ln.initIndex()
		ln.run(math.Inf(1))
	}
	if err := e.unshardable.Load(); err != nil {
		return e.now, *err
	}
	// Check for deadlock: any process not done means nobody was runnable.
	if msg := e.deadlockReport(); msg != "" {
		if err := e.firstError(); err != nil {
			// A failed process is the likely root cause of the stall;
			// report (and wrap) it rather than the secondary deadlock.
			return e.now, fmt.Errorf("%w (then deadlock: %s)", err, msg)
		}
		return e.now, fmt.Errorf("%w: %s", ErrDeadlock, msg)
	}
	return e.now, e.firstError()
}

// deadlockReport summarizes the stuck processes after the event loop
// drained, or returns "" when every process finished. On a single-lane run
// it is the flat blocked-process list; on a sharded run each lane reports
// its own horizon state — lane clock, earliest pending key, the final
// window horizon and its blocked processes — so a cross-lane stall shows
// which lane starved which.
func (e *Engine) deadlockReport() string {
	var parts []string
	for _, ln := range e.lanes {
		var blocked []string
		for _, p := range ln.procs {
			if p.st() == stateDone {
				continue
			}
			name := p.Name
			if e.faults != nil && math.IsInf(e.faults.wake(p.host, p.clock), 1) {
				name += " (host down)"
			}
			blocked = append(blocked, name)
		}
		if len(blocked) == 0 {
			continue
		}
		s := strings.Join(blocked, ", ")
		if e.sharded {
			next := math.Inf(1)
			if p := ln.idxMin(); p != nil {
				next = p.key
			}
			s = fmt.Sprintf("lane %d [clock=%.6f next=%g horizon=%.6f]: %s", ln.id, ln.now, next, e.horizon, s)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, "; ")
}

func (e *Engine) firstError() error {
	for _, p := range e.procs {
		if p.err != nil {
			return fmt.Errorf("process %s: %w", p.Name, p.err)
		}
	}
	return nil
}

// Now returns the engine's high-water virtual time.
func (e *Engine) Now() float64 { return e.now }

func (p *Proc) earliestMatch() *Message {
	var best *Message
	for _, m := range p.mailbox {
		if !matches(m, p.matchSrc, p.matchTag) {
			continue
		}
		if best == nil || m.Arrival < best.Arrival || (m.Arrival == best.Arrival && m.seq < best.seq) {
			best = m
		}
	}
	return best
}

func matches(m *Message, src, tag int) bool {
	return (src == AnySource || m.From == src) && (tag == AnyTag || m.Tag == tag)
}

// Host returns the host the process runs on.
func (p *Proc) Host() *Host { return p.host }

// Done reports whether the process body has returned. It is safe to read
// from other simulated processes, including processes on other scheduler
// lanes (the state word is atomic).
func (p *Proc) Done() bool { return p.st() == stateDone }

// Err returns the process body's error (nil while running or on success).
// Like Done it is safe to read from other simulated processes — even on
// other scheduler lanes — so a peer can diagnose why a rank went silent:
// the error is published before the done transition.
func (p *Proc) Err() error {
	if p.st() != stateDone {
		return nil
	}
	return p.err
}

// DownAt reports whether the process's host is inside a fault-plan outage
// window at virtual time t (false without a plan). Peers use it to tell a
// crashed host apart from a slow or lossy one.
func (p *Proc) DownAt(t float64) bool {
	fs := p.eng.faults
	return fs != nil && fs.down(p.host, t)
}

// Now returns the process's local virtual clock in seconds.
func (p *Proc) Now() float64 { return p.clock }

// Obs returns the observability recorder this process must emit into (nil
// when observability is off). Solver drivers wrap it in a per-rank
// obs.Scope. On a sharded run this is the lane's journal recorder — driver
// emissions are buffered with the scheduler's own and replayed in merged
// commit order, so the export is identical to a single-lane run.
func (p *Proc) Obs() *obs.Recorder {
	if p.ln != nil {
		return p.ln.obsRec()
	}
	return p.eng.obs
}

// Send transmits a float payload (nil for a bare signal) of the given wire
// size to the destination process. The sender is occupied while pushing the
// bytes onto the first link; the message then arrives after the route
// latency. Transfers serialize on every link of the route (contention). The
// payload is delivered by reference and its ownership travels with the
// message: the sender must not touch it afterwards (mp sends pooled copies,
// see GetFloats). Under a fault plan the message may be silently lost (see
// SendFate).
func (p *Proc) Send(dst *Proc, tag int, floats []float64, bytes int) error {
	_, err := p.SendFate(dst, tag, floats, bytes)
	return err
}

// SendFate is Send with the simulator's omniscient delivery verdict: it
// reports whether the message was actually deposited in the destination's
// mailbox. Under a fault plan a message is lost when it would arrive while
// the destination host is down, or when a link on the route drops it (a
// seeded per-message coin flip). The sender pays the full transmission cost
// either way — it cannot observe the loss in virtual time, only in the
// returned verdict, which retry layers (mp) use in place of an acknowledgment
// protocol. A lost payload stays with the sender. The error return is
// reserved for configuration problems (no route), not for losses.
//
// On a sharded engine every inter-cluster send first parks for its
// serialized WAN turn (coordinated by (send time, process ID), so shared
// link state — the WAN backbone and cluster uplinks, which lanes other than
// the sender's also route through — is updated in exactly the global
// sequential order); a send whose destination lives on another lane
// additionally deposits into the target lane's inbox instead of the mailbox,
// and the coordinator applies the inbox at the next window barrier, which
// the lookahead guarantees is early enough.
func (p *Proc) SendFate(dst *Proc, tag int, floats []float64, bytes int) (delivered bool, err error) {
	if bytes < 0 {
		panic("vgrid: negative message size")
	}
	e := p.eng
	fs := e.faults
	links, err := e.Platform.Route(p.host, dst.host)
	if err != nil {
		return false, err
	}
	cross := e.sharded && dst.ln != p.ln
	serialize := e.sharded && links != nil && !e.Platform.SameCluster(p.host, dst.host)
	if serialize {
		e.parkCh <- parkMsg{ln: p.ln, wan: true, t: p.clock, id: p.ID}
		<-p.ln.grant
	}
	if e.sharded && links != nil {
		if err := p.ln.markLinks(links, serialize); err != nil {
			return false, err
		}
	}
	var latency, pushTime float64
	start := p.clock
	if fs != nil {
		// A sender acting right at an outage boundary starts once its host
		// is back up; fault windows are sampled at this initiation instant.
		start = fs.wake(p.host, start)
	}
	t0 := start
	if links == nil {
		latency = e.Platform.loopLatency
		pushTime = float64(bytes) / e.Platform.loopBandwidth
	} else {
		// FIFO links serialize: the transfer begins when every one is free.
		for _, l := range links {
			lat := l.Latency
			if fs != nil {
				latF, _ := fs.linkFactors(l, t0)
				lat *= latF
			}
			latency += lat
			if l.Mode == SharingFIFO && l.nextFree > start {
				start = l.nextFree
			}
		}
		// Effective rate: the bottleneck across FIFO bandwidths and fair
		// shares evaluated at the start instant.
		bw := math.Inf(1)
		for _, l := range links {
			cap := l.Bandwidth
			if l.Mode == SharingFair {
				cap = l.fairShare(start)
			}
			if fs != nil {
				_, bwF := fs.linkFactors(l, t0)
				cap *= bwF
			}
			if cap < bw {
				bw = cap
			}
		}
		pushTime = float64(bytes) / bw
		for _, l := range links {
			if o := p.ln.obsRec(); o != nil {
				qd := 0.0
				if l.Mode == SharingFIFO && l.nextFree > t0 {
					// nextFree still holds the pre-update value, so this is
					// the time the message waited behind earlier transfers.
					qd = l.nextFree - t0
				}
				o.CountLink(l.Name, float64(bytes), qd)
			}
			if l.Mode == SharingFIFO {
				l.nextFree = start + pushTime
			} else {
				l.activeEnds = append(l.activeEnds, start+pushTime)
			}
		}
	}
	arrival := start + pushTime + latency
	if e.sharded && arrival <= p.clock {
		panic(fmt.Sprintf("vgrid: zero-delay message %s -> %s: sharded scheduling needs strictly positive message delay (run with a single lane)", p.Name, dst.Name))
	}
	// The per-sender sequence number: the sender's ID in the high bits,
	// its own send counter in the low bits. Unique across the run and a
	// pure function of the sender's history, so the seeded per-message
	// loss verdict (dropU01) and the obs Seq/Cause attributes are
	// identical for any lane or worker count.
	p.sendSeq++
	seq := int64(p.ID+1)<<40 | p.sendSeq
	dropReason := ""
	if fs != nil {
		if fs.down(dst.host, arrival) {
			dropReason = "down"
		} else {
			for _, l := range links {
				if pr := fs.dropProb(l, t0); pr > 0 && dropU01(fs.plan.Seed, l.Name, seq) < pr {
					dropReason = "loss"
					break
				}
			}
		}
	}
	if dropReason == "" {
		m := p.ln.getMessage()
		*m = Message{
			From:    p.ID,
			To:      dst.ID,
			Tag:     tag,
			Floats:  floats,
			Bytes:   bytes,
			Arrival: arrival,
			seq:     seq,
		}
		if cross {
			if arrival < e.horizon {
				panic(fmt.Sprintf("vgrid: lookahead violated: %s -> %s arrives at %.9f inside window horizon %.9f: the lookahead estimate exceeds this route's latency", p.Name, dst.Name, arrival, e.horizon))
			}
			dst.ln.inbox = append(dst.ln.inbox, m)
		} else {
			dst.mailbox = append(dst.mailbox, m)
			p.ln.noteDeposit(dst, m)
		}
	}
	if o := p.ln.obsRec(); o != nil {
		route := "loopback"
		if links != nil {
			route = e.Platform.routeLabel(p.host, dst.host, links)
		}
		o.Span(obs.Span{Track: p.Name, Cat: obs.CatSend, Name: "send",
			Start: p.clock, End: start + pushTime, Bytes: int64(bytes),
			To: dst.Name, Tag: tag, Queue: start - t0})
		net := obs.Span{Track: "net", Cat: obs.CatNet, Name: p.Name + ">" + dst.Name,
			Start: start, End: arrival, Bytes: int64(bytes), From: p.Name,
			To: dst.Name, Link: route, Tag: tag, Seq: seq, Queue: start - t0}
		if dropReason != "" {
			net.Note = dropReason
			o.Count("msg_drops", p.Name, 1)
		}
		o.Span(net)
	}
	p.BytesSent += int64(bytes)
	p.MsgsSent++
	if e.Platform.SameCluster(p.host, dst.host) {
		p.IntraBytes += int64(bytes)
		p.IntraMsgs++
		if o := p.ln.obsRec(); o != nil {
			o.Count(obs.CntClusterBytes, "intra", float64(bytes))
			o.Count(obs.CntClusterMsgs, "intra", 1)
		}
	} else {
		p.InterBytes += int64(bytes)
		p.InterMsgs++
		if o := p.ln.obsRec(); o != nil {
			o.Count(obs.CntClusterBytes, "inter", float64(bytes))
			o.Count(obs.CntClusterMsgs, "inter", 1)
		}
	}
	// The sender is busy until its bytes are on the wire.
	p.clock = start + pushTime
	p.setSt(stateReady)
	p.yield()
	return dropReason == "", nil
}

// Recv blocks until a message matching (src, tag) arrives; use AnySource or
// AnyTag as wildcards. The clock advances to the arrival time.
func (p *Proc) Recv(src, tag int) *Message {
	p.matchSrc, p.matchTag = src, tag
	p.until = math.Inf(1)
	p.setSt(stateBlocked)
	p.lastBlockedAt = p.clock
	// Seed the index's pending match with a one-time mailbox scan; later
	// deposits improve it incrementally (noteDeposit).
	p.pendingMatch = p.earliestMatch()
	p.yield()
	// The scheduler resumed us at the arrival time of the earliest match.
	m := p.earliestMatch()
	if m == nil {
		panic("vgrid: resumed blocked process without matching message")
	}
	p.removeMessage(m)
	return m
}

// RecvTimeout blocks like Recv but for at most timeout virtual seconds: it
// returns the earliest matching message, or nil once the deadline passes
// with no match available. On timeout the clock stands at the deadline
// (clamped past any outage of the process's own host), so callers can retry
// in a loop without consuming wall-clock time.
func (p *Proc) RecvTimeout(src, tag int, timeout float64) *Message {
	if timeout < 0 {
		panic("vgrid: negative timeout")
	}
	p.matchSrc, p.matchTag = src, tag
	p.until = p.clock + timeout
	p.setSt(stateBlocked)
	p.lastBlockedAt = p.clock
	p.pendingMatch = p.earliestMatch()
	p.yield()
	p.until = math.Inf(1)
	m := p.earliestMatch()
	if m == nil || m.Arrival > p.clock {
		return nil
	}
	p.removeMessage(m)
	return m
}

// TryRecv returns the earliest matching message that has already arrived at
// the process's current clock, or nil. It synchronizes with the scheduler so
// the answer is causally exact.
func (p *Proc) TryRecv(src, tag int) *Message {
	// Park at the current clock so every earlier event is finalized.
	p.setSt(stateReady)
	p.yield()
	var best *Message
	for _, m := range p.mailbox {
		if !matches(m, src, tag) || m.Arrival > p.clock {
			continue
		}
		if best == nil || m.Arrival < best.Arrival || (m.Arrival == best.Arrival && m.seq < best.seq) {
			best = m
		}
	}
	if best != nil {
		p.removeMessage(best)
	}
	return best
}

func (p *Proc) removeMessage(m *Message) {
	for i, q := range p.mailbox {
		if q == m {
			p.mailbox = append(p.mailbox[:i], p.mailbox[i+1:]...)
			return
		}
	}
	panic("vgrid: message vanished from mailbox")
}

// Alloc reserves bytes of host memory, shared with every process on the
// host. It fails with ErrOutOfMemory when the capacity would be exceeded.
func (p *Proc) Alloc(bytes int64) error {
	if bytes < 0 {
		panic("vgrid: negative allocation")
	}
	h := p.host
	if h.Memory > 0 && h.used+bytes > h.Memory {
		return fmt.Errorf("%w: host %s: %d used + %d requested > %d capacity",
			ErrOutOfMemory, h.Name, h.used, bytes, h.Memory)
	}
	h.used += bytes
	p.allocated += bytes
	return nil
}

// Free releases bytes previously reserved with Alloc.
func (p *Proc) Free(bytes int64) {
	if bytes < 0 || bytes > p.allocated {
		panic(fmt.Sprintf("vgrid: bad free of %d (allocated %d)", bytes, p.allocated))
	}
	p.allocated -= bytes
	p.host.used -= bytes
}

// HostMemoryInUse returns the total bytes allocated on the host.
func (h *Host) HostMemoryInUse() int64 { return h.used }

// Stats summarizes per-process accounting after a run.
type Stats struct {
	// Name is the process name.
	Name string
	// Clock is the process's final virtual time.
	Clock float64
	// Flops is the total virtual floating-point work charged.
	Flops float64
	// ComputeTime is the virtual time spent in compute segments.
	ComputeTime float64
	// BusyTime is the clock time compute segments occupied including
	// fault-plan stalls (outage freezes, slowdown stretching); equal to
	// ComputeTime on a healthy host.
	BusyTime float64
	// BlockedTime is the virtual time spent blocked in Recv.
	BlockedTime float64
	// BytesSent is the total simulated bytes sent.
	BytesSent int64
	// MsgsSent is the total messages sent.
	MsgsSent int64
	// IntraBytes is the sent bytes that stayed inside the process's cluster.
	IntraBytes int64
	// InterBytes is the sent bytes that crossed a cluster boundary.
	InterBytes int64
	// IntraMsgs is the messages that stayed inside the process's cluster.
	IntraMsgs int64
	// InterMsgs is the messages that crossed a cluster boundary.
	InterMsgs int64
}

// Stats returns per-process statistics, sorted by process id.
func (e *Engine) Stats() []Stats {
	out := make([]Stats, len(e.procs))
	for i, p := range e.procs {
		out[i] = Stats{
			Name:        p.Name,
			Clock:       p.clock,
			Flops:       p.FlopsDone,
			ComputeTime: p.ComputeTime,
			BusyTime:    p.BusyTime,
			BlockedTime: p.BlockedTime,
			BytesSent:   p.BytesSent,
			MsgsSent:    p.MsgsSent,
			IntraBytes:  p.IntraBytes,
			InterBytes:  p.InterBytes,
			IntraMsgs:   p.IntraMsgs,
			InterMsgs:   p.InterMsgs,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
