// Package dslu implements the distributed-memory sparse direct solver the
// paper benchmarks multisplitting against (SuperLU_DIST 2.0). Like
// SuperLU_DIST it uses static pivoting — a maximum-transversal row
// permutation chosen before the factorization — plus a fill-reducing
// ordering, so the numerical factorization needs no pivot communication.
// The elimination is blocked right-looking with a 1-D block-cyclic row
// distribution: for every pivot block the owner finalizes the block rows
// and fans them out to all ranks, which update their trailing rows. The
// triangular solves stream solution blocks through the same fan-out.
//
// This reproduces the baseline's two vulnerabilities the paper exploits:
// per-block synchronous broadcasts (latency-bound on distant clusters) and
// aggregate fill memory far above the multisplitting solver's per-band
// factors (the "nem" rows of Table 3). The fill wall also limits exact
// multisplitting once single bands fill heavily; core.Options.TwoStage
// (DESIGN.md §14, the `twostage` experiment) replaces the exact band
// solves with preconditioned sweeps whose memory is independent of the
// fill, reaching sizes where both direct modes answer "nem".
package dslu

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/simctx"
	"repro/internal/sparse"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// ErrZeroPivot is returned when static pivoting leaves a numerically zero
// pivot (the matrix is too indefinite for pivot-free elimination).
var ErrZeroPivot = errors.New("dslu: zero pivot under static pivoting")

// Message tags.
const (
	tagPivotBlock = 10
	tagFwdBlock   = 11
	tagBackBlock  = 12
	tagGatherX    = 13
)

// Options configures the distributed factorization.
type Options struct {
	// BlockSize is the block-cyclic distribution granularity (default 32).
	BlockSize int
	// TrackMemory accounts factor storage against host memory, enabling
	// the paper's "nem" (not enough memory) outcomes.
	TrackMemory bool
	// SkipOrdering disables the RCM preprocessing (used in tests).
	SkipOrdering bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.BlockSize <= 0 {
		out.BlockSize = 32
	}
	return out
}

// Result reports a distributed direct solve.
type Result struct {
	// X is the solution gathered at rank 0.
	X []float64
	// Time is the total virtual time of the slowest rank.
	Time float64
	// FactorTime is the virtual time when the factorization finished
	// (before the triangular solves), max over ranks.
	FactorTime float64
	// FillNNZ is the total number of stored factor entries across ranks.
	FillNNZ int64
	// BytesSent totals communication volume across ranks.
	BytesSent int64
}

// Pending is a solve registered on an engine.
type Pending struct {
	mu    sync.Mutex // guards res while ranks finish
	res   Result
	procs []*vgrid.Proc
	done  bool
}

// Result returns the outcome; it panics if the engine has not run.
func (p *Pending) Result() *Result {
	if !p.done {
		panic("dslu: Result read before the engine ran")
	}
	return &p.res
}

// Running reports whether any solver rank is still executing; background
// traffic generators use it as their shutdown condition.
func (p *Pending) Running() bool {
	for _, pr := range p.procs {
		if !pr.Done() {
			return true
		}
	}
	return false
}

// Finish marks the result readable. Call it after the engine has run; it is
// needed when ranks failed (e.g. out of memory) before filling the result.
func (p *Pending) Finish() { p.done = true }

// Launch registers the solver on the engine, one rank per host.
func Launch(e *vgrid.Engine, hosts []*vgrid.Host, a *sparse.CSR, b []float64, opt Options) (*Pending, error) {
	o := opt.withDefaults()
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("dslu: shape mismatch: A is %dx%d, len(b)=%d", a.Rows, a.Cols, len(b))
	}
	if len(hosts) == 0 {
		return nil, errors.New("dslu: no hosts")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dslu: order %d is beyond the int32 column index range", n)
	}
	// Static pivoting + fill-reducing ordering, computed identically by
	// every rank at load time (communication-free preprocessing).
	rowPerm, err := order.MaxTransversal(a)
	if err != nil {
		return nil, fmt.Errorf("dslu: static pivoting failed: %w", err)
	}
	bMat := a.Permute(rowPerm, nil)
	var rcm []int
	c := bMat
	if !o.SkipOrdering && n > 2 {
		rcm = order.RCM(bMat)
		c = bMat.Permute(rcm, rcm)
	}
	// Right-hand side in the permuted space: C v = w.
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		wi := rowPerm[i]
		if rcm != nil {
			wi = rcm[wi]
		}
		w[wi] = b[i]
	}
	pend := &Pending{}
	pend.procs = mp.Launch(e, hosts, "dslu", func(cm *mp.Comm) error {
		return dsluRank(cm, c, w, rcm, o, pend)
	})
	return pend, nil
}

// srow is a sorted sparse row: cols strictly increasing.
type srow struct {
	cols []int32
	vals []float64
}

// pivotBlock holds the finalized rows of one block the way the update kernel
// reads them: views of the fan-out payload, which is the block. Row k0+j has
// the diagonal piv[j] and, right of it, the columns cols[j] (exact integers)
// with the values vals[j]. Its column pattern is also kept as bits:
// words[wptr[j]:wptr[j+1]] are the words w0[j] onwards of a length-n bit row,
// from the word of its first column to that of its last.
type pivotBlock struct {
	k0         int
	piv        []float64
	cols, vals [][]float64
	w0, wptr   []int
	words      []uint64
}

func (b *pivotBlock) reset(k0 int) {
	b.k0, b.piv, b.cols, b.vals = k0, b.piv[:0], b.cols[:0], b.vals[:0]
	b.w0, b.wptr, b.words = b.w0[:0], append(b.wptr[:0], 0), b.words[:0]
}

// decode adds the rows of a fan-out payload, which must outlive the block:
// per pivot row k, the triple k, count, piv, then its count columns > k
// ascending, then their count values.
func (b *pivotBlock) decode(payload []float64) {
	for pos := 0; pos < len(payload); {
		cnt := int(payload[pos+1])
		cols := payload[pos+3:][:cnt]
		b.piv = append(b.piv, payload[pos+2])
		b.cols, b.vals = append(b.cols, cols), append(b.vals, payload[pos+3+cnt:][:cnt])
		w0, base := 0, len(b.words)
		if cnt > 0 {
			w0 = int(cols[0]) >> 6
			nw := int(cols[cnt-1])>>6 - w0 + 1
			b.words = slices.Grow(b.words, nw)[:base+nw]
			clear(b.words[base:])
		}
		for _, c := range cols {
			b.words[base+int(c)>>6-w0] |= 1 << (int(c) & 63)
		}
		b.w0, b.wptr = append(b.w0, w0), append(b.wptr, len(b.words))
		pos += 3 + 2*cnt
	}
}

// rowStore holds one rank's share of the matrix during elimination. Owned
// rows are addressed by local index: the rows of the rank's t-th block sit at
// t·BlockSize onwards.
type rowStore struct {
	nb int
	// rows[l] is what is left to eliminate of an owned row, and its U part
	// (cols >= the row) once finalized; lrows[l] holds its multipliers,
	// ascending because pivots are applied in order.
	rows, lrows []srow
	// bucket[b] lists the owned rows whose leading column lies in block b:
	// the rows block b's pivots reach, and no others.
	bucket [][]int32
	// lTrail[b] and uTrail[b] count the owned factor entries in the columns
	// of block b outside b's own rows: the work a triangular solve does when
	// block b's part of the solution arrives.
	lTrail, uTrail []int64
	entries        int64 // live stored entries (for memory accounting)
	// delta[j] is the net change of entries the block's pivot j has caused
	// in the running phase; dropped records that one of them was negative.
	delta   []int64
	dropped bool

	// The sparse accumulator: acc is zero and every bit of the row pattern
	// clear outside update. Column c is bit c&63 of bits[c>>6].
	acc  []float64
	bits []uint64
}

// file puts row l into the bucket of its leading column.
func (st *rowStore) file(l int) {
	if c := st.rows[l].cols; len(c) > 0 {
		b := int(c[0]) / st.nb
		st.bucket[b] = append(st.bucket[b], int32(l))
	}
}

// update applies the pivot rows of b, in ascending order, to the owned row
// l — row := row − (a_ik/piv_k)·pivotrow_k for every k the row reaches, a_ik
// moving into L — and returns how many applied. The row is scattered into the
// dense accumulator and its pattern into the bit row once, takes the pivots
// there in the order (and with the operations) a pivot-by-pivot sweep of
// sorted rows would, and is gathered once by walking the set bits. A pivot's
// fill is counted a word at a time: the bits its pattern adds to the row's.
//
// Every multiply-add of the package is written with the product converted,
// float64(a*b): the Go spec then forbids fusing it into one rounding, so the
// factors and solutions are the same bits on every GOARCH.
func (st *rowStore) update(l int, b *pivotBlock, cnt *vec.Counter) int {
	r, lr := &st.rows[l], &st.lrows[l]
	if len(r.cols) == 0 || int(r.cols[0]) >= b.k0+len(b.piv) {
		return 0
	}
	acc, row := st.acc, st.bits
	for t, c := range r.cols {
		acc[c] = r.vals[t]
		row[c>>6] |= 1 << (c & 63)
	}
	lo, hi := int(r.cols[0]), int(r.cols[len(r.cols)-1])
	nnz, had, flops := len(r.cols), len(lr.cols), 0
	for j := lo - b.k0; j < len(b.piv); j++ {
		k := b.k0 + j
		if row[k>>6]&(1<<(k&63)) == 0 {
			continue
		}
		aik := acc[k]
		acc[k] = 0
		row[k>>6] &^= 1 << (k & 63)
		nnz--
		if aik == 0 { // explicit zero: the entry goes, nothing else happens
			st.delta[j]--
			st.dropped = true
			continue
		}
		mult := aik / b.piv[j]
		lr.cols = append(lr.cols, int32(k))
		lr.vals = append(lr.vals, mult)
		pc, pv := b.cols[j], b.vals[j][:len(b.cols[j])]
		pw := b.words[b.wptr[j]:b.wptr[j+1]]
		rw := row[b.w0[j]:][:len(pw)]
		fill := 0 // 0 − mult·p entries
		for t, w := range pw {
			fill += bits.OnesCount64(w &^ rw[t])
			rw[t] |= w
		}
		for t, c := range pc {
			acc[int(c)] -= float64(mult * pv[t])
		}
		if len(pc) > 0 {
			hi = max(hi, int(pc[len(pc)-1]))
		}
		nnz += fill
		st.delta[j] += int64(fill) // a_ik left the row and entered L
		flops += 2*len(pc) + 1
	}
	cnt.Add(float64(flops))
	st.entries += int64(nnz + len(lr.cols) - had - len(r.cols))

	if cap(r.cols) < nnz || cap(r.vals) < nnz {
		r.cols, r.vals = make([]int32, 0, nnz), make([]float64, 0, nnz)
	}
	r.cols, r.vals = r.cols[:0], r.vals[:0]
	for wi := lo >> 6; wi <= hi>>6; wi++ {
		for w := row[wi]; w != 0; w &= w - 1 {
			c := wi<<6 | bits.TrailingZeros64(w)
			r.cols = append(r.cols, int32(c))
			r.vals = append(r.vals, acc[c])
			acc[c] = 0
		}
		row[wi] = 0
	}
	return len(lr.cols) - had
}

func dsluRank(cm *mp.Comm, c *sparse.CSR, w []float64, rcm []int, o Options, pend *Pending) error {
	n := c.Rows
	rank := cm.Rank()
	nprocs := cm.Size()
	nb := o.BlockSize
	nBlocks := (n + nb - 1) / nb
	ownerOf := func(block int) int { return block % nprocs }
	span := func(block int) (k0, k1 int) { return block * nb, min(block*nb+nb, n) }
	local := func(block int) int { return block / nprocs * nb } // of the block's first row
	ctx := simctx.New()
	ctx.Obs = obs.NewScope(cm.Proc().Obs(), cm.Proc().Name)
	if o.TrackMemory {
		ctx.Mem = cm.Proc()
	}
	cm.AttachCtx(ctx)
	factStart := cm.Now()
	cnt := ctx.Counter
	charge := cm.Charge
	st := &rowStore{
		nb:     nb,
		rows:   make([]srow, local(nBlocks-1)+nb),
		lrows:  make([]srow, local(nBlocks-1)+nb),
		bucket: make([][]int32, nBlocks),
		lTrail: make([]int64, nBlocks),
		uTrail: make([]int64, nBlocks),
		delta:  make([]int64, nb),
		acc:    make([]float64, n),
		bits:   make([]uint64, n/64+1),
	}
	// Memory accounting: 24 bytes an entry (value + column index + list
	// slot), charged at the high-water mark of a pivot-by-pivot sweep.
	// trackAlloc charges the rows as they are gathered, so a host that runs
	// out notices at once; settle closes an elimination phase. The two agree
	// unless an explicit zero was dropped on the way — then the per-pivot
	// deltas say what the sweep would have reached.
	var allocated, settled, base int64
	grow := func(want int64) error {
		if o.TrackMemory && want > allocated {
			if err := ctx.Alloc(want - allocated); err != nil {
				return err
			}
			allocated = want
		}
		return nil
	}
	trackAlloc := func() error { return grow(st.entries * 24) }
	settle := func() error {
		if st.dropped {
			want, run := settled, base
			for _, d := range st.delta {
				run += d
				want = max(want, run*24)
			}
			if want < allocated {
				cm.Proc().Free(allocated - want)
				allocated = want
			}
			if err := grow(want); err != nil {
				return err
			}
			st.dropped = false
		}
		clear(st.delta)
		settled, base = allocated, st.entries
		return nil
	}

	// Load owned rows.
	for blk := rank; blk < nBlocks; blk += nprocs {
		k0, k1 := span(blk)
		for k := k0; k < k1; k++ {
			lo, hi := c.RowPtr[k], c.RowPtr[k+1]
			r := &st.rows[local(blk)+k-k0]
			r.cols = make([]int32, hi-lo)
			for t, j := range c.ColInd[lo:hi] {
				r.cols[t] = int32(j)
			}
			r.vals = append([]float64(nil), c.Val[lo:hi]...)
			st.entries += int64(hi - lo)
			st.file(local(blk) + k - k0)
		}
	}
	cnt.Add(float64(c.NNZ())) // load/permute pass
	charge()
	if err := trackAlloc(); err != nil {
		return err
	}
	settled, base = allocated, st.entries

	// --- Factorization: blocked right-looking fan-out.
	var pb pivotBlock
	var payload []float64
	for blk := 0; blk < nBlocks; blk++ {
		k0, k1 := span(blk)
		oom := func(err error) error { return fmt.Errorf("dslu: block %d: %w", blk, err) }
		pb.reset(k0)
		done := 0         // the owner's local rows below it are the block's own
		var pk *mp.Packet // a received block lives until its update phase ends
		if ownerOf(blk) == rank {
			// Intra-block elimination: row k takes the finalized rows before
			// it, is finalized, and joins the fan-out payload, which is the
			// block (pivotBlock.decode has its layout).
			payload = payload[:0]
			done = local(blk) + k1 - k0
			for k := k0; k < k1; k++ {
				l := local(blk) + k - k0
				st.update(l, &pb, cnt)
				r := &st.rows[l]
				if len(r.cols) == 0 || int(r.cols[0]) != k || r.vals[0] == 0 {
					return fmt.Errorf("%w: row %d", ErrZeroPivot, k)
				}
				if err := trackAlloc(); err != nil {
					return oom(err)
				}
				from := len(payload)
				payload = append(payload, float64(k), float64(len(r.cols)-1), r.vals[0])
				for _, j := range r.cols[1:] {
					payload = append(payload, float64(j))
					if int(j) >= k1 {
						st.uTrail[int(j)/nb]++
					}
				}
				payload = append(payload, r.vals[1:]...)
				pb.decode(payload[from:])
			}
			if err := settle(); err != nil {
				return oom(err)
			}
			charge()
			for r := 0; r < nprocs; r++ {
				if r != rank {
					if err := cm.SendFloats(r, tagPivotBlock, payload); err != nil {
						return err
					}
				}
			}
		} else {
			pk = cm.Recv(ownerOf(blk), tagPivotBlock)
			pb.decode(pk.Floats)
		}
		// Update phase: every owned trailing row the block reaches takes its
		// pivot rows and moves to the bucket of its new leading column.
		for _, l := range st.bucket[blk] {
			if int(l) < done {
				continue
			}
			st.lTrail[blk] += int64(st.update(int(l), &pb, cnt))
			st.file(int(l))
			if err := trackAlloc(); err != nil {
				return oom(err)
			}
		}
		st.bucket[blk] = nil
		cm.Release(pk)
		if err := settle(); err != nil {
			return oom(err)
		}
		charge()
	}
	factEnd := cm.Now()
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatFact, Name: "factor",
			Start: factStart, End: factEnd, Flops: cnt.Flops()})
	}

	// --- Forward solve: L y = w, streaming y blocks in ascending order. The
	// fan-out algorithm subtracts l_ik·y_k from row i's right-hand side when
	// block k/nb arrives, in ascending k: the running sum below, taken when
	// row i's own turn comes, with the flops booked block by block as the
	// algorithm spends them.
	y := make([]float64, n)
	var sol []float64
	for blk := 0; blk < nBlocks; blk++ {
		k0, k1 := span(blk)
		if ownerOf(blk) == rank {
			for k := k0; k < k1; k++ {
				lr := &st.lrows[local(blk)+k-k0]
				s := w[k]
				intra := 0
				for t, j := range lr.cols {
					s -= float64(lr.vals[t] * y[j])
					if int(j) >= k0 {
						intra++
					}
				}
				cnt.Add(2 * float64(intra))
				y[k] = s
			}
			sol = append(append(sol[:0], float64(k0)), y[k0:k1]...)
			charge()
			for r := 0; r < nprocs; r++ {
				if r != rank {
					if err := cm.SendFloats(r, tagFwdBlock, sol); err != nil {
						return err
					}
				}
			}
		} else {
			pk := cm.Recv(ownerOf(blk), tagFwdBlock)
			copy(y[int(pk.Floats[0]):], pk.Floats[1:])
			cm.Release(pk)
		}
		cnt.Add(2 * float64(st.lTrail[blk])) // applied to owned future rows
		charge()
	}

	fsolveEnd := cm.Now()
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatPhase, Name: "fsolve",
			Start: factEnd, End: fsolveEnd})
	}

	// --- Back substitution: U x = y, streaming x blocks in descending order.
	// Row i's sum again runs when its turn comes, in the order the fan-out
	// subtracts: the blocks right of its own from the last one down, columns
	// ascending inside each, then its own block's.
	x := make([]float64, n)
	for blk := nBlocks - 1; blk >= 0; blk-- {
		k0, k1 := span(blk)
		if ownerOf(blk) == rank {
			for k := k1 - 1; k >= k0; k-- {
				r := &st.rows[local(blk)+k-k0]
				s := y[k]
				in := 1 // r.cols[1:in] are the intra-block U entries
				for in < len(r.cols) && int(r.cols[in]) < k1 {
					in++
				}
				for e := len(r.cols); e > in; {
					from := e - 1
					for lim := r.cols[from] / int32(nb) * int32(nb); from > in && r.cols[from-1] >= lim; {
						from--
					}
					for t := from; t < e; t++ {
						s -= float64(r.vals[t] * x[r.cols[t]])
					}
					e = from
				}
				for t := 1; t < in; t++ {
					s -= float64(r.vals[t] * x[r.cols[t]])
				}
				cnt.Add(2 * float64(in-1))
				x[k] = s / r.vals[0]
			}
			sol = append(append(sol[:0], float64(k0)), x[k0:k1]...)
			charge()
			for r := 0; r < nprocs; r++ {
				if r != rank {
					if err := cm.SendFloats(r, tagBackBlock, sol); err != nil {
						return err
					}
				}
			}
		} else {
			pk := cm.Recv(ownerOf(blk), tagBackBlock)
			copy(x[int(pk.Floats[0]):], pk.Floats[1:])
			cm.Release(pk)
		}
		cnt.Add(2 * float64(st.uTrail[blk])) // applied to owned earlier rows
		charge()
	}

	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatPhase, Name: "bsolve",
			Start: fsolveEnd, End: cm.Now()})
	}

	// --- Gather the solution (undo the RCM permutation) at rank 0.
	if rank != 0 {
		sol = sol[:0]
		for blk := rank; blk < nBlocks; blk += nprocs {
			for k, k1 := span(blk); k < k1; k++ {
				sol = append(sol, float64(k), x[k])
			}
		}
		if err := cm.SendFloats(0, tagGatherX, sol); err != nil {
			return err
		}
	} else {
		for r := 1; r < nprocs; r++ {
			pk := cm.Recv(r, tagGatherX)
			for t := 0; t+1 < len(pk.Floats); t += 2 {
				x[int(pk.Floats[t])] = pk.Floats[t+1]
			}
			cm.Release(pk)
		}
		out := x
		if rcm != nil {
			out = make([]float64, n)
			for j := 0; j < n; j++ {
				out[j] = x[rcm[j]]
			}
		}
		pend.res.X = out
	}

	// Statistics. Ranks on different scheduler lanes finish concurrently.
	pend.mu.Lock()
	defer pend.mu.Unlock()
	if factEnd > pend.res.FactorTime {
		pend.res.FactorTime = factEnd
	}
	pend.res.FillNNZ += st.entries // every stored entry is a factor entry now
	pend.res.BytesSent += cm.Proc().BytesSent
	if end := cm.Now(); end > pend.res.Time {
		pend.res.Time = end
	}
	pend.done = true
	return nil
}
