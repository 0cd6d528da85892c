package dslu

// The distributed-LU rank body as it stood before the accumulator kernel:
// sorted rows merged through a scratch pair once per pivot per row, touched
// rows found through column→rows maps, both triangular solves applying every
// entry the moment its block arrives. Kept verbatim (types renamed ref*) as
// the oracle the kernel in dslu.go is compared with, entry by entry, in
// TestMatchesReference. The additions are the block index wrapped around an
// out-of-memory error, which dslu.go reports too, and the float64 conversion
// of each product that the package's no-fusion rule (see rowStore.update)
// asks for.

import (
	"fmt"
	"sort"

	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/simctx"
	"repro/internal/sparse"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// refSrow is a sorted sparse row: cols strictly increasing.
type refSrow struct {
	cols []int
	vals []float64
}

// find returns the position of col j, or -1.
func (r *refSrow) find(j int) int {
	k := sort.SearchInts(r.cols, j)
	if k < len(r.cols) && r.cols[k] == j {
		return k
	}
	return -1
}

// refRowStore holds one rank's share of the matrix during elimination.
type refRowStore struct {
	// rows[i] holds owned, not-yet-finalized rows, and the U part
	// (cols >= i) once finalized.
	rows map[int]*refSrow
	// lrows[i] holds the multipliers of owned rows; columns are appended
	// in ascending order because pivots are processed in order.
	lrows map[int]*refSrow
	// colRows[j] lists owned rows known to carry an entry in column j
	// (may contain stale/finalized rows; filtered at use).
	colRows map[int][]int
	// colRowsL and colRowsU index the factor entries for the solves.
	colRowsL map[int][]int
	colRowsU map[int][]int
	entries  int64 // live stored entries (for memory accounting)

	// merge scratch buffers.
	scratchC []int
	scratchV []float64
}

// eliminate applies pivot row (k, piv, pcols, pvals) to owned row i:
// row_i := row_i − (a_ik/piv)·pivotrow, moving a_ik into L. pcols must be
// sorted ascending with all entries > k.
func (st *refRowStore) eliminate(i, k int, piv float64, pcols []int, pvals []float64, cnt *vec.Counter) {
	r := st.rows[i]
	kp := r.find(k)
	if kp < 0 {
		return
	}
	aik := r.vals[kp]
	if aik == 0 {
		r.cols = append(r.cols[:kp], r.cols[kp+1:]...)
		r.vals = append(r.vals[:kp], r.vals[kp+1:]...)
		st.entries--
		return
	}
	mult := aik / piv
	lr := st.lrows[i]
	lr.cols = append(lr.cols, k)
	lr.vals = append(lr.vals, mult)
	st.colRowsL[k] = append(st.colRowsL[k], i)

	// Merge r (minus position kp) with −mult·pivot into the scratch row.
	nc := st.scratchC[:0]
	nv := st.scratchV[:0]
	ai, bi := 0, 0
	added := 0
	for ai < len(r.cols) || bi < len(pcols) {
		if ai == kp {
			ai++
			continue
		}
		switch {
		case bi >= len(pcols) || (ai < len(r.cols) && r.cols[ai] < pcols[bi]):
			nc = append(nc, r.cols[ai])
			nv = append(nv, r.vals[ai])
			ai++
		case ai >= len(r.cols) || pcols[bi] < r.cols[ai]:
			j := pcols[bi]
			nc = append(nc, j)
			nv = append(nv, -mult*pvals[bi])
			st.colRows[j] = append(st.colRows[j], i)
			added++
			bi++
		default: // equal columns
			nc = append(nc, r.cols[ai])
			nv = append(nv, r.vals[ai]-float64(mult*pvals[bi]))
			ai++
			bi++
		}
	}
	st.scratchC = nc[:0]
	st.scratchV = nv[:0]
	r.cols = append(r.cols[:0], nc...)
	r.vals = append(r.vals[:0], nv...)
	st.entries += int64(added) // +fill −1 (moved to L) +1 (L entry)
	cnt.Add(2*float64(len(pcols)) + 1)
}

func refRank(cm *mp.Comm, c *sparse.CSR, w []float64, rcm []int, o Options, pend *Pending) error {
	n := c.Rows
	rank := cm.Rank()
	nprocs := cm.Size()
	nb := o.BlockSize
	nBlocks := (n + nb - 1) / nb
	ownerOf := func(block int) int { return block % nprocs }
	ctx := simctx.New()
	ctx.Obs = obs.NewScope(cm.Proc().Obs(), cm.Proc().Name)
	if o.TrackMemory {
		ctx.Mem = cm.Proc()
	}
	cm.AttachCtx(ctx)
	factStart := cm.Now()
	cnt := ctx.Counter
	charge := cm.Charge
	allocated := int64(0)
	trackAlloc := func(s *refRowStore) error {
		want := s.entries * 24 // value + column index + list slot
		if want > allocated {
			if err := ctx.Alloc(want - allocated); err != nil {
				return err
			}
			allocated = want
		}
		return nil
	}

	// Load owned rows.
	st := &refRowStore{
		rows:     map[int]*refSrow{},
		lrows:    map[int]*refSrow{},
		colRows:  map[int][]int{},
		colRowsL: map[int][]int{},
		colRowsU: map[int][]int{},
		scratchC: make([]int, 0, 256),
		scratchV: make([]float64, 0, 256),
	}
	myRHS := map[int]float64{}
	for i := 0; i < n; i++ {
		if ownerOf(i/nb) != rank {
			continue
		}
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		r := &refSrow{
			cols: append([]int(nil), c.ColInd[lo:hi]...),
			vals: append([]float64(nil), c.Val[lo:hi]...),
		}
		for _, j := range r.cols {
			st.colRows[j] = append(st.colRows[j], i)
		}
		st.entries += int64(hi - lo)
		st.rows[i] = r
		st.lrows[i] = &refSrow{}
		myRHS[i] = w[i]
	}
	cnt.Add(float64(c.NNZ())) // load/permute pass
	charge()
	if err := trackAlloc(st); err != nil {
		return err
	}

	// --- Factorization: blocked right-looking fan-out.
	for blk := 0; blk < nBlocks; blk++ {
		k0 := blk * nb
		k1 := k0 + nb
		if k1 > n {
			k1 = n
		}
		own := ownerOf(blk) == rank
		// The broadcast payload: for each pivot row k: k, count, piv, then
		// (col, val) pairs with cols > k in ascending order.
		var payload []float64
		if own {
			// Intra-block elimination.
			for k := k0; k < k1; k++ {
				prow := st.rows[k]
				dp := prow.find(k)
				if dp < 0 || prow.vals[dp] == 0 {
					return fmt.Errorf("%w: row %d", ErrZeroPivot, k)
				}
				piv := prow.vals[dp]
				pcols := prow.cols[dp+1:]
				pvals := prow.vals[dp+1:]
				for i := k + 1; i < k1; i++ {
					if _, mine := st.rows[i]; mine {
						st.eliminate(i, k, piv, pcols, pvals, cnt)
					}
				}
				if err := trackAlloc(st); err != nil {
					return fmt.Errorf("dslu: block %d: %w", blk, err)
				}
			}
			// Finalized: register U entries for the back solve and build
			// the fan-out payload.
			for k := k0; k < k1; k++ {
				prow := st.rows[k]
				dp := prow.find(k)
				piv := prow.vals[dp]
				payload = append(payload, float64(k), float64(len(prow.cols)-dp-1), piv)
				for t := dp + 1; t < len(prow.cols); t++ {
					payload = append(payload, float64(prow.cols[t]), prow.vals[t])
					st.colRowsU[prow.cols[t]] = append(st.colRowsU[prow.cols[t]], k)
				}
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
			pk := cm.Recv(ownerOf(blk), tagPivotBlock)
			payload = pk.Floats
		}
		// Update phase: apply every pivot row of the block, in order, to
		// owned trailing rows.
		pos := 0
		var pcols []int
		var pvals []float64
		for pos < len(payload) {
			k := int(payload[pos])
			cnt2 := int(payload[pos+1])
			piv := payload[pos+2]
			pos += 3
			pcols = pcols[:0]
			pvals = pvals[:0]
			for t := 0; t < cnt2; t++ {
				pcols = append(pcols, int(payload[pos]))
				pvals = append(pvals, payload[pos+1])
				pos += 2
			}
			for _, i := range st.colRows[k] {
				if i < k1 {
					continue // finalized or handled intra-block
				}
				if _, mine := st.rows[i]; !mine {
					continue
				}
				st.eliminate(i, k, piv, pcols, pvals, cnt)
			}
			delete(st.colRows, k)
			if err := trackAlloc(st); err != nil {
				return fmt.Errorf("dslu: block %d: %w", blk, err)
			}
		}
		charge()
	}
	factEnd := cm.Now()
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatFact, Name: "factor",
			Start: factStart, End: factEnd, Flops: cnt.Flops()})
	}

	// --- Forward solve: L y = w, streaming y blocks in ascending order.
	y := make([]float64, n)
	for blk := 0; blk < nBlocks; blk++ {
		k0 := blk * nb
		k1 := k0 + nb
		if k1 > n {
			k1 = n
		}
		own := ownerOf(blk) == rank
		if own {
			for k := k0; k < k1; k++ {
				s := myRHS[k]
				lr := st.lrows[k]
				// Entries with col >= k0 are intra-block (cols ascending).
				t0 := sort.SearchInts(lr.cols, k0)
				for t := t0; t < len(lr.cols); t++ {
					s -= float64(lr.vals[t] * y[lr.cols[t]])
				}
				cnt.Add(2 * float64(len(lr.cols)-t0))
				y[k] = s
			}
			yblk := append([]float64{float64(k0)}, y[k0:k1]...)
			charge()
			for r := 0; r < nprocs; r++ {
				if r != rank {
					if err := cm.SendFloats(r, tagFwdBlock, yblk); err != nil {
						return err
					}
				}
			}
		} else {
			pk := cm.Recv(ownerOf(blk), tagFwdBlock)
			base := int(pk.Floats[0])
			copy(y[base:base+len(pk.Floats)-1], pk.Floats[1:])
		}
		// Apply to owned future rows.
		for k := k0; k < k1; k++ {
			for _, i := range st.colRowsL[k] {
				if i >= k1 {
					lr := st.lrows[i]
					if t := lr.find(k); t >= 0 {
						myRHS[i] -= float64(lr.vals[t] * y[k])
						cnt.Add(2)
					}
				}
			}
		}
		charge()
	}

	fsolveEnd := cm.Now()
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatPhase, Name: "fsolve",
			Start: factEnd, End: fsolveEnd})
	}

	// --- Back substitution: U x = y, streaming x blocks in descending order.
	x := make([]float64, n)
	yAcc := map[int]float64{}
	for i := range st.rows {
		yAcc[i] = y[i]
	}
	for blk := nBlocks - 1; blk >= 0; blk-- {
		k0 := blk * nb
		k1 := k0 + nb
		if k1 > n {
			k1 = n
		}
		own := ownerOf(blk) == rank
		if own {
			for k := k1 - 1; k >= k0; k-- {
				row := st.rows[k]
				dp := row.find(k)
				if dp < 0 || row.vals[dp] == 0 {
					return fmt.Errorf("%w: diagonal %d", ErrZeroPivot, k)
				}
				s := yAcc[k]
				// Intra-block U entries: k < col < k1 (cols ascending).
				for t := dp + 1; t < len(row.cols) && row.cols[t] < k1; t++ {
					s -= float64(row.vals[t] * x[row.cols[t]])
					cnt.Add(2)
				}
				x[k] = s / row.vals[dp]
			}
			xblk := append([]float64{float64(k0)}, x[k0:k1]...)
			charge()
			for r := 0; r < nprocs; r++ {
				if r != rank {
					if err := cm.SendFloats(r, tagBackBlock, xblk); err != nil {
						return err
					}
				}
			}
		} else {
			pk := cm.Recv(ownerOf(blk), tagBackBlock)
			base := int(pk.Floats[0])
			copy(x[base:base+len(pk.Floats)-1], pk.Floats[1:])
		}
		// Apply to owned earlier rows (U entries from rows before this
		// block into this block's columns).
		for k := k0; k < k1; k++ {
			for _, i := range st.colRowsU[k] {
				if i < k0 {
					if row, mine := st.rows[i]; mine {
						if t := row.find(k); t >= 0 {
							yAcc[i] -= float64(row.vals[t] * x[k])
							cnt.Add(2)
						}
					}
				}
			}
		}
		charge()
	}

	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatPhase, Name: "bsolve",
			Start: fsolveEnd, End: cm.Now()})
	}

	// --- Gather the solution (undo the RCM permutation) at rank 0.
	if rank != 0 {
		var mine []float64
		for i := range st.rows {
			mine = append(mine, float64(i), x[i])
		}
		if err := cm.SendFloats(0, tagGatherX, mine); err != nil {
			return err
		}
	} else {
		full := make([]float64, n)
		for i := range st.rows {
			full[i] = x[i]
		}
		for r := 1; r < nprocs; r++ {
			pk := cm.Recv(r, tagGatherX)
			for t := 0; t+1 < len(pk.Floats); t += 2 {
				full[int(pk.Floats[t])] = pk.Floats[t+1]
			}
		}
		out := make([]float64, n)
		if rcm != nil {
			for j := 0; j < n; j++ {
				out[j] = full[rcm[j]]
			}
		} else {
			copy(out, full)
		}
		pend.res.X = out
	}

	// Statistics (single-threaded engine: plain writes).
	if factEnd > pend.res.FactorTime {
		pend.res.FactorTime = factEnd
	}
	var fill int64
	for _, lr := range st.lrows {
		fill += int64(len(lr.cols))
	}
	for _, r := range st.rows {
		fill += int64(len(r.cols))
	}
	pend.res.FillNNZ += fill
	pend.res.BytesSent += cm.Proc().BytesSent
	if end := cm.Now(); end > pend.res.Time {
		pend.res.Time = end
	}
	pend.done = true
	return nil
}

// refLaunch is Launch with the reference rank body.
func refLaunch(e *vgrid.Engine, hosts []*vgrid.Host, a *sparse.CSR, b []float64, opt Options) (*Pending, error) {
	o := opt.withDefaults()
	n := a.Rows
	rowPerm, err := order.MaxTransversal(a)
	if err != nil {
		return nil, err
	}
	bMat := a.Permute(rowPerm, nil)
	var rcm []int
	c := bMat
	if !o.SkipOrdering && n > 2 {
		rcm = order.RCM(bMat)
		c = bMat.Permute(rcm, rcm)
	}
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
		return refRank(cm, c, w, rcm, o, pend)
	})
	return pend, nil
}
