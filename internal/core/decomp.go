// Package core implements the paper's contribution: multisplitting-direct
// linear solvers. The matrix is split into L (possibly overlapping) horizontal
// bands; each processor direct-solves its band subsystem
//
//	ASub·XSub = BSub − DepLeft·XLeft − DepRight·XRight
//
// with any sequential direct method and exchanges only boundary solution
// components, yielding a coarse-grained iteration whose synchronous and
// asynchronous variants converge under the spectral conditions of the
// paper's Theorem 1. The weighting matrices E_lk of the algorithmic model
// (Section 3) are realized by the WeightScheme: the owner scheme gives the
// block-Jacobi / multisubdomain-Schwarz family, the averaging scheme gives
// O'Leary–White multisplitting and the additive Schwarz analogue.
package core

import (
	"fmt"
	"slices"
	"strings"
)

// WeightScheme selects the E_lk weighting family of Section 3 eq. (4). It is
// a flag.Value over SchemeNames.
type WeightScheme int

const (
	// WeightOwner takes every solution component from the band that owns it
	// (its non-overlapped partition cell): (E_k)_ii = 1 iff band k owns i.
	// With zero overlap this is exactly block Jacobi (paper Remark 1); with
	// overlap it is the discrete multisubdomain Schwarz method (Section 4.3).
	WeightOwner WeightScheme = iota
	// WeightAverage splits every component equally among the bands whose
	// index sets contain it: the O'Leary–White choice E_lk = E_k with
	// Σ_k E_k = I (Section 4.1); with two overlapping bands it is the
	// discrete additive Schwarz analogue (Section 4.2).
	WeightAverage
	// WeightLinear ramps each band's weight linearly from zero at the
	// outer edge of its overlap region to full weight on its owned cell (a
	// smooth partition of unity, the classical weighted-Schwarz choice; a
	// further E_k family admitted by Section 3's eq. 4).
	WeightLinear
)

// SchemeNames lists the weighting schemes' names, indexed by WeightScheme.
var SchemeNames = []string{"owner", "average", "linear"}

// String returns the scheme name.
func (w WeightScheme) String() string { return enumString(SchemeNames, "WeightScheme", w) }

// Set parses a scheme name.
func (w *WeightScheme) Set(name string) error { return enumSet(SchemeNames, "weight scheme", name, w) }

// enumString names v from names, the list a typed option's values index.
func enumString[E ~int](names []string, typ string, v E) string {
	if v >= 0 && int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, int(v))
}

// enumSet sets *v to the index of name in names.
func enumSet[E ~int](names []string, what, name string, v *E) error {
	i := slices.Index(names, name)
	if i < 0 {
		return fmt.Errorf("unknown %s %q (want %s)", what, name, strings.Join(names, ", "))
	}
	*v = E(i)
	return nil
}

// enumRange is the RangeError of a typed option's value outside names.
func enumRange[E ~int](names []string, field string, v E) error {
	if v >= 0 && int(v) < len(names) {
		return nil
	}
	return &RangeError{field, v, "one of " + strings.Join(names, ", ")}
}

// Band is one subset J_l of the unknown indices: the band solves rows
// [Lo, Hi) and owns the partition cell [Start, End) ⊆ [Lo, Hi).
type Band struct {
	Start, End int // owned (disjoint) partition cell
	Lo, Hi     int // solved range including overlap
}

// Size returns the dimension of the band's subsystem.
func (b Band) Size() int { return b.Hi - b.Lo }

// Contains reports whether global index j is solved by this band.
func (b Band) Contains(j int) bool { return j >= b.Lo && j < b.Hi }

// Owns reports whether global index j is in the band's partition cell.
func (b Band) Owns(j int) bool { return j >= b.Start && j < b.End }

// Decomposition is a multisplitting of an n-dimensional system into L bands
// with a weighting scheme. The owned cells partition {0..n-1}; the solved
// ranges may overlap (the subsets J_l of Section 2.1 need not be disjoint).
type Decomposition struct {
	// N is the system dimension.
	N int
	// Overlap is the number of rows each band extends past its partition
	// cell on both sides.
	Overlap int
	// Scheme selects how overlapping components are weighted.
	Scheme WeightScheme
	// Bands lists the per-rank bands, in rank order.
	Bands []Band
}

// NewDecomposition splits n unknowns into nb near-equal contiguous bands,
// each extended by overlap rows on both sides (clamped at the boundary).
func NewDecomposition(n, nb, overlap int, scheme WeightScheme) (*Decomposition, error) {
	if nb < 1 || nb > n {
		return nil, fmt.Errorf("core: cannot split %d unknowns into %d bands", n, nb)
	}
	if overlap < 0 {
		return nil, fmt.Errorf("core: negative overlap %d", overlap)
	}
	d := &Decomposition{N: n, Overlap: overlap, Scheme: scheme}
	for l := 0; l < nb; l++ {
		start := l * n / nb
		end := (l + 1) * n / nb
		lo := start - overlap
		if lo < 0 {
			lo = 0
		}
		hi := end + overlap
		if hi > n {
			hi = n
		}
		d.Bands = append(d.Bands, Band{Start: start, End: end, Lo: lo, Hi: hi})
	}
	return d, nil
}

// NewDecompositionFromStarts builds a decomposition from explicit partition
// boundaries starts (len nb+1, starts[0]=0, starts[nb]=n, strictly
// increasing), useful for load balancing across heterogeneous hosts.
func NewDecompositionFromStarts(n int, starts []int, overlap int, scheme WeightScheme) (*Decomposition, error) {
	if len(starts) < 2 || starts[0] != 0 || starts[len(starts)-1] != n {
		return nil, fmt.Errorf("core: starts must span [0,%d], got %v", n, starts)
	}
	if overlap < 0 {
		return nil, fmt.Errorf("core: negative overlap %d", overlap)
	}
	d := &Decomposition{N: n, Overlap: overlap, Scheme: scheme}
	for l := 0; l+1 < len(starts); l++ {
		if starts[l+1] <= starts[l] {
			return nil, fmt.Errorf("core: empty band %d in starts %v", l, starts)
		}
		lo := starts[l] - overlap
		if lo < 0 {
			lo = 0
		}
		hi := starts[l+1] + overlap
		if hi > n {
			hi = n
		}
		d.Bands = append(d.Bands, Band{Start: starts[l], End: starts[l+1], Lo: lo, Hi: hi})
	}
	return d, nil
}

// L returns the number of bands.
func (d *Decomposition) L() int { return len(d.Bands) }

// Starts returns the partition boundaries (len L+1: starts[0]=0,
// starts[L]=N) — the inverse of NewDecompositionFromStarts, and the current
// state the resplit controller perturbs.
func (d *Decomposition) Starts() []int {
	starts := make([]int, d.L()+1)
	for l, b := range d.Bands {
		starts[l] = b.Start
	}
	starts[d.L()] = d.N
	return starts
}

// Clone returns an independent copy of the decomposition. Ranks that are
// about to Resplit work on a clone, so the construction-time object other
// ranks may still be reading is never mutated under them.
func (d *Decomposition) Clone() *Decomposition {
	out := *d
	out.Bands = append([]Band(nil), d.Bands...)
	return &out
}

// Resplit transitions the decomposition in place to the new partition
// boundaries and overlap width, keeping N and the weighting scheme. The band
// count must stay the same (each rank keeps exactly one band); everything
// else — owned cells, solved ranges, weights — is re-derived. It is the
// mutation primitive behind the adaptive controller's online rebalancing.
func (d *Decomposition) Resplit(starts []int, overlap int) error {
	if len(starts) != d.L()+1 {
		return fmt.Errorf("core: resplit with %d starts for %d bands", len(starts), d.L())
	}
	d2, err := NewDecompositionFromStarts(d.N, starts, overlap, d.Scheme)
	if err != nil {
		return err
	}
	d.Overlap = overlap
	copy(d.Bands, d2.Bands)
	return nil
}

// Owner returns the band index owning global index j.
func (d *Decomposition) Owner(j int) int {
	for k, b := range d.Bands {
		if b.Owns(j) {
			return k
		}
	}
	panic(fmt.Sprintf("core: index %d owned by no band", j))
}

// Contributors returns the bands whose weight at global index j is nonzero,
// in increasing band order.
func (d *Decomposition) Contributors(j int) []int {
	return d.ContributorsInto(j, nil)
}

// ContributorsInto appends the contributing bands for index j to buf[:0] and
// returns the slice — the allocation-free form the plan builder sweeps with.
func (d *Decomposition) ContributorsInto(j int, buf []int) []int {
	buf = buf[:0]
	switch d.Scheme {
	case WeightOwner:
		return append(buf, d.Owner(j))
	case WeightAverage, WeightLinear:
		for k, b := range d.Bands {
			if b.Contains(j) && d.Weight(k, j) > 0 {
				buf = append(buf, k)
			}
		}
		return buf
	default:
		panic("core: unknown weight scheme")
	}
}

// rawLinear is the unnormalized linear-ramp weight of band k at index j:
// 1 on the owned cell, falling linearly to (but not reaching) 0 at the
// outer edges of the overlap regions.
func (d *Decomposition) rawLinear(k, j int) float64 {
	b := d.Bands[k]
	switch {
	case !b.Contains(j):
		return 0
	case b.Owns(j):
		return 1
	case j < b.Start:
		return float64(j-b.Lo+1) / float64(b.Start-b.Lo+1)
	default: // j >= b.End
		return float64(b.Hi-j) / float64(b.Hi-b.End+1)
	}
}

// Weight returns the diagonal weight (E_k)_jj of band k at global index j.
// Weights are nonnegative and sum to one over k for every j (eq. 4).
func (d *Decomposition) Weight(k, j int) float64 {
	b := d.Bands[k]
	switch d.Scheme {
	case WeightOwner:
		if b.Owns(j) {
			return 1
		}
		return 0
	case WeightAverage:
		if !b.Contains(j) {
			return 0
		}
		cnt := 0
		for _, bb := range d.Bands {
			if bb.Contains(j) {
				cnt++
			}
		}
		return 1 / float64(cnt)
	case WeightLinear:
		raw := d.rawLinear(k, j)
		if raw == 0 {
			return 0
		}
		sum := 0.0
		for kk := range d.Bands {
			sum += d.rawLinear(kk, j)
		}
		return raw / sum
	default:
		panic("core: unknown weight scheme")
	}
}

// Validate checks the partition and weight invariants: owned cells are
// disjoint and cover [0,n), each inside its solved range, and weights sum to
// one at every index.
func (d *Decomposition) Validate() error {
	covered := 0
	for l, b := range d.Bands {
		if b.Start != covered {
			return fmt.Errorf("core: band %d starts at %d, want %d", l, b.Start, covered)
		}
		if b.End <= b.Start {
			return fmt.Errorf("core: band %d empty", l)
		}
		if b.Lo > b.Start || b.Hi < b.End || b.Lo < 0 || b.Hi > d.N {
			return fmt.Errorf("core: band %d range [%d,%d) does not contain cell [%d,%d)", l, b.Lo, b.Hi, b.Start, b.End)
		}
		covered = b.End
	}
	if covered != d.N {
		return fmt.Errorf("core: bands cover %d of %d unknowns", covered, d.N)
	}
	for j := 0; j < d.N; j++ {
		sum := 0.0
		for k := range d.Bands {
			w := d.Weight(k, j)
			if w < 0 {
				return fmt.Errorf("core: negative weight at band %d index %d", k, j)
			}
			sum += w
		}
		if diff := sum - 1; diff > 1e-12 || diff < -1e-12 {
			return fmt.Errorf("core: weights at index %d sum to %v", j, sum)
		}
	}
	return nil
}
