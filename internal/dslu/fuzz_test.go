package dslu

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

// fuzzSystem decodes a square matrix of order 2 + n%149 from a fuzz input,
// so that rows and their fill straddle the 64-column words of the update's
// bit rows. Every three bytes of data are one entry: row, column (both modulo
// the order) and a value of int8(byte)/16. A zero value stays an explicit
// zero and a repeated position sums, so exact cancellations are a matter of
// repeating a row's values. Bit 6 of opts adds 4 to every diagonal entry,
// which makes most inputs nonsingular.
func fuzzSystem(n, opts uint8, data []byte) *sparse.CSR {
	order := 2 + int(n)%149
	co := sparse.NewCOO(order, order)
	for ; len(data) >= 3; data = data[3:] {
		co.Append(int(data[0])%order, int(data[1])%order, float64(int8(data[2]))/16)
	}
	if opts&0x40 != 0 {
		for i := 0; i < order; i++ {
			co.Append(i, i, 4)
		}
	}
	return co.ToCSR()
}

// fuzzSeed encodes a matrix of order 2 + n for fuzzSystem: its entries must
// be multiples of 1/16, and those beyond int8's range are split into parts.
func fuzzSeed(a *sparse.CSR) (uint8, []byte) {
	var data []byte
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			v := int(a.Val[p] * 16)
			for {
				part := max(-128, min(127, v))
				data = append(data, byte(i), byte(a.ColInd[p]), byte(int8(part)))
				if v -= part; v == 0 {
					break
				}
			}
		}
	}
	return uint8(a.Rows - 2), data
}

// wordEdges is a system of order 150 whose row 0 reaches columns 63, 64, 127
// and 128, the last and first columns of 64-column words, and whose rows
// there lead with column 0: their fill from pivot 0 starts and ends on word
// boundaries.
func wordEdges() *sparse.CSR {
	co := sparse.NewCOO(150, 150)
	for i := 0; i < 150; i++ {
		co.Append(i, i, 6)
	}
	for _, c := range []int{63, 64, 127, 128} {
		co.Append(0, c, 1)
		co.Append(c, 0, 2)
		co.Append(c, 149-c, -1)
	}
	return co.ToCSR()
}

// FuzzDSLUMatchesReference holds the elimination kernel to the pivot-by-pivot
// reference (sameOutcome, with memory tracking on) on systems whose pattern
// and values come from the input (see fuzzSystem). The block size is
// 1 + nb%40; opts picks 1 + (opts&3)%3 ranks and, with bit 2, skips the RCM
// ordering. A structurally singular input must be refused by both, a zero
// pivot must fail both with the same error at the same virtual time. The
// seeds — the oracle's named shapes, word-boundary rows and random entry
// lists with and without the diagonal boost — run under go test; to search
// beyond them:
//
//	go test -run '^$' -fuzz FuzzDSLUMatchesReference -fuzztime 60s -parallel 1 ./internal/dslu
func FuzzDSLUMatchesReference(f *testing.F) {
	const boost, skip = 0x40, 4
	for i, a := range []*sparse.CSR{needsTransversal(), cancelling(), dropsBeforeFill(), cancellingWide(90), wordEdges()} {
		n, data := fuzzSeed(a)
		f.Add(n, uint8(1+i%4), uint8(skip|i%3), data)
		f.Add(n, uint8(31+i), uint8(2), data)
	}
	// TestZeroPivotMatchesReference's system: after pivot 1, row 3's
	// diagonal is a stored zero.
	zeroPivot := []byte{0, 0, 64, 0, 2, 16, 1, 1, 32, 1, 3, 16, 1, 4, 16, 2, 2, 48, 2, 0, 16,
		3, 1, 64, 3, 3, 32, 3, 4, 32, 4, 4, 80, 4, 3, 16}
	f.Add(uint8(3), uint8(1), uint8(skip), zeroPivot)
	f.Add(uint8(3), uint8(2), uint8(skip|2), zeroPivot)
	f.Add(uint8(0), uint8(0), uint8(0), []byte{0, 0, 16, 1, 0, 16}) // structurally singular
	rng := rand.New(rand.NewSource(1))
	for range 6 {
		n := uint8(rng.Intn(149))
		data := make([]byte, 3*(4+rng.Intn(3*(2+int(n)))))
		rng.Read(data)
		f.Add(n, uint8(rng.Intn(40)), uint8(rng.Intn(8)|boost), data)
		f.Add(n, uint8(rng.Intn(40)), uint8(rng.Intn(8)), data)
	}
	f.Fuzz(func(t *testing.T, n, nb, opts uint8, data []byte) {
		a := fuzzSystem(n, opts, data)
		b, _ := gen.RHSForSolution(a)
		opt := Options{BlockSize: 1 + int(nb)%40, TrackMemory: true, SkipOrdering: opts&skip != 0}
		p := 1 + int(opts&3)%3
		if _, err := order.MaxTransversal(a); err != nil {
			pl, hosts := lanPlatform(p, 0)
			if _, err := Launch(vgrid.NewEngine(pl), hosts, a, b, opt); !errors.Is(err, order.ErrStructurallySingular) {
				t.Fatalf("a structurally singular system launched with %v", err)
			}
			return
		}
		want := runOn(t, refLaunch, p, 0, a, b, opt, 0)
		dt := want.end / 100
		if want.err == nil {
			want = runOn(t, refLaunch, p, 0, a, b, opt, dt)
		} else {
			dt = 0
		}
		got := runOn(t, Launch, p, 0, a, b, opt, dt)
		sameOutcome(t, got, want)
		if want.err != nil && got.err.Error() != want.err.Error() {
			t.Fatalf("failed with %q, reference with %q", got.err, want.err)
		}
	})
}
