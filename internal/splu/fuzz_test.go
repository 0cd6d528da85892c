package splu

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// fuzzMatrix decodes a square matrix of order 1 + n%12 from a fuzz input.
// Every three bytes of data are one entry: row, column (both modulo the
// order) and a value of int8(byte)/16. A zero value stays an explicit zero,
// a repeated position sums, and a row or column no triple names stays empty.
// Bit 6 of opts adds 4 to every diagonal entry, which makes most inputs
// nonsingular; without it most are singular. No other bit of opts is read;
// opts stays in the fuzz input so that a saved corpus still parses.
func fuzzMatrix(n, opts uint8, data []byte) *sparse.CSR {
	order := 1 + int(n)%12
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

// FuzzSparseLUMatchesReference holds Factor, Solve, SolveT and Refactor to
// the reference loops on small matrices whose pattern and values come from
// the input (see fuzzMatrix and matchReference): singular ones must fail in
// both with ErrSingular. Refactor gets the input's values scaled by up to
// ±0.3 %, which can move a pivot, so the fallback is held too. The seeds —
// named shapes plus random entry lists with and without the diagonal boost —
// run under go test; to search beyond them:
//
//	go test -run '^$' -fuzz FuzzSparseLUMatchesReference -fuzztime 30s -parallel 1 ./internal/splu
func FuzzSparseLUMatchesReference(f *testing.F) {
	const boost = 0x40
	f.Add(uint8(0), uint8(0), []byte{0, 0, 0})                                // 1×1, an explicit zero
	f.Add(uint8(1), uint8(0), []byte{0, 1, 32, 1, 0, 64, 1, 1, 16})           // the 2×2 of TestSparseLUMatchesReference
	f.Add(uint8(3), uint8(boost), []byte{0, 3, 16, 3, 0, 240})                // arrow corners on a boosted diagonal
	f.Add(uint8(4), uint8(boost), []byte{})                                   // the diagonal alone
	f.Add(uint8(4), uint8(0), []byte{0, 0, 16, 1, 1, 16, 2, 2, 16})           // empty rows and columns 3, 4
	f.Add(uint8(5), uint8(boost), []byte{2, 2, 192, 0, 5, 8, 5, 0, 8})        // diagonal summed to zero at 2
	f.Add(uint8(3), uint8(boost), []byte{0, 2, 0, 3, 1, 0, 1, 3, 16})         // explicit zeros off a nonsingular diagonal
	f.Add(uint8(1), uint8(0), []byte{0, 0, 16, 0, 1, 16, 1, 0, 16, 1, 1, 32}) // a pivot tie Refactor's values break
	// Eighteen random entry lists, each with and without the boost.
	rng := rand.New(rand.NewSource(1))
	for range 9 {
		for _, fill := range []int{2, 4} {
			n := uint8(3 + rng.Intn(9))
			data := make([]byte, 3*fill*(1+int(n)%12))
			rng.Read(data)
			f.Add(n, uint8(0), data)
			f.Add(n, uint8(boost), data)
		}
	}
	f.Fuzz(func(t *testing.T, n, opts uint8, data []byte) {
		a := fuzzMatrix(n, opts, data)
		matchReference(t, a, perturb(a, 1e-3))
	})
}
