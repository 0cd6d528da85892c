package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// integralPath reports whether jsonWriter.float writes a finite f through
// strconv.AppendInt rather than through the memo.
func integralPath(f float64) bool {
	return f == math.Trunc(f) && math.Abs(f) < 1<<53 && !(f == 0 && math.Signbit(f))
}

// finite reports whether f is neither NaN nor an infinity.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// slotPartner returns a finite value other than f, itself bound for the memo,
// that falls into f's memo slot: writing f, the partner and f again makes the
// partner evict f and f evict the partner.
func slotPartner(f float64) (float64, bool) {
	bits := math.Float64bits(f)
	for d := uint64(1); d < 1<<16; d++ {
		w := math.Float64frombits(bits + d)
		if memoSlot(bits+d) == memoSlot(bits) && finite(w) && !integralPath(w) {
			return w, true
		}
	}
	return 0, false
}

// checkFloats writes vals through one jsonWriter, comma-separated, with the
// i-th value's field named i, and holds the bytes to appendFloat's and
// encoding/json's text of each value on its own (0 for a non-finite one), the
// latched field to the first non-finite value's, and the path each value
// took to integralPath: an integral value leaves the memo alone, any other
// finite value is in its slot once written.
func checkFloats(t *testing.T, vals []float64) {
	t.Helper()
	var buf bytes.Buffer
	j := newJSONWriter(&buf)
	var want []byte
	wantBad := ""
	for i, v := range vals {
		if i > 0 {
			j.raw(",")
			want = append(want, ',')
		}
		bits := math.Float64bits(v)
		k := memoSlot(bits)
		before := j.memo.bits[k]
		j.float(strconv.Itoa(i), v)
		switch {
		case !finite(v):
			if wantBad == "" {
				wantBad = strconv.Itoa(i)
			}
			want = append(want, '0')
			continue
		case integralPath(v):
			if j.memo.bits[k] != before {
				t.Errorf("%v (value %d) went through the memo, want the integral path", v, i)
			}
		case j.memo.bits[k] != bits:
			t.Errorf("%v (value %d) is not in its memo slot after being written", v, i)
		}
		one := appendFloat(nil, v)
		if ref, err := json.Marshal(v); err != nil || !bytes.Equal(one, ref) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json gives %s (%v)", v, one, ref, err)
		}
		want = append(want, one...)
	}
	j.flush()
	if j.err != nil {
		t.Fatal(j.err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("writer wrote\n%s\nvalue by value it is\n%s", got, want)
	}
	if j.bad != wantBad {
		t.Errorf("latched field %q, want %q", j.bad, wantBad)
	}
}

// floatBytes packs values as the little-endian bit patterns the fuzz target
// reads.
func floatBytes(vals ...float64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzAppendFloat: a number written through a jsonWriter's shortcuts — the
// integral path and the memo — reads exactly as appendFloat and
// encoding/json write it on its own. Every value is followed by a partner
// in its memo slot and then by itself again, so each input also exercises
// evictions. Seeded with repeats, ±0, integers around 2^53 and beyond int64,
// both sides of the 1e-6 and 1e21 format boundaries, subnormals and
// non-finite values among finite ones:
//
//	go test -run '^$' -fuzz FuzzAppendFloat -fuzztime 30s ./internal/obs
func FuzzAppendFloat(f *testing.F) {
	p53 := math.Ldexp(1, 53)
	negZero := math.Copysign(0, -1)
	for _, seed := range [][]float64{
		{0.1, 0.1, 2.5, 0.1, 2.5, 1e6 / 3, 1e6 / 3},
		{0, negZero, 0, negZero, -1, 1},
		{p53 - 2, p53 - 1, p53, p53 + 2, p53 + 4, -(p53 - 1), -p53, -(p53 + 2)},
		{math.Ldexp(1, 60), 1e17, 1e20, math.Ldexp(1, 63), -math.Ldexp(1, 63), math.MaxInt64, math.MaxFloat64},
		{1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7},
		{1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20 + 65536},
		{5e-324, -5e-324, 3 * 5e-324, math.Float64frombits(1<<52 - 1), math.SmallestNonzeroFloat64 * 1e10},
		{1.5, math.NaN(), 2.5, math.Inf(1), 1.5, math.Inf(-1), 2.5},
		{math.Inf(-1), 0.75, math.NaN()},
	} {
		f.Add(floatBytes(seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			vals = append(vals, v)
			if !finite(v) || integralPath(v) {
				continue
			}
			if w, ok := slotPartner(v); ok {
				vals = append(vals, w, v)
			}
		}
		checkFloats(t, vals)
	})
}
