package obs

import (
	"fmt"
	"testing"
)

// TestWindowCapBoundsCells: spans that need far more than maxWindows windows
// stop the rows at the cap. The accumulator hands out at most maxWindows
// cells whatever the track count, a span or transfer starting past the cap
// adds none, and the overflow is reported; a width the run fits in reports
// none.
func TestWindowCapBoundsCells(t *testing.T) {
	a := NewWindowAccum(1e-300)
	for h := 0; h < 3; h++ {
		track := fmt.Sprintf("h%d", h)
		a.AddSpan(Span{Track: track, Cat: CatCompute, Start: 0, End: 1e-3, Flops: 1})
		a.AddSpan(Span{Track: track, Cat: CatWait, Start: 0.5, End: 1})
		a.AddSpan(Span{Track: track, Cat: CatSleep, Start: 1, End: 1})
		a.AddSpan(Span{Track: "net", Cat: CatNet, Link: fmt.Sprintf("l%d", h), Start: 0.5, End: 0.6, Bytes: 8})
	}
	if a.hosts.cells > maxWindows || a.links.cells != 0 || !a.overflow(1) {
		t.Errorf("%d host cells, %d link cells, overflow %v; want at most %d, none and true",
			a.hosts.cells, a.links.cells, a.overflow(1), maxWindows)
	}
	fits := NewWindowAccum(1)
	fits.AddSpan(Span{Track: "h0", Cat: CatCompute, Start: 0, End: 3})
	fits.AddSpan(Span{Track: "net", Cat: CatNet, Link: "l", Start: maxWindows - 0.5, End: maxWindows, Bytes: 8})
	if fits.overflow(maxWindows) || fits.hosts.cells != 3 || fits.links.cells != 1 {
		t.Errorf("%d host and %d link cells, overflow %v at the cap; want 3, 1 and false",
			fits.hosts.cells, fits.links.cells, fits.overflow(maxWindows))
	}
	if !fits.overflow(maxWindows + 0.5) {
		t.Error("a makespan past the last window reports no overflow")
	}
}
