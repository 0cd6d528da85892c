package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/vgrid"
)

var updateDigests = flag.Bool("update", false, "re-record internal/core/testdata/gateway-records.txt")

// gatewayRecordConfigs are the relayed exchange configurations
// TestGatewayRecordGolden holds to recorded digests: each exchange policy, the
// topology-aware collectives, two bands per rank and a resplit that rebuilds
// the relayed plan. The adaptive one runs on the option matrix's grid, whose
// unequal speeds give the controller something to act on; the "sites6"
// ones on two sites of six ranks and a narrow band (band > 0), where the
// members with no inter-cluster group take no part in the relay.
var gatewayRecordConfigs = []struct {
	name     string
	platform func() (*vgrid.Platform, []*vgrid.Host) // nil: twoSiteClustered(2, 2)
	band     int                                     // 0: topoTestSystem
	o        Options
}{
	{"sync", nil, 0, Options{Tol: 1e-9, Overlap: 8, Gateway: true}},
	{"sync-topo", nil, 0, Options{Tol: 1e-9, Overlap: 8, Gateway: true, TopoCollectives: true}},
	{"async", nil, 0, Options{Tol: 1e-9, Overlap: 8, Gateway: true, Async: true}},
	{"bands2-sync", nil, 0, Options{Tol: 1e-9, Overlap: 8, Gateway: true, BandsPerProc: 2}},
	{"bands2-async", nil, 0, Options{Tol: 1e-9, Overlap: 8, Gateway: true, BandsPerProc: 2, Async: true}},
	{"sync-adapt", matrixPlatform, 0, Options{Tol: 1e-9, Overlap: 8, Gateway: true, Adapt: true, AdaptInterval: 3, AdaptHysteresis: 0.1}},
	{"sites6-sync", sites6, 40, Options{Tol: 1e-9, Overlap: 8, Gateway: true}},
	{"sites6-async", sites6, 40, Options{Tol: 1e-9, Overlap: 8, Gateway: true, Async: true}},
}

func sites6() (*vgrid.Platform, []*vgrid.Host) { return twoSiteClustered(6, 6) }

// recordDigest is the SHA-256 of a run's whole record: commit count, end
// time, every span field by field (Tag included), every sample and counter,
// floats as their bits.
func recordDigest(r runRecord) string {
	h := sha256.New()
	bits := math.Float64bits
	fmt.Fprintf(h, "%d %x\n", r.commits, bits(r.end))
	for _, s := range r.spans {
		fmt.Fprintf(h, "span %q %q %q %x %x %x %d %q %q %q %d %d %d %d %x %q\n",
			s.Track, s.Cat, s.Name, bits(s.Start), bits(s.End), bits(s.Flops), s.Bytes,
			s.From, s.To, s.Link, s.Tag, s.Iter, s.Seq, s.Cause, bits(s.Queue), s.Note)
	}
	for _, s := range r.samples {
		fmt.Fprintf(h, "sample %q %q %x %x\n", s.Series, s.Track, bits(s.T), bits(s.V))
	}
	for _, c := range r.counters {
		fmt.Fprintf(h, "counter %q %q %x\n", c.Name, c.Track, bits(c.Value))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGatewayRecordGolden holds the relayed exchange to the record it left
// before the relay moved into plan and mp: every send, receive and span at
// the same virtual instant with the same tag, byte for byte. Re-record with
// `go test ./internal/core -run TestGatewayRecordGolden -update` only for a
// change that is meant to move the gateway's schedule.
func TestGatewayRecordGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range gatewayRecordConfigs {
		platform, a := tc.platform, gen.DiagDominant(gen.DiagDominantOpts{N: 480, Band: tc.band, PerRow: 8, Margin: 0.05, Negative: true, Seed: 99})
		if platform == nil {
			platform = func() (*vgrid.Platform, []*vgrid.Host) { return twoSiteClustered(2, 2) }
		}
		if tc.band == 0 {
			a, _, _ = topoTestSystem(t)
		}
		res, rec, _ := runClusteredOn(t, platform, a, 0, tc.o)
		if !res.Converged {
			t.Fatalf("%s: no convergence", tc.name)
		}
		if tc.platform == nil {
			// The sites6 and adaptive runs have steps of ~3.5k flops, which
			// run inline; the 2+2 runs dispatch every step to the pool.
			requirePooledSteps(t, rec.spans)
		}
		fmt.Fprintf(&got, "%s %s\n", tc.name, recordDigest(rec))
	}
	path := filepath.Join("testdata", "gateway-records.txt")
	if *updateDigests {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("records differ from %s:\n got:\n%s want:\n%s", path, got.String(), want)
	}
}
