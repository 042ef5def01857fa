package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"
)

// listDigest fingerprints a generated cell list.
func listDigest(t *testing.T, cells []Cell) string {
	b, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := GenWeb(DefaultSeed), GenWeb(DefaultSeed), GenWeb(ValidationSeed)
	if len(a) != webCells {
		t.Fatalf("%d cells, want %d", len(a), webCells)
	}
	if listDigest(t, a) != listDigest(t, b) {
		t.Error("the same seed gave two different cell lists")
	}
	if listDigest(t, a) == listDigest(t, c) {
		t.Errorf("seeds %d and %d gave the same cell list", DefaultSeed, ValidationSeed)
	}
}

// TestGeneratorFollowsCatalogMix checks the web mix against the
// catalog's §5.4/§5.5 cell counts: one page load in 41 cells, each size
// equally often, and one download in six at Figure 18's 1 Mbps WiFi.
func TestGeneratorFollowsCatalogMix(t *testing.T) {
	pages, fig18 := 0, 0
	sizes := map[int64]int{}
	for _, c := range GenWeb(DefaultSeed) {
		switch {
		case c.Page:
			pages++
		case c.Bytes <= 0:
			t.Fatalf("download of %d bytes", c.Bytes)
		default:
			sizes[c.Bytes]++
			if c.Scheduler == "daps" || c.Scheduler == "blest" {
				fig18++
			}
		}
	}
	if want := webCells / pagePeriod; pages != want {
		t.Errorf("%d page loads, want %d", pages, want)
	}
	wgets := webCells - pages
	for _, sz := range webSizes {
		if n := sizes[sz]; n < wgets/len(webSizes) || n > wgets/len(webSizes)+1 {
			t.Errorf("size %d drawn %d times of %d downloads", sz, n, wgets)
		}
	}
	// Only Figure 18 downloads use daps and blest, about half of them.
	if share := float64(fig18) / float64(wgets); share < 0.06 || share > 0.11 {
		t.Errorf("daps/blest share %.3f of downloads, want about 1/12", share)
	}
}

// runFew runs the first n cells of a sweep and returns the outcome
// digest; any failed check fails the test.
func runFew(t *testing.T, seed int64, n int, traced bool) string {
	t.Helper()
	cells := GenWeb(seed)[:n]
	outs := make([]cellOut, n)
	for i, c := range cells {
		var tr *tracer
		if traced {
			tr = &tracer{t0: time.Now()}
		}
		outs[i] = runCell(c, traced, tr, i, -1, func() {})
		if outs[i].Err != nil {
			t.Fatalf("seed %d cell %d: %v", seed, i, outs[i].Err)
		}
	}
	return outcomeDigest(outs)
}

func TestOutcomeDigestFollowsSeed(t *testing.T) {
	const n = 60
	a := runFew(t, DefaultSeed, n, false)
	if b := runFew(t, DefaultSeed, n, false); a != b {
		t.Errorf("same seed, digests %s and %s", a, b)
	}
	if b := runFew(t, DefaultSeed, n, true); a != b {
		t.Errorf("tracing changed the outcome: %s vs %s", a, b)
	}
	if b := runFew(t, ValidationSeed, n, false); a == b {
		t.Errorf("seeds %d and %d gave the same digest", DefaultSeed, ValidationSeed)
	}
}

func TestCheckSweepCatchesWrongOutput(t *testing.T) {
	ref := SeedExpect{Digest: "ab12", Events: 10, Pkts: 7}
	good := SweepOut{Cells: 5, Digest: "ab12", Events: 10, Pkts: 7}
	if bad, err := CheckSweep(&good, 5, &ref, &ref); bad != 0 {
		t.Fatalf("correct sweep failed %d cells: %v", bad, err)
	}
	flipped := good
	flipped.Digest = "ab13"
	if bad, _ := CheckSweep(&flipped, 5, &ref, nil); bad != 5 {
		t.Errorf("a flipped digest failed %d of 5 cells", bad)
	}
	// Every sweep of the run agrees, but not with the record.
	moreEvents := good
	moreEvents.Events++
	run := SeedExpect{Digest: moreEvents.Digest, Events: moreEvents.Events, Pkts: moreEvents.Pkts}
	if bad, _ := CheckSweep(&moreEvents, 5, &run, &ref); bad != 5 {
		t.Errorf("a wrong event count against the record failed %d of 5 cells", bad)
	}
	oneCell := good
	oneCell.FailedCells, oneCell.FirstError = 1, "short download"
	if bad, _ := CheckSweep(&oneCell, 5, &ref, &ref); bad != 1 {
		t.Errorf("one failed cell counted as %d", bad)
	}
}

func TestCheckCatalogCatchesWrongOutput(t *testing.T) {
	stdout := []byte("Table 1\nrow\n\nFigure 9\nrow\n\n")
	sum := sha256.Sum256(stdout)
	golden := hex.EncodeToString(sum[:])
	exp := &CatalogExpect{StdoutSHA256: golden, Cells: 5, ColdHits: 1, Events: 100, Packets: 40,
		Experiments: map[string]string{"table1": "t1", "fig9": "f9"}}
	rep := func() *Report {
		var r Report
		b := []byte(`{"output_sha256":"` + golden + `","experiments":[` +
			`{"name":"table1","cache_hits":1,"output_sha256":"t1"},` +
			`{"name":"fig9","cache_computed":4,"events_total":100,"packets_delivered":40,"output_sha256":"f9"}]}`)
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	if bad, err := CheckCatalog(exp, stdout, rep(), false); bad != 0 {
		t.Fatalf("golden output failed %d cells: %v", bad, err)
	}
	flipped := bytes.Clone(stdout)
	flipped[3] ^= 1
	if bad, _ := CheckCatalog(exp, flipped, rep(), false); bad != 5 {
		t.Errorf("a flipped stdout byte failed %d of 5 cells", bad)
	}
	r := rep()
	r.Experiments[1].OutputSHA256 = "f8"
	if bad, _ := CheckCatalog(exp, stdout, r, false); bad != 4 {
		t.Errorf("a wrong fig9 block failed %d cells, want its 4", bad)
	}
	if bad, _ := CheckCatalog(exp, stdout, rep(), true); bad != 5 {
		t.Errorf("a sweep that simulated cells passed as warm (%d failed)", bad)
	}
}

func TestRecordedSeeds(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int64{DefaultSeed, ValidationSeed} {
		rec, ok := exp.Seeds[strconv.FormatInt(s, 10)]
		if !ok || rec.Digest == "" || rec.Events == 0 || rec.Pkts == 0 {
			t.Errorf("seed %d: no recorded outcome", s)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, EndToEnd)
	same("per_layer", bj.PerLayer, PerLayer)
	for _, w := range bj.Workloads {
		if !contains(Workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %s is not one the benchmark runs", w.Name)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := Quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if m := Median(xs); m != 5.5 {
		t.Errorf("median %v", m)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := Quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three values %v %v, want 1 3", q1, q3)
	}
}

func TestLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).siftDown":                       "sim",
		"repro/internal/results.runCell[go.shape.struct { repro/x }]": "results",
		"runtime.mallocgc":                     "runtime",
		"internal/runtime/maps.(*Map).getWith": "runtime",
		"encoding/json.(*decodeState).object":  "other",
		"main.runWget":                         "bench",
	} {
		if got := Layer(fn); got != want {
			t.Errorf("Layer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: ecfbench
Type: cpu
Showing nodes accounting for 1120ms, 100% of 1120ms total
      flat  flat%   sum%        cum   cum%
     110ms  9.82%  9.82%      130ms 11.61%  slices.partitionOrdered[go.shape.float64]
      1.5s  9.82%  9.82%      1.5s 11.61%  repro/internal/sim.(*Engine).Run
      30ms  2.68% 12.50%       30ms  2.68%  cmp.Less[go.shape.float64] (inline)
         0     0%   100%       40ms   0.4%  main.runWget
`)
	self, err := ParseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"slices.partitionOrdered[go.shape.float64]": 0.11,
		"repro/internal/sim.(*Engine).Run":          1.5,
		"cmp.Less[go.shape.float64]":                0.03,
		"main.runWget":                              0,
	}
	for fn, s := range want {
		if got, ok := self[fn]; !ok || math.Abs(got-s) > 1e-9 {
			t.Errorf("%s: %v s (listed %t), want %v", fn, got, ok, s)
		}
	}
	if shown, err := ShownSeconds(out); err != nil || math.Abs(shown-1.12) > 1e-9 {
		t.Errorf("shown %v s (%v), want 1.12", shown, err)
	}
	if _, err := ParseTop([]byte("Focus expression matched no samples\n")); err == nil {
		t.Error("a report without a table parsed")
	}
}

func TestCellTimes(t *testing.T) {
	var r Report
	b := []byte(`{"experiments":[` +
		`{"name":"a","cache_computed":10,"cell_p50_ms":5,"cell_p95_ms":9,"cell_max_ms":12},` +
		`{"name":"b","cache_hits":50},` +
		`{"name":"c","cache_computed":30,"cell_p50_ms":2,"cell_p95_ms":20,"cell_max_ms":40}]}`)
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if p50, p95, max := r.cellTimes(); p50 != 2 || p95 != 20 || max != 40 {
		t.Errorf("cell times %v %v %v, want 2 20 40", p50, p95, max)
	}
}

var sink float64

// TestReadProfile reads a real CPU profile through the toolchain's
// pprof.
func TestReadProfile(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += float64(i) * 1.5
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	const loop = `\.TestReadProfile$`
	p, err := ReadProfile(context.Background(), path, loop)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range p.LayerSeconds() {
		total += s
	}
	// The race detector's runtime can take most samples without Go
	// frames, so only ask that the loop appears and the time adds up.
	if p.Cum[loop] == 0 || total < 0.1 {
		t.Errorf("busy loop got %.2fs of %.2fs read", p.Cum[loop], total)
	}
}
