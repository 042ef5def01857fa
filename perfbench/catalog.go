package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

//go:embed expected.json
var expectedFS embed.FS

// Expected holds the recorded correct outputs.
type Expected struct {
	Catalog CatalogExpect `json:"catalog"`
	// Seeds maps a web sweep's seed to its recorded outcome.
	Seeds map[string]SeedExpect `json:"seeds"`
}

// CatalogExpect is the full-scale catalog's golden output and counts
// at any worker count.
type CatalogExpect struct {
	StdoutSHA256 string `json:"stdout_sha256"`
	Cells        int64  `json:"cells"`
	ColdHits     int64  `json:"cold_hits"`
	Events       uint64 `json:"events"`
	Packets      int64  `json:"packets"`
	// Experiments maps each experiment to the sha256 of its stdout
	// block, so a wrong block fails only that experiment's cells.
	Experiments map[string]string `json:"experiments"`
}

// SeedExpect is one seeded sweep's recorded outcome.
type SeedExpect struct {
	Digest string `json:"digest"`
	Events uint64 `json:"events"`
	Pkts   int64  `json:"pkts"`
}

func loadExpected() (*Expected, error) {
	b, err := fs.ReadFile(expectedFS, "expected.json")
	if err != nil {
		return nil, err
	}
	var e Expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// Report is the part of ecfbench's -report-json the benchmark reads.
type Report struct {
	WallClockMs  float64 `json:"wall_clock_ms"`
	OutputSHA256 string  `json:"output_sha256"`
	Experiments  []struct {
		Name             string `json:"name"`
		CacheHits        int64  `json:"cache_hits"`
		CacheComputed    int64  `json:"cache_computed"`
		EventsCoalesced  uint64 `json:"events_coalesced"`
		EventsTotal      uint64 `json:"events_total"`
		PacketsDelivered int64  `json:"packets_delivered"`
		OutputSHA256     string `json:"output_sha256"`
		// Nearest-rank wall-clock percentiles of the experiment's
		// computed cells; zero when every cell was a hit.
		CellP50Ms float64 `json:"cell_p50_ms"`
		CellP95Ms float64 `json:"cell_p95_ms"`
		CellMaxMs float64 `json:"cell_max_ms"`
	} `json:"experiments"`
	Mem struct {
		TotalAllocBytes uint64 `json:"total_alloc_bytes"`
		NumGC           uint32 `json:"num_gc"`
		PauseTotalNs    uint64 `json:"pause_total_ns"`
	} `json:"mem"`
}

// totals sums the per-experiment counters.
func (r *Report) totals() (hits, computed int64, events, coalesced uint64, pkts int64) {
	for _, x := range r.Experiments {
		hits += x.CacheHits
		computed += x.CacheComputed
		events += x.EventsTotal
		coalesced += x.EventsCoalesced
		pkts += x.PacketsDelivered
	}
	return
}

// CheckCatalog compares one sweep's stdout and report with the golden
// output and returns how many of its cells failed and why. A wrong
// experiment block fails that experiment's cells; a wrong whole output
// or wrong cell counts fail every cell.
func CheckCatalog(exp *CatalogExpect, stdout []byte, rep *Report, warm bool) (bad int, why error) {
	hits, computed, events, _, pkts := rep.totals()
	for _, x := range rep.Experiments {
		if want := exp.Experiments[x.Name]; x.OutputSHA256 != want {
			bad += int(x.CacheHits + x.CacheComputed)
			why = fmt.Errorf("%s: output sha256 %s, want %s", x.Name, x.OutputSHA256, want)
		}
	}
	sum := sha256.Sum256(stdout)
	got := hex.EncodeToString(sum[:])
	wantHits, wantEvents, wantPkts := exp.ColdHits, exp.Events, exp.Packets
	if warm {
		wantHits, wantEvents, wantPkts = exp.Cells, 0, 0
	}
	switch {
	case got != exp.StdoutSHA256 || rep.OutputSHA256 != got:
		return int(exp.Cells), fmt.Errorf("stdout sha256 %s (report says %s), want %s", got, rep.OutputSHA256, exp.StdoutSHA256)
	case hits+computed != exp.Cells || hits != wantHits:
		return int(exp.Cells), fmt.Errorf("%d hits + %d computed, want %d hits of %d cells", hits, computed, wantHits, exp.Cells)
	case events != wantEvents || pkts != wantPkts:
		return int(exp.Cells), fmt.Errorf("%d events, %d packets, want %d and %d", events, pkts, wantEvents, wantPkts)
	}
	return bad, why
}

// Profile patterns for functions that bound the results store's reads
// and writes, the experiments' aggregation and rendering of results
// (metrics CDFs, heat maps and tables, and the experiments' String
// methods), and the runner's execution of one cell (a hit's read or a
// miss's simulation and write).
const (
	storeRead  = `^repro/internal/results\.\(\*Store\)\.Get$`
	storeWrite = `^repro/internal/results\.\(\*Store\)\.Put$`
	render     = `^repro/internal/metrics\.|^repro/internal/experiments\.\(?\*?[A-Za-z0-9_]+\)?\.String$`
	cellRun    = `^repro/internal/results\.(runCell|runLaneGroup)(\[|$)`
)

// profileLayers lists the layers whose CPU self time the table reports.
var profileLayers = []string{"sim", "netsim", "tcp", "cc", "mptcp", "sched", "core", "trace", "ring", "dash", "web", "metrics", "runtime", "other"}

// addProfileLayers adds the per-layer self time and the store and
// render CPU time, each the median over the traced sweeps' profiles.
func addProfileLayers(m map[string]float64, profs []*Profile) {
	cols := map[string][]float64{}
	for _, p := range profs {
		self := p.LayerSeconds()
		for _, l := range profileLayers {
			cols[l+".self_s"] = append(cols[l+".self_s"], self[l])
		}
		cols["results.read_s"] = append(cols["results.read_s"], p.Cum[storeRead])
		cols["results.write_s"] = append(cols["results.write_s"], p.Cum[storeWrite])
		cols["experiments.render_s"] = append(cols["experiments.render_s"], p.Cum[render])
	}
	for k, xs := range cols {
		m[k] = Median(xs)
	}
}

// cellTimes summarizes a report's computed-cell times: the median of
// the experiments' medians weighted by their computed cells, the
// largest experiment 95th percentile (an upper bound on the whole
// sweep's, since each experiment has 95% of its cells at or below its
// own) and the slowest cell.
func (r *Report) cellTimes() (p50, p95, max float64) {
	type exp struct{ p50, n float64 }
	var xs []exp
	var total float64
	for _, x := range r.Experiments {
		if x.CacheComputed == 0 {
			continue
		}
		xs = append(xs, exp{x.CellP50Ms, float64(x.CacheComputed)})
		total += float64(x.CacheComputed)
		p95 = math.Max(p95, x.CellP95Ms)
		max = math.Max(max, x.CellMaxMs)
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a].p50 < xs[b].p50 })
	var seen float64
	for _, x := range xs {
		if seen += x.n; seen >= total/2 {
			p50 = x.p50
			break
		}
	}
	return p50, p95, max
}

// runCatalog measures catalog-cold (every sweep into a fresh, empty
// store) or catalog-warm (every sweep re-rendered from a store one cold
// sweep filled before measuring starts).
func (e *env) runCatalog(exp *Expected, t *tally) (map[string]float64, error) {
	warm := e.workload == "catalog-warm"
	ecfbench := filepath.Join(e.binDir, "ecfbench")
	cat := &exp.Catalog
	run := func(tag, cacheDir string, profile bool) (*proc, *Report, error) {
		rep := filepath.Join(e.dir, "report-"+tag+".json")
		args := []string{"-exp", "all", "-scale", "full", "-j", strconv.Itoa(e.workers), "-cache-dir", cacheDir, "-report-json", rep}
		if profile {
			args = append(args, "-cpuprofile", filepath.Join(e.dir, "cpu-"+tag+".pprof"))
		}
		p, err := e.spawn(false, ecfbench, args...)
		if err != nil {
			return nil, nil, err
		}
		var r Report
		b, err := os.ReadFile(rep)
		if err == nil {
			err = json.Unmarshal(b, &r)
		}
		if err != nil {
			return nil, nil, err
		}
		return p, &r, nil
	}

	store := filepath.Join(e.dir, "store")
	if warm {
		p, r, err := run("fill", store, false)
		if err != nil {
			t.cells(int(cat.Cells), int(cat.Cells), err)
			return map[string]float64{}, nil
		}
		bad, why := CheckCatalog(cat, p.stdout, r, false)
		t.cells(int(cat.Cells), bad, why)
	}

	var (
		samples     []sample
		tracedWalls []float64
		idle        []float64
		plain       []*Report
		profs       []*Profile
		traced      *Report
		storeMB     float64
	)
	sweep := func(i int) error {
		tag := strconv.Itoa(i)
		dir := store
		if !warm {
			dir = filepath.Join(e.dir, "cold-"+tag)
		}
		withTrace := e.traced && i%2 == 1
		p, r, err := run(tag, dir, withTrace)
		if err != nil {
			t.cells(int(cat.Cells), int(cat.Cells), err)
			return errStop
		}
		bad, why := CheckCatalog(cat, p.stdout, r, warm)
		t.cells(int(cat.Cells), bad, why)
		wall := r.WallClockMs / 1e3
		hits, computed, _, _, _ := r.totals()
		if withTrace {
			cpu, err := ReadProfile(e.ctx, filepath.Join(e.dir, "cpu-"+tag+".pprof"), storeRead, storeWrite, render, cellRun)
			if err != nil {
				return err
			}
			profs = append(profs, cpu)
			tracedWalls = append(tracedWalls, wall)
			idle = append(idle, 1-cpu.Cum[cellRun]/(float64(e.workers)*wall))
			if traced == nil {
				traced = r
				if storeMB, err = dirMB(dir); err != nil {
					return err
				}
			}
		} else {
			plain = append(plain, r)
			// The packets behind the rendered results: simulated by this
			// sweep when cold, by the fill when warm.
			samples = append(samples, sample{wall: wall, setup: p.wallS - wall, cpu: p.cpuS, rssMB: p.rssMB,
				cells: int(hits + computed), pkts: cat.Packets})
		}
		if !warm {
			return os.RemoveAll(dir)
		}
		return nil
	}
	var probe func() (float64, error)
	if !e.traced {
		n := 0
		probe = func() (float64, error) {
			n++
			dir := store
			if !warm {
				dir = filepath.Join(e.dir, "probe-"+strconv.Itoa(n))
			}
			rep := filepath.Join(e.dir, "probe-"+strconv.Itoa(n)+".json")
			p, err := e.spawn(false, ecfbench, "-exp", "table1", "-scale", "full", "-cache-dir", dir, "-report-json", rep)
			var r Report
			if err == nil {
				var b []byte
				if b, err = os.ReadFile(rep); err == nil {
					err = json.Unmarshal(b, &r)
				}
			}
			if err != nil {
				t.cells(int(cat.Cells), int(cat.Cells), err)
				return 0, errStop
			}
			return p.wallS - r.WallClockMs/1e3, nil
		}
	}
	setups, err := e.measure(sweep, probe)
	if err != nil && !errors.Is(err, errStop) {
		return nil, err
	}
	if !e.traced {
		return endToEnd(samples, setups, e.hostScale()), nil
	}
	m := map[string]float64{"host.ref_s": Median(e.refs)}
	if traced == nil {
		return m, nil
	}
	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall
	}
	addProfileLayers(m, profs)
	m["trace_overhead_frac"] = Median(tracedWalls)/Median(walls) - 1
	hits, computed, events, coalesced, pkts := traced.totals()
	m["sim.events"] = float64(events)
	if pkts > 0 {
		m["sim.events_per_pkt"] = float64(events) / float64(pkts)
	}
	if events > 0 {
		m["sim.coalesced_frac"] = float64(coalesced) / float64(events)
	}
	m["netsim.pkts_delivered"] = float64(pkts)
	m["results.hits"] = float64(hits)
	m["results.computed"] = float64(computed)
	m["results.store_mb"] = storeMB
	// From outside the process a cell's busy time is the CPU time
	// under the runner's cell function.
	m["runner.idle_frac"] = Median(idle)
	var p50s, p95s, maxs []float64
	for _, r := range plain {
		p50, p95, max := r.cellTimes()
		p50s, p95s, maxs = append(p50s, p50), append(p95s, p95), append(maxs, max)
	}
	m["runner.cell_p50_ms"], m["runner.cell_p95_ms"], m["runner.cell_max_ms"] = Median(p50s), Median(p95s), Median(maxs)
	m["runtime.alloc_mb"] = float64(traced.Mem.TotalAllocBytes) / (1 << 20)
	m["runtime.gc_cycles"] = float64(traced.Mem.NumGC)
	m["runtime.gc_pause_s"] = float64(traced.Mem.PauseTotalNs) / 1e9
	return m, nil
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store size: %w", err)
	}
	return float64(n) / (1 << 20), nil
}
