package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// errStop ends a run early after a failed sweep was tallied.
var errStop = errors.New("stopped after a failed sweep")

// runSeeded measures the web workload: every sweep is a fresh process
// that draws the cells from the seed and runs them on a closed loop of
// e.workers workers.
func (e *env) runSeeded(exp *Expected, t *tally) (map[string]float64, error) {
	cells := GenWeb(e.seed)
	seed := strconv.FormatInt(e.seed, 10)
	rec, recorded := exp.Seeds[seed]
	self := filepath.Join(e.binDir, "perfbench")

	var ref *SeedExpect // the run's first sweep
	type traced struct {
		out   *SweepOut
		prof  *Profile
		spans []Span
	}
	var (
		samples []sample
		plain   []*SweepOut
		tr      []traced
	)
	sweep := func(i int) error {
		withTrace := e.traced && i%2 == 1
		args := []string{"sweep", "-seed", seed, "-workers", strconv.Itoa(e.workers)}
		prof := filepath.Join(e.dir, fmt.Sprintf("cpu-%d.pprof", i))
		spans := filepath.Join(e.dir, fmt.Sprintf("spans-%d.json", i))
		if withTrace {
			args = append(args, "-trace", "-cpuprofile", prof, "-spans", spans)
		}
		p, err := e.spawn(true, self, args...)
		var out SweepOut
		if err == nil {
			err = json.Unmarshal(lastLine(p.stdout), &out)
		}
		if err != nil {
			t.cells(len(cells), len(cells), err)
			return errStop
		}
		if ref == nil {
			ref = &SeedExpect{Digest: out.Digest, Events: out.Events, Pkts: out.Pkts}
		}
		var want *SeedExpect
		if recorded {
			want = &rec
		}
		bad, why := CheckSweep(&out, len(cells), ref, want)
		t.cells(len(cells), bad, why)
		if !withTrace {
			plain = append(plain, &out)
			samples = append(samples, sample{wall: out.WallS, setup: p.setupS, cpu: p.cpuS, rssMB: p.rssMB, cells: out.Cells, pkts: out.Pkts})
			return nil
		}
		cpu, err := ReadProfile(e.ctx, prof)
		if err != nil {
			return err
		}
		var sp []Span
		raw, err := os.ReadFile(spans)
		if err == nil {
			err = json.Unmarshal(raw, &sp)
		}
		if err != nil {
			return err
		}
		tr = append(tr, traced{&out, cpu, sp})
		return nil
	}
	var probe func() (float64, error)
	if !e.traced {
		probe = func() (float64, error) {
			p, err := e.spawn(true, self, "sweep", "-seed", seed, "-probe")
			if err != nil {
				t.cells(len(cells), len(cells), err)
				return 0, errStop
			}
			return p.setupS, nil
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
	var walls, tracedWalls, cellMs, idle []float64
	for _, o := range plain {
		walls = append(walls, o.WallS)
		cellMs = append(cellMs, o.CellMs...)
		idle = append(idle, 1-o.BusyS/(float64(o.Workers)*o.WallS))
	}
	m["runner.idle_frac"] = Median(idle)
	m["runner.cell_p50_ms"] = Percentile(cellMs, 0.50)
	m["runner.cell_p95_ms"] = Percentile(cellMs, 0.95)
	m["runner.cell_max_ms"] = Percentile(cellMs, 1)
	if len(tr) == 0 {
		return m, nil
	}
	profs := make([]*Profile, len(tr))
	var selectNs []float64
	for i, x := range tr {
		tracedWalls = append(tracedWalls, x.out.WallS)
		profs[i] = x.prof
		if c, c0 := x.out.Counts, tr[0].out.Counts; c.work() != c0.work() {
			t.cells(0, 1, fmt.Errorf("traced sweep counters differ between sweeps: %+v vs %+v", c, c0))
		}
		selectNs = append(selectNs, float64(x.out.Counts.SelectNs)/float64(x.out.Counts.SelectTimed))
	}
	m["trace_overhead_frac"] = Median(tracedWalls)/Median(walls) - 1
	addProfileLayers(m, profs)

	o, c := tr[0].out, tr[0].out.Counts
	m["sim.events"] = float64(o.Events)
	m["sim.events_per_pkt"] = float64(o.Events) / float64(o.Pkts)
	m["sim.coalesced_frac"] = float64(o.Coalesced) / float64(o.Events)
	m["netsim.pkts_delivered"] = float64(o.Pkts)
	m["netsim.drop_frac"] = float64(c.LinkDropped) / float64(c.LinkSent)
	m["tcp.segments_sent"] = float64(c.Segments)
	m["tcp.retx_frac"] = float64(c.Retransmits) / float64(c.Segments)
	m["tcp.timeouts"] = float64(c.Timeouts)
	m["tcp.iw_resets"] = float64(c.IWResets)
	m["mptcp.reinjections"] = float64(c.Reinjections)
	m["sched.select_calls"] = float64(c.SelectCalls)
	m["sched.wait_frac"] = float64(c.SelectNil) / float64(c.SelectCalls)
	m["sched.select_ns"] = Median(selectNs)
	m["runtime.alloc_mb"] = o.AllocMB
	m["runtime.gc_cycles"] = float64(o.GCCycles)
	m["runtime.gc_pause_s"] = o.GCPauseS
	var setupUs, closeUs []float64
	for _, x := range tr {
		for _, s := range x.spans {
			switch s.Name {
			case "core.setup":
				setupUs = append(setupUs, float64(s.End-s.Start)/1e3)
			case "core.close":
				closeUs = append(closeUs, float64(s.End-s.Start)/1e3)
			}
		}
	}
	m["core.setup_us"] = Median(setupUs)
	m["core.close_us"] = Median(closeUs)
	return m, nil
}

// CheckSweep judges one sweep of n cells: its own per-cell checks,
// then that it reproduces the run's first sweep (ref) and, for a
// recorded seed, the record (rec, nil otherwise). It returns how many
// cells failed and why; a sweep that does not reproduce fails them all.
func CheckSweep(out *SweepOut, n int, ref, rec *SeedExpect) (bad int, why error) {
	got := SeedExpect{Digest: out.Digest, Events: out.Events, Pkts: out.Pkts}
	switch {
	case out.Cells != n:
		return n, fmt.Errorf("sweep ran %d of %d cells", out.Cells, n)
	case got != *ref:
		return n, fmt.Errorf("sweep gave %+v, the run's first sweep %+v", got, *ref)
	case rec != nil && got != *rec:
		return n, fmt.Errorf("sweep gave %+v, recorded %+v", got, *rec)
	case out.FailedCells > 0:
		return out.FailedCells, errors.New(out.FirstError)
	}
	return 0, nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	s := string(b)
	for len(s) > 0 && s[len(s)-1] == '\n' {
		s = s[:len(s)-1]
	}
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '\n' {
			return []byte(s[i+1:])
		}
	}
	return []byte(s)
}
