package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/web"
)

// dispatchMarker starts the line a sweep process prints once its first
// cell is set up; the parent's set-up time ends when it reads it.
const dispatchMarker = "dispatch"

// Counts are the per-layer work counters the traced sweep reads from
// the program's public accessors, summed over cells.
type Counts struct {
	Segments     int64 `json:"segments"`
	Retransmits  int64 `json:"retransmits"`
	Timeouts     int64 `json:"timeouts"`
	IWResets     int64 `json:"iw_resets"`
	Reinjections int64 `json:"reinjections"`
	LinkSent     int64 `json:"link_sent"`
	LinkDropped  int64 `json:"link_dropped"`
	SelectCalls  int64 `json:"select_calls"`
	SelectNil    int64 `json:"select_nil"`
	SelectTimed  int64 `json:"select_timed"`
	SelectNs     int64 `json:"select_ns"`
}

func (c *Counts) add(o Counts) {
	c.Segments += o.Segments
	c.Retransmits += o.Retransmits
	c.Timeouts += o.Timeouts
	c.IWResets += o.IWResets
	c.Reinjections += o.Reinjections
	c.LinkSent += o.LinkSent
	c.LinkDropped += o.LinkDropped
	c.SelectCalls += o.SelectCalls
	c.SelectNil += o.SelectNil
	c.SelectTimed += o.SelectTimed
	c.SelectNs += o.SelectNs
}

// work returns the counters without the timing, which alone may differ
// between sweeps of the same cells.
func (c Counts) work() Counts {
	c.SelectNs = 0
	return c
}

// Span is one timed interval of a sweep, in nanoseconds since the
// sweep's first dispatch. Parent is the index of the enclosing span in
// the same list, or -1.
type Span struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// SweepOut is what a sweep process reports to the parent on its last
// stdout line.
type SweepOut struct {
	Cells       int       `json:"cells"`
	Digest      string    `json:"digest"`
	FailedCells int       `json:"failed_cells"`
	FirstError  string    `json:"first_error,omitempty"`
	CellMs      []float64 `json:"cell_ms"`
	Workers     int       `json:"workers"`
	WallS       float64   `json:"wall_s"`
	BusyS       float64   `json:"busy_s"`
	Events      uint64    `json:"events"`
	Coalesced   uint64    `json:"coalesced"`
	Pkts        int64     `json:"pkts"`
	AllocMB     float64   `json:"alloc_mb"`
	GCCycles    uint32    `json:"gc_cycles"`
	GCPauseS    float64   `json:"gc_pause_s"`
	Counts      Counts    `json:"counts"`
}

// cellOut is one cell's outcome: Summary is its canonical outcome
// line (hashed into the sweep digest), Err a failed output check.
type cellOut struct {
	Summary string
	Err     error
	Counts  Counts
}

// tracer records spans for one worker; nil when the sweep is untraced.
type tracer struct {
	t0    time.Time
	spans []Span
}

func (t *tracer) begin(name string, cell, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Cell: cell, Parent: parent, Start: int64(time.Since(t.t0)), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil && i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// childMain runs one sweep: it generates the cells from the seed, runs
// them on a closed loop of workers (each takes the next cell only when
// its previous one finished) and prints a SweepOut line. The program
// under test sees only the generated cells.
//
// The first stdout line is the dispatch marker, printed once the first
// cell's network and connections are set up, followed by the
// nanoseconds the benchmark spent generating cells; the parent counts
// set-up from process start to the marker, less that generation time.
func childMain(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	seed := fs.Int64("seed", DefaultSeed, "input seed")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent cells")
	traced := fs.Bool("trace", false, "instrument layers, record spans and a CPU profile")
	profPath := fs.String("cpuprofile", "", "CPU profile destination (with -trace)")
	spansPath := fs.String("spans", "", "span list destination (with -trace)")
	probe := fs.Bool("probe", false, "exit right after set-up (measures set-up alone)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return errors.New("need at least one worker")
	}
	t0 := time.Now()
	cells := GenWeb(*seed)
	gen := time.Since(t0)
	var once sync.Once
	ready := func() {
		once.Do(func() { fmt.Printf("%s %d\n", dispatchMarker, gen.Nanoseconds()) })
	}
	if *probe {
		net, _, _ := setUp(cells[0], false)
		ready()
		net.Close()
		return nil
	}
	var prof *os.File
	if *traced {
		var err error
		if prof, err = os.Create(*profPath); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
	}

	outs := make([]cellOut, len(cells))
	cellMs := make([]float64, len(cells))
	tracers := make([]*tracer, *workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		var tr *tracer
		if *traced {
			tr = &tracer{t0: start}
			tracers[w] = tr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				t0 := time.Now()
				sp := tr.begin("cell", i, -1)
				outs[i] = runCell(cells[i], *traced, tr, i, sp, ready)
				tr.end(sp)
				cellMs[i] = float64(time.Since(t0)) / 1e6
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if *traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
	}

	res := SweepOut{Cells: len(cells), Workers: *workers, WallS: wall.Seconds(), CellMs: cellMs}
	res.Digest = outcomeDigest(outs)
	for i, o := range outs {
		res.BusyS += cellMs[i] / 1e3
		res.Counts.add(o.Counts)
		if o.Err != nil {
			res.FailedCells++
			if res.FirstError == "" {
				res.FirstError = fmt.Sprintf("cell %d: %v", i, o.Err)
			}
		}
	}
	processed, coalesced := sim.TotalEvents()
	res.Events = processed + coalesced
	res.Coalesced = coalesced
	res.Pkts = netsim.TotalDelivered()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	res.GCCycles = ms.NumGC
	res.GCPauseS = float64(ms.PauseTotalNs) / 1e9

	if *traced {
		var all []Span
		for _, tr := range tracers {
			if tr == nil {
				continue
			}
			base := len(all)
			for _, s := range tr.spans {
				if s.Parent >= 0 {
					s.Parent += base
				}
				all = append(all, s)
			}
		}
		b, err := json.Marshal(all)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*spansPath, b, 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// outcomeDigest hashes the cells' outcome lines in cell order, so it
// does not depend on which worker ran which cell.
func outcomeDigest(outs []cellOut) string {
	h := sha256.New()
	for _, o := range outs {
		io.WriteString(h, o.Summary)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runCell(c Cell, traced bool, tr *tracer, idx, parent int, ready func()) cellOut {
	if c.Page {
		return runPage(c, traced, tr, idx, parent, ready)
	}
	return runWget(c, traced, tr, idx, parent, ready)
}

// timedScheduler wraps a registered scheduler to count its Select
// calls and time one call in selectSampleEvery (timing every call would
// double the cost being measured). It changes no decision, so traced
// and untraced sweeps must produce the same digest.
type timedScheduler struct {
	inner mptcp.Scheduler
	calls int64
	nils  int64
	timed int64
	ns    int64
}

const selectSampleEvery = 64

func newTimedScheduler(name string) *timedScheduler {
	f, err := sched.Factory(name)
	if err != nil {
		panic(err) // generated cells name only registered schedulers
	}
	return &timedScheduler{inner: f()}
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Select(c *mptcp.Conn) *tcp.Subflow {
	t.calls++
	var sf *tcp.Subflow
	if t.calls%selectSampleEvery == 0 {
		t0 := time.Now()
		sf = t.inner.Select(c)
		t.ns += int64(time.Since(t0))
		t.timed++
	} else {
		sf = t.inner.Select(c)
	}
	if sf == nil {
		t.nils++
	}
	return sf
}

// connCounts reads the transport and scheduler counters of one
// connection.
func connCounts(conn *mptcp.Conn, ts *timedScheduler) Counts {
	var c Counts
	if conn != nil {
		for _, sf := range conn.Subflows() {
			st := sf.Stats()
			c.Segments += st.SegmentsSent
			c.Retransmits += st.Retransmits
			c.Timeouts += st.Timeouts
			c.IWResets += st.IWResets
		}
		c.Reinjections = conn.Reinjections()
	}
	if ts != nil {
		c.SelectCalls, c.SelectNil, c.SelectTimed, c.SelectNs = ts.calls, ts.nils, ts.timed, ts.ns
	}
	return c
}

// linkCounts reads every link's send and drop counters.
func linkCounts(net *core.Network) (sent, dropped int64) {
	for _, p := range net.Paths() {
		for _, l := range []*netsim.Link{p.Forward(), p.Reverse()} {
			st := l.Stats()
			sent += st.Sent
			dropped += st.Dropped + st.Lost
		}
	}
	return sent, dropped
}

// setUp builds one cell's network and connections the way the
// catalog's wgetOnce and fetchCNNPage do: light random loss on both
// paths, seeded per cell, and one connection for a download or six for
// a page. traced wraps each connection's scheduler in a timedScheduler.
func setUp(c Cell, traced bool) (*core.Network, []*mptcp.Conn, []*timedScheduler) {
	wifiSeed, lteSeed, n := c.Seed*17, c.Seed*31+7, 1
	if c.Page {
		wifiSeed, lteSeed, n = c.Seed*13, c.Seed*29+3, pageConns
	}
	net := core.NewNetwork([]core.PathSpec{
		{Name: "wifi", RateMbps: c.WifiMbps, BaseRTT: core.WiFiBaseRTT, LossRate: webLossRate, Seed: wifiSeed},
		{Name: "lte", RateMbps: c.LteMbps, BaseRTT: core.LTEBaseRTT, LossRate: webLossRate, Seed: lteSeed},
	})
	conns := make([]*mptcp.Conn, n)
	scheds := make([]*timedScheduler, n)
	for i := range conns {
		if traced {
			scheds[i] = newTimedScheduler(c.Scheduler)
			conns[i] = net.NewConn(core.ConnOptions{SchedulerInstance: scheds[i]})
		} else {
			conns[i] = net.NewConn(core.ConnOptions{Scheduler: c.Scheduler})
		}
	}
	return net, conns, scheds
}

const (
	// webLossRate is the §5.4/§5.5 random loss on both paths.
	webLossRate = 0.001
	// jitterHorizon is how long a download's RTT jitter walks run, as
	// in the catalog's wgetOnce; page loads run without jitter.
	jitterHorizon = time.Minute
	// pageConns is the browser's six persistent connections (§5.5).
	pageConns = 6
)

func runWget(c Cell, traced bool, tr *tracer, idx, parent int, ready func()) cellOut {
	setup := tr.begin("core.setup", idx, parent)
	net, conns, scheds := setUp(c, traced)
	tr.end(setup)
	ready()
	conn := conns[0]
	trace.InstallRTTJitter(net, 0, core.WiFiBaseRTT, 0.3, 100*time.Millisecond, c.Seed*101+1, jitterHorizon)
	trace.InstallRTTJitter(net, 1, core.LTEBaseRTT, 0.2, 100*time.Millisecond, c.Seed*211+5, jitterHorizon)
	var got *web.ObjectResult
	web.Download(conn, c.Bytes, func(o web.ObjectResult) { got = &o })
	run := tr.begin("core.run", idx, parent)
	net.Run(5 * time.Minute)
	tr.end(run)
	delivered := conn.Receiver().DeliveredBytes()
	o := cellOut{}
	if traced {
		o.Counts = connCounts(conn, scheds[0])
		o.Counts.LinkSent, o.Counts.LinkDropped = linkCounts(net)
	}
	cl := tr.begin("core.close", idx, parent)
	net.Close()
	tr.end(cl)
	switch {
	case got == nil:
		o.Err = fmt.Errorf("download of %d bytes never completed", c.Bytes)
	case got.Bytes != c.Bytes || delivered != c.Bytes:
		o.Err = fmt.Errorf("requested %d bytes, completion reports %d, receiver delivered %d", c.Bytes, got.Bytes, delivered)
	}
	if got != nil {
		o.Summary = fmt.Sprintf("w bytes=%d dur=%d delivered=%d", got.Bytes, got.Duration(), delivered)
	}
	return o
}

func runPage(c Cell, traced bool, tr *tracer, idx, parent int, ready func()) cellOut {
	objects := web.CNNPageObjects(c.Seed)
	setup := tr.begin("core.setup", idx, parent)
	net, conns, scheds := setUp(c, traced)
	tr.end(setup)
	ready()
	var res *web.PageResult
	web.FetchPage(net.Engine(), conns, web.PageConfig{Objects: objects, ThinkTime: 30 * time.Millisecond},
		func(r *web.PageResult) { res = r })
	run := tr.begin("core.run", idx, parent)
	net.Run(10 * time.Minute)
	tr.end(run)
	var want, delivered int64
	for _, b := range objects {
		want += b
	}
	o := cellOut{}
	for i, conn := range conns {
		delivered += conn.Receiver().DeliveredBytes()
		if traced {
			o.Counts.add(connCounts(conn, scheds[i]))
		}
	}
	if traced {
		o.Counts.LinkSent, o.Counts.LinkDropped = linkCounts(net)
	}
	cl := tr.begin("core.close", idx, parent)
	net.Close()
	tr.end(cl)
	if res == nil {
		o.Err = fmt.Errorf("page of %d objects never completed", len(objects))
		return o
	}
	var sumDur time.Duration
	for _, obj := range res.Objects {
		sumDur += obj.Duration()
		if obj.Index < 0 || obj.Index >= len(objects) || obj.Bytes != objects[obj.Index] {
			o.Err = fmt.Errorf("page object %d: got %d bytes", obj.Index, obj.Bytes)
		}
	}
	if len(res.Objects) != len(objects) || delivered != want {
		o.Err = fmt.Errorf("page: %d of %d objects, %d of %d bytes delivered", len(res.Objects), len(objects), delivered, want)
	}
	o.Summary = fmt.Sprintf("p objects=%d load=%d sum=%d delivered=%d", len(res.Objects), res.PageLoadTime, sumDur, delivered)
	return o
}
