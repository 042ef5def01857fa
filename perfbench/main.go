// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time and prints, as its last stdout line, a JSON
// object with the output checks and either the end-to-end metrics
// (-trace 0) or the per-layer table (-trace 1):
//
//	bash perfbench/run.sh --workload web --seed 1 --seconds 38 --trace 0
//
// run.sh builds this command and ecfbench from the checkout's source.
// README.md in this directory explains the workloads and metrics;
// "perfbench record" repeats runs and writes a run record with host,
// Go version, commit, run count and the median and quartiles of every
// metric.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// MetricDef names a metric and its unit; BENCHMARK.json lists the same
// names.
type MetricDef struct{ Name, Unit string }

// EndToEnd are the metrics a user of a sweep sees, from untraced runs.
var EndToEnd = []MetricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"pkts_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// PerLayer is the traced run's table. README.md maps each metric to
// the end-to-end metric and workload it should move.
var PerLayer = []MetricDef{
	{"sim.events", "count"},
	{"sim.events_per_pkt", "ratio"},
	{"sim.coalesced_frac", "ratio"},
	{"sim.self_s", "s"},
	{"netsim.pkts_delivered", "count"},
	{"netsim.drop_frac", "ratio"},
	{"netsim.self_s", "s"},
	{"tcp.segments_sent", "count"},
	{"tcp.retx_frac", "ratio"},
	{"tcp.timeouts", "count"},
	{"tcp.iw_resets", "count"},
	{"tcp.self_s", "s"},
	{"cc.self_s", "s"},
	{"mptcp.reinjections", "count"},
	{"mptcp.self_s", "s"},
	{"sched.select_calls", "count"},
	{"sched.wait_frac", "ratio"},
	{"sched.select_ns", "ns"},
	{"sched.self_s", "s"},
	{"core.setup_us", "us"},
	{"core.close_us", "us"},
	{"core.self_s", "s"},
	{"trace.self_s", "s"},
	{"ring.self_s", "s"},
	{"dash.self_s", "s"},
	{"web.self_s", "s"},
	{"runner.idle_frac", "ratio"},
	{"runner.cell_p50_ms", "ms"},
	{"runner.cell_p95_ms", "ms"},
	{"runner.cell_max_ms", "ms"},
	{"results.hits", "count"},
	{"results.computed", "count"},
	{"results.read_s", "s"},
	{"results.write_s", "s"},
	{"results.store_mb", "MB"},
	{"metrics.self_s", "s"},
	{"experiments.render_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.self_s", "s"},
	{"other.self_s", "s"},
	{"trace_overhead_frac", "ratio"},
	{"host.ref_s", "s"},
}

// Workloads are the runnable workload names.
var Workloads = []string{"web", "catalog-cold", "catalog-warm"}

const (
	// minSweeps is the fewest measured sweeps per run, so every median
	// has at least three samples.
	minSweeps = 3
	// probeShare is the share of each measured sweep's time spent right
	// after it on set-up-only processes, at least one per sweep. Spread
	// over the run like the sweeps, they steady the setup_s median
	// against short bursts of load on the host.
	probeShare = 0.03
	// refShare is the share of each measured sweep's time spent right
	// after it timing the reference kernel, at least once per sweep, so
	// that long sweeps get as dense a reading of the host's speed as
	// short ones.
	refShare = 0.05
	// hardLimit bounds one run including its set-up; child processes
	// still running at that point are killed.
	hardLimit = 170 * time.Second
)

// env is one run's configuration.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	binDir   string // holds the ecfbench and perfbench binaries
	dir      string // this run's scratch directory
	workers  int
	ctx      context.Context
	// refs are the reference kernel's times around the run's sweeps.
	refs []float64
}

// tally counts output checks against cells attempted.
type tally struct {
	attempted, failed int
	first             error
}

// cells records n cells checked, bad of them failed for err.
func (t *tally) cells(n, bad int, err error) {
	t.attempted += n
	t.failed += bad
	if bad > 0 && t.first == nil {
		t.first = err
	}
}

// sample is one measured sweep.
type sample struct {
	wall, setup, cpu, rssMB float64
	cells                   int
	pkts                    int64
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sweep:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "record" {
		if err := recordMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench record:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload: web, catalog-cold or catalog-warm")
	seed := flag.Int64("seed", DefaultSeed, "input seed")
	seconds := flag.Int("seconds", 38, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1: report the per-layer table instead of the end-to-end metrics")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding the built ecfbench and perfbench")
	workDir := flag.String("work", ".bench_build/runs", "parent of the run's scratch directory")
	flag.Parse()
	if !contains(Workloads, *workload) || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %v, -seconds >= 1 and -trace 0 or 1\n", Workloads)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workDir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	e := &env{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, binDir: *binDir, dir: dir, workers: runtime.NumCPU(), ctx: ctx,
	}
	res, err := e.run()
	cancel()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures the workload and checks its outputs. An error means the
// run could not be measured at all (no result is printed).
func (e *env) run() (*Result, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	host := hostInfo()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %v, trace %t; host %q, %d CPUs, %s\n",
		e.workload, e.seed, e.seconds, e.traced, host.CPU, host.NumCPU, host.Go)
	var t tally
	var m map[string]float64
	switch e.workload {
	case "web":
		m, err = e.runSeeded(exp, &t)
	default:
		m, err = e.runCatalog(exp, &t)
	}
	if err != nil {
		return nil, err
	}
	if t.first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d cells failed their output check; first: %v\n", t.failed, t.attempted, t.first)
	}
	defs := EndToEnd
	if e.traced {
		defs = PerLayer
	}
	res := &Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no cell was checked")
	}
	return res, nil
}

// measure runs sweeps until the run's time is spent: at least minSweeps,
// then more while the next one (estimated by the last) still fits. The
// sweep index is passed so alternating schemes can use it. When probe is
// not nil, each sweep is followed by set-up-only processes for
// probeShare of its time, and measure returns their set-up seconds. The
// reference kernel is timed before the first sweep and after every
// sweep for refShare of its time.
func (e *env) measure(sweep func(i int) error, probe func() (float64, error)) ([]float64, error) {
	start := time.Now()
	var last time.Duration
	var setups []float64
	e.refs = append(e.refs, hostRef(e.workers))
	for i := 0; ; i++ {
		if i >= minSweeps && time.Since(start)+last > e.seconds {
			return setups, nil
		}
		t0 := time.Now()
		if err := sweep(i); err != nil {
			return setups, err
		}
		swept := time.Since(t0)
		for r0 := time.Now(); ; {
			e.refs = append(e.refs, hostRef(e.workers))
			if time.Since(r0) >= time.Duration(refShare*float64(swept)) {
				break
			}
		}
		budget := time.Duration(probeShare * float64(swept))
		for p0 := time.Now(); probe != nil; {
			s, err := probe()
			if err != nil {
				return setups, err
			}
			setups = append(setups, s)
			if time.Since(p0) >= budget {
				break
			}
		}
		last = time.Since(t0)
	}
}

// proc is one finished child process.
type proc struct {
	stdout      []byte  // stdout after the dispatch marker, or all of it
	setupS      float64 // start to the marker, less the cell generation it reports
	wallS       float64 // start to exit
	cpuS, rssMB float64
}

// spawn runs a child process to completion. With marker set, the first
// stdout line must be dispatchMarker and the nanoseconds the child spent
// generating cells; its arrival ends set-up time, which excludes them.
func (e *env) spawn(marker bool, name string, args ...string) (*proc, error) {
	cmd := exec.CommandContext(e.ctx, name, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{}
	r := bufio.NewReader(pipe)
	var readErr error
	if marker {
		line, err := r.ReadString('\n')
		p.setupS = time.Since(start).Seconds()
		var genNs int64
		if err == nil {
			_, err = fmt.Sscanf(line, dispatchMarker+" %d\n", &genNs)
		}
		if err != nil {
			readErr = fmt.Errorf("expected a dispatch marker, got %q (%v)", line, err)
		}
		p.setupS -= float64(genNs) / 1e9
	}
	rest, err := io.ReadAll(r)
	if readErr == nil {
		readErr = err
	}
	waitErr := cmd.Wait()
	p.wallS = time.Since(start).Seconds()
	if waitErr != nil || readErr != nil {
		tail := stderr.String()
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return nil, fmt.Errorf("%s %v: %v %v\n%s", filepath.Base(name), args, waitErr, readErr, tail)
	}
	p.stdout = rest
	st := cmd.ProcessState
	p.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return p, nil
}

// hostScale is the factor that brings the run's times to the host's
// nominal speed (see refNominalS).
func (e *env) hostScale() float64 {
	return refNominalS / Median(e.refs)
}

// endToEnd folds the measured sweeps and the set-up probes into the
// end-to-end metrics, each the median over the run, with times (and the
// rates that divide by them) brought to nominal host speed by scale.
func endToEnd(samples []sample, setups []float64, scale float64) map[string]float64 {
	col := func(f func(s sample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return Median(xs)
	}
	for _, s := range samples {
		setups = append(setups, s.setup)
	}
	return map[string]float64{
		"wall_s":      col(func(s sample) float64 { return s.wall }) * scale,
		"setup_s":     Median(setups) * scale,
		"cpu_s":       col(func(s sample) float64 { return s.cpu }) * scale,
		"pkts_per_s":  col(func(s sample) float64 { return float64(s.pkts) / s.wall }) / scale,
		"cells_per_s": col(func(s sample) float64 { return float64(s.cells) / s.wall }) / scale,
		"peak_rss_mb": col(func(s sample) float64 { return s.rssMB }),
	}
}

// Median returns the middle value (mean of the two middle values for
// an even count); NaN for no values.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is how the spread of repeated runs is judged.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Percentile is the nearest-rank percentile of xs (q in [0, 1]).
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// Host describes the machine a run was measured on.
type Host struct {
	CPU    string `json:"cpu"`
	NumCPU int    `json:"nproc"`
	Go     string `json:"go"`
	OS     string `json:"os"`
}

func hostInfo() Host {
	h := Host{CPU: "unknown", NumCPU: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
