package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Record is the run record of repeated runs: where and what was
// measured, and per workload the median and quartiles of every metric.
// Numbers from two hosts are compared only through such records, never
// as absolutes.
type Record struct {
	Host     Host                      `json:"host"`
	Commit   string                    `json:"commit"`
	Date     string                    `json:"date"`
	Seconds  int                       `json:"seconds"`
	Trace    int                       `json:"trace"`
	Runs     int                       `json:"runs"`
	Workload map[string]WorkloadRecord `json:"workloads"`
}

// WorkloadRecord summarizes one workload's runs.
type WorkloadRecord struct {
	Seeds     []int64                 `json:"seeds"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]MetricRecord `json:"metrics"`
}

// MetricRecord is one metric over the runs. Spread is the distance
// between the quartiles as a share of the median.
type MetricRecord struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// recordMain runs the benchmark -runs times per workload, each a fresh
// process with the next seed, and writes the run record.
func recordMain(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	workloads := fs.String("workloads", strings.Join(Workloads, ","), "comma-separated workloads")
	runs := fs.Int("runs", 10, "runs per workload")
	seed0 := fs.Int64("seed", 100, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 38, "seconds each run measures")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer table")
	binDir := fs.String("bin", ".bench_build/bin", "directory holding the built binaries")
	out := fs.String("out", "", "run record destination (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec := Record{Host: hostInfo(), Commit: commit(), Date: time.Now().UTC().Format(time.RFC3339),
		Seconds: *seconds, Trace: *traceFlag, Runs: *runs, Workload: map[string]WorkloadRecord{}}
	for _, w := range strings.Split(*workloads, ",") {
		if !contains(Workloads, w) {
			return fmt.Errorf("unknown workload %q", w)
		}
		wr := WorkloadRecord{Metrics: map[string]MetricRecord{}}
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			cmd := exec.Command(os.Args[0], "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*traceFlag), "-bin", *binDir)
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			var res Result
			if jerr := json.Unmarshal(lastLine(b), &res); jerr != nil {
				return fmt.Errorf("%s seed %d: %v %v", w, seed, err, jerr)
			}
			wr.Seeds = append(wr.Seeds, seed)
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				mr := wr.Metrics[name]
				mr.Unit = m.Unit
				mr.Values = append(mr.Values, m.Value)
				wr.Metrics[name] = mr
			}
		}
		names := make([]string, 0, len(wr.Metrics))
		for name := range wr.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			mr := wr.Metrics[name]
			mr.Median = Median(mr.Values)
			mr.Q1, mr.Q3 = Quartiles(mr.Values)
			if mr.Median != 0 {
				mr.Spread = (mr.Q3 - mr.Q1) / mr.Median
			}
			wr.Metrics[name] = mr
			fmt.Fprintf(os.Stderr, "%-14s %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f\n", w, name, mr.Median, mr.Q1, mr.Q3, mr.Spread)
		}
		rec.Workload[w] = wr
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(b)
	} else {
		err = os.WriteFile(*out, b, 0o644)
	}
	if err != nil {
		return err
	}
	for _, wr := range rec.Workload {
		if wr.Failed > 0 {
			return errors.New("some output checks failed; see the record")
		}
	}
	return nil
}

// commit names the measured source: $BENCH_COMMIT, else git's HEAD,
// else "unknown" (a checkout without git metadata).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}
