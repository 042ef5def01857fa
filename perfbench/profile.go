package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// Profile is what the layer table reads from a CPU profile: each
// function's self seconds and, per pattern asked for, the seconds of
// samples that pass through a function matching it (time spent in or
// under those functions).
type Profile struct {
	Self map[string]float64
	Cum  map[string]float64
}

// pprofTop is `go tool pprof -top` over every node, in milliseconds,
// from the profile's own symbols.
var pprofTop = []string{"tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0", "-symbolize=none", "-unit=ms"}

// ReadProfile reads a CPU profile with the toolchain's pprof: one -top
// report for the self times and one focused report per pattern.
func ReadProfile(ctx context.Context, path string, patterns ...string) (*Profile, error) {
	top := func(extra ...string) ([]byte, error) {
		args := append(append(append([]string(nil), pprofTop...), extra...), path)
		cmd := exec.CommandContext(ctx, "go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go tool pprof %s: %v\n%s", path, err, stderr.String())
		}
		return out, nil
	}
	out, err := top()
	if err != nil {
		return nil, err
	}
	p := &Profile{Cum: map[string]float64{}}
	if p.Self, err = ParseTop(out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, pat := range patterns {
		out, err := top("-focus=" + pat)
		if err != nil {
			return nil, err
		}
		if p.Cum[pat], err = ShownSeconds(out); err != nil {
			return nil, fmt.Errorf("%s focus %s: %w", path, pat, err)
		}
	}
	return p, nil
}

// ParseTop reads the function rows of a -top report (flat, flat%,
// sum%, cum, cum%, name) into self seconds per function.
func ParseTop(out []byte) (map[string]float64, error) {
	self := map[string]float64{}
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof row %q", sc.Text())
		}
		flat, err := seconds(f[0])
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		self[name] += flat
	}
	if !rows {
		return nil, fmt.Errorf("no pprof -top table in %q", out)
	}
	return self, sc.Err()
}

// ShownSeconds reads the total of the samples a report shows, from its
// "Showing nodes accounting for X, ..." line; with -focus that is the
// time of the samples through the matching functions.
func ShownSeconds(out []byte) (float64, error) {
	const prefix = "Showing nodes accounting for "
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			v, _, _ := strings.Cut(rest, ",")
			return seconds(v)
		}
	}
	return 0, fmt.Errorf("no %q line in %q", prefix, out)
}

// seconds parses a pprof duration such as "170ms" or "0".
func seconds(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof value %q: %w", s, err)
	}
	return d.Seconds(), nil
}

// Layer names a function's package the way the layer table does: the
// module's own packages by their last path element, the Go runtime as
// "runtime", the benchmark's own code as "bench", and everything else
// (standard library encoding, sorting, syscalls) as "other".
func Layer(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments can hold other package paths
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "main" || strings.HasPrefix(pkg, "repro/perfbench"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// LayerSeconds sums the self time of each layer's functions.
func (p *Profile) LayerSeconds() map[string]float64 {
	out := map[string]float64{}
	for fn, s := range p.Self {
		out[Layer(fn)] += s
	}
	return out
}
