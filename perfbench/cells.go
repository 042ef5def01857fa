package main

import (
	"math/rand"

	"repro/internal/trace"
)

// Seeds recorded for claims. DefaultSeed is the one a change is tuned
// on; ValidationSeed is held out, so a claimed gain must also hold on
// inputs that were not looked at while the change was written.
const (
	DefaultSeed    = 1
	ValidationSeed = 20171212
)

// webCells is the size of one sweep: about 2.5 s on two workers of a
// 2-CPU Xeon, so a run holds several sweeps and the per-cell
// percentiles pool well over 1000 cells.
const webCells = 14350

// Cell is one independent simulation a sweep dispatches: a wget-style
// download of Bytes (> 0) or a CNN-style page load over six
// connections (Page).
type Cell struct {
	WifiMbps  float64
	LteMbps   float64
	Scheduler string
	Bytes     int64
	Page      bool
	// Seed drives the path loss processes, the download's RTT jitter
	// walks and the page manifest.
	Seed uint64
}

// The web mix follows the full-scale catalog's §5.4/§5.5 cells:
//
//   - Figure 18: 4 sizes × 4 schedulers × 10 LTE rates × 5 runs at
//     1 Mbps WiFi, 800 downloads;
//   - Figure 19: 4 sizes × 10 × 10 rate pairs × {minrtt, ecf} × 5 runs,
//     4000 downloads;
//   - Figures 20/21: 4 schedulers × 3 rate pairs × 5 runs, 60 page loads;
//   - Figure 23: {minrtt, ecf} × 30 runs, 60 page loads (in the wild;
//     here on the Figure 20 rate pairs).
//
// So one page load in 41 cells, and one download in six is a Figure 18
// one. The sizes are Figure 18's plus a 16 KB transfer, the short end of
// the range the workload covers.
var (
	allSchedulers  = []string{"minrtt", "daps", "blest", "ecf"}
	pairSchedulers = []string{"minrtt", "ecf"}
	webSizes       = []int64{16 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	// pageRates are the three panels of Figures 20 and 21.
	pageRates = [][2]float64{{5, 5}, {1, 5}, {1, 10}}
)

const (
	pagePeriod  = 41 // cells per page load
	fig18Period = 6  // downloads per Figure 18 download
)

// GenWeb draws a web sweep from seed. The cost-dominant inputs (cell
// kind and transfer size) are stratified, so sweeps of different seeds
// carry about the same work; the seed draws the rates, schedulers and
// per-cell seeds, and shuffles the order.
func GenWeb(seed int64) []Cell {
	rng := rand.New(rand.NewSource(seed))
	bw := trace.WebBandwidthsMbps
	cells := make([]Cell, 0, webCells)
	wgets := 0
	for i := 0; i < webCells; i++ {
		var c Cell
		switch {
		case i%pagePeriod == pagePeriod-1:
			r := pageRates[rng.Intn(len(pageRates))]
			c = Cell{WifiMbps: r[0], LteMbps: r[1], Scheduler: allSchedulers[rng.Intn(len(allSchedulers))], Page: true}
		case wgets/len(webSizes)%fig18Period == 0:
			c = Cell{WifiMbps: 1, LteMbps: bw[rng.Intn(len(bw))], Scheduler: allSchedulers[rng.Intn(len(allSchedulers))]}
		default:
			c = Cell{WifiMbps: bw[rng.Intn(len(bw))], LteMbps: bw[rng.Intn(len(bw))], Scheduler: pairSchedulers[rng.Intn(len(pairSchedulers))]}
		}
		if !c.Page {
			c.Bytes = webSizes[wgets%len(webSizes)]
			wgets++
		}
		c.Seed = rng.Uint64()
		cells = append(cells, c)
	}
	rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
	return cells
}
