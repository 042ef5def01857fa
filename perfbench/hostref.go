package main

import (
	"container/heap"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// A host shared with other tenants changes speed, on a shared 2-CPU Xeon
// by up to a third for minutes at a time, and every time a run measures
// shifts with it. A run therefore also times a fixed reference kernel
// around its sweeps and scales its times by refNominalS over the
// kernel's median time, so that they read as at the host's nominal
// speed. On that Xeon the median web sweep time of blocks of six sweeps
// correlated 0.87–0.94 with the kernel's, and the scaling halved their
// spread.
const refNominalS = 0.12

// refEvents is how many events the kernel schedules per worker.
const refEvents = 300_000

// hostRef times the reference kernel on workers goroutines at once, as
// many as the sweeps use, and returns its wall seconds. The kernel is
// the simulator's mix of work, binary-heap event scheduling, map
// updates, small sorts and allocation, written against the standard
// library only, so no change to the program under test moves it.
func hostRef(workers int) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			refKernel(seed, refEvents)
		}(int64(w))
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

type refEvent struct {
	at  int64
	seq int
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refKernel runs n events through a 2000-event heap; every event
// re-arms itself a little later and updates a map, and every 512th
// sorts 256 random values and allocates a page.
func refKernel(seed int64, n int) int64 {
	rng := rand.New(rand.NewSource(seed))
	h := &refHeap{}
	for i := 0; i < 2000; i++ {
		heap.Push(h, refEvent{at: rng.Int63n(1 << 20), seq: i, id: i})
	}
	m := map[int]int64{}
	buf := make([]int64, 256)
	var acc int64
	for i := 0; i < n; i++ {
		e := heap.Pop(h).(refEvent)
		acc += e.at
		m[e.id%4096] += e.at
		heap.Push(h, refEvent{at: e.at + rng.Int63n(1<<12), seq: i, id: e.id + 1})
		if i%512 == 0 {
			for j := range buf {
				buf[j] = rng.Int63()
			}
			sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
			page := make([]byte, 4096)
			acc ^= buf[128] + int64(page[0])
		}
	}
	return acc + int64(len(m))
}
