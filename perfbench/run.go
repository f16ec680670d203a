package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// runner holds one run of one workload.
type runner struct {
	cfg  config
	w    workloadConfig
	in   *inputs
	seed int64
	bin  string // deepeye-server binary
	work string // this run's working directory inside the checkout

	srv       *serverProc
	dataDir   string
	liveEpoch uint64 // live-append: epoch and fingerprint after registration
	liveFP    string
	askSubset map[int]bool
}

// setUp starts the server n times, each time timing exec until
// /healthz answers plus registration, priming and one warm-up request.
// With keep the last server stays up to be measured; every other one
// is stopped again. tag names the data directories.
func (r *runner) setUp(n int, tag string, keep bool) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < n; i++ {
		dataDir := filepath.Join(r.work, fmt.Sprintf("%s%d", tag, i))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := r.cfg.serverArgs(r.w, addr, dataDir)
		start := time.Now()
		srv, err := startServer(r.bin, args, r.w.Clients+1)
		if err != nil {
			return nil, err
		}
		r.srv = srv // so the run's watchdog and exit path stop it
		if err := r.prepare(srv); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start))
		if keep && i == n-1 {
			r.dataDir = dataDir
			break
		}
		srv.stop()
		r.srv = nil
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// phase is what one measured phase observed.
type phase struct {
	results   []opResult
	wall      time.Duration
	exhausted bool // the inputs ran out before the time did
	cpu       time.Duration
	peakRSS   int64 // VmHWM after w.RSSAfterOps operations
	rssAtEnd  bool  // the run never reached that count; peakRSS is from its end
	routes    map[string]int
	before    map[string]float64
	after     map[string]float64
	walBytes  int64 // live-append: growth of the data directory
	busy      int64 // host busy and steal jiffies during the phase
	steal     int64
}

// measure runs the closed loop against the set-up server for dur:
// w.Clients goroutines each send their next operation only after the
// previous one has been read in full.
func (r *runner) measure(ctx context.Context, dur time.Duration) (*phase, error) {
	n, reqs := r.ops()
	p := &phase{routes: map[string]int{}}
	var err error
	if p.before, err = r.srv.metrics(ctx); err != nil {
		return nil, err
	}
	walBefore := dirSize(r.dataDir)
	cpuBefore, err := r.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	var (
		next      atomic.Int64
		done      atomic.Int64
		exhausted atomic.Bool
		mu        sync.Mutex
		wg        sync.WaitGroup
		lastEnd   time.Time
		rssErr    error
	)
	busy0, steal0 := hostCPU()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < r.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []opResult
			routes := map[string]int{}
			var end time.Time
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					exhausted.Store(true)
					break
				}
				qs := reqs(i)
				statuses := make([]int, len(qs))
				bodies := make([][]byte, len(qs))
				var callErr error
				t0 := time.Now()
				for j, q := range qs {
					statuses[j], bodies[j], callErr = call(r.srv.client, r.srv.base, q)
					routes[routeOf(q.path)]++
					if callErr != nil {
						break
					}
				}
				end = time.Now()
				o := opResult{idx: i, lat: end.Sub(t0)}
				if callErr != nil {
					o.fail = callErr.Error()
				} else {
					o.fail = inlineCheck(statuses, bodies)
				}
				if o.fail == "" && r.keepBodies(i) {
					o.bodies = bodies
				}
				mine = append(mine, o)
				// Read the high-water mark at a fixed operation count,
				// outside any timed span, so it does not grow with the
				// number of operations a faster program completes.
				if done.Add(1) == int64(r.w.RSSAfterOps) {
					rss, err := r.srv.peakRSS()
					mu.Lock()
					p.peakRSS, rssErr = rss, err
					mu.Unlock()
				}
			}
			mu.Lock()
			defer mu.Unlock()
			p.results = append(p.results, mine...)
			for k, v := range routes {
				p.routes[k] += v
			}
			if end.After(lastEnd) {
				lastEnd = end
			}
		}()
	}
	wg.Wait()
	p.wall = lastEnd.Sub(start)
	busy1, steal1 := hostCPU()
	p.busy, p.steal = busy1-busy0, steal1-steal0
	p.exhausted = exhausted.Load()
	sort.Slice(p.results, func(a, b int) bool { return p.results[a].idx < p.results[b].idx })
	cpuAfter, err := r.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpuAfter - cpuBefore
	if rssErr != nil {
		return nil, rssErr
	}
	if done.Load() < int64(r.w.RSSAfterOps) {
		p.rssAtEnd = true
		if p.peakRSS, err = r.srv.peakRSS(); err != nil {
			return nil, err
		}
	}
	p.walBytes = dirSize(r.dataDir) - walBefore
	if p.after, err = r.srv.metrics(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// dirSize is the total size of the regular files under dir (0 when dir
// is empty or absent).
func dirSize(dir string) int64 {
	var n int64
	if dir == "" {
		return 0
	}
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// reconcile compares the client's request count per route with the
// server's deepeye_http_requests_total deltas. /metrics is left out:
// the scrapes themselves count there.
func reconcile(p *phase) []string {
	const prefix = `deepeye_http_requests_total{route="`
	server := map[string]int{}
	for k, v := range p.after {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			route := k[len(prefix) : len(k)-2]
			if d := int(v - p.before[k]); d != 0 && route != "/metrics" {
				server[route] = d
			}
		}
	}
	var bad []string
	for route, n := range p.routes {
		if server[route] != n {
			bad = append(bad, fmt.Sprintf("route %s: client sent %d, server counted %d", route, n, server[route]))
		}
	}
	for route, n := range server {
		if _, ok := p.routes[route]; !ok {
			bad = append(bad, fmt.Sprintf("route %s: server counted %d the client never sent", route, n))
		}
	}
	sort.Strings(bad)
	return bad
}

// delta sums after−before over the series whose key starts with prefix.
func delta(p *phase, prefix string) float64 {
	var d float64
	for k, v := range p.after {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			d += v - p.before[k]
		}
	}
	return d
}
