// Command perfbench measures the deepeye-server serving path from the
// outside. Each run starts the real server binary with its production
// default flags, sets it up several times, drives one workload through
// a closed loop of HTTP clients for a fixed time, checks every answer,
// and prints the end-to-end metrics. With -trace 1 it then replays the
// same operations in-process, timing each layer's public functions,
// and prints the per-layer metrics instead.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload upload-topk --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh steady --runs 10
//
// The last line of output is one JSON object: correct, attempted,
// failed and metrics. Any wrong answer makes the exit status non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLimit bounds a whole run, so a hung server cannot hold the
// benchmark past three minutes.
const runLimit = 170 * time.Second

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see workloads.json)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "measured seconds (split between the untraced and traced phases with -trace 1)")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced in-process replay")
	bin := fs.String("server", "", "deepeye-server binary")
	work := fs.String("work", "", "working directory inside the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -work, -seconds >= 1 and -trace 0|1")
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, err := cfg.workload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &runner{cfg: cfg, w: w, seed: *seed, bin: *bin, work: runDir}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		if r.srv != nil {
			_ = r.srv.cmd.Process.Kill()
		}
		_ = os.RemoveAll(runDir)
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := r.run(context.Background(), time.Duration(*seconds)*time.Second, *trace == 1)
	if r.srv != nil {
		r.srv.stop()
	}
	if rmErr := os.RemoveAll(runDir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run generates the inputs, sets up, measures, checks, and with traced
// replays the operations in-process.
func (r *runner) run(ctx context.Context, dur time.Duration, traced bool) (*result, error) {
	fmt.Printf("workload %s seed %d: %s loop, %d client(s), nproc %d, %s\n",
		r.w.Name, r.seed, r.w.Loop, r.w.Clients, runtime.NumCPU(), runtime.Version())
	var err error
	if r.in, err = generate(r.w, r.seed); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	if r.w.Name == "ask" {
		// Only operations the run reaches are checked; draw the subset
		// from the front of the sequence so a short run still has one.
		r.askSubset = chooseSubset(min(len(r.in.asks), r.w.CheckSubset*8), r.w.CheckSubset, r.seed)
	}
	measured := dur
	if traced {
		measured = dur / 2
	}
	// Half the set-ups run before the measured phase and the rest after
	// it, so setup_s samples the host at two moments of the run rather
	// than one burst at its start.
	before := (r.cfg.SetupsPerRun + 1) / 2
	setups, err := r.setUp(before, "pre", true)
	if err != nil {
		return nil, err
	}
	p, err := r.measure(ctx, measured)
	if err != nil {
		return nil, err
	}
	r.srv.stop()
	r.srv = nil
	if !traced {
		after, err := r.setUp(r.cfg.SetupsPerRun-before, "post", false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, after...)
	}

	res := &result{Attempted: len(p.results), Metrics: map[string]metric{}}
	var lats []time.Duration
	for _, o := range p.results {
		if o.fail != "" {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Printf("FAIL op %d: %s\n", o.idx, o.fail)
			}
			continue
		}
		lats = append(lats, o.lat)
	}
	bad, err := r.checkAfter(ctx, p.results)
	if err != nil {
		return nil, err
	}
	bad = append(bad, reconcile(p)...)
	if res.Attempted == 0 || len(lats) == 0 {
		bad = append(bad, "no operation succeeded")
		lats = append(lats, 0)
	}
	sorted := sortDurations(lats)
	p50 := medianDuration(lats)
	fmt.Printf("attempted %d, succeeded %d, failed %d in %.2fs", res.Attempted, res.Attempted-res.Failed, res.Failed, p.wall.Seconds())
	if p.exhausted {
		fmt.Printf(" (inputs ran out before the time did)")
	}
	fmt.Printf("; host CPU busy %.2fs, stolen %.2fs\n", float64(p.busy)/clockTicks, float64(p.steal)/clockTicks)
	fmt.Printf("percentiles (ms): p50 %.4f  p75 %.4f  p90 %.4f  p95 %.4f  p99 %.4f  max %.4f\n",
		ms(percentile(sorted, 50)), ms(percentile(sorted, 75)), ms(percentile(sorted, 90)),
		ms(percentile(sorted, 95)), ms(percentile(sorted, 99)), ms(sorted[len(sorted)-1]))
	if tp, ok := highestTail(len(lats)); ok {
		fmt.Printf("tail: p%g fixed for this workload, %d samples beyond it; the sample count allows up to p%g\n",
			r.w.TailPercentile, beyond(len(lats), r.w.TailPercentile), tp)
	}
	if p.rssAtEnd {
		fmt.Printf("WARNING: the run ended before %d operations; peak_rss_mib is VmHWM at its end\n", r.w.RSSAfterOps)
	}
	if beyond(len(lats), r.w.TailPercentile) < minBeyond {
		fmt.Printf("WARNING: fewer than %d samples beyond p%g; tail_ms is unreliable\n", minBeyond, r.w.TailPercentile)
	}

	if traced {
		layers, fidelity, err := r.perLayerMetrics(ctx, p, p50, dur-measured)
		if err != nil {
			return nil, err
		}
		bad = append(bad, fidelity...)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
			fmt.Printf("%-30s %12.4f %-6s moves %-34s on %s\n", m.name, layers[m.name], m.unit, m.moves, m.where)
		}
	} else {
		values := map[string]float64{
			"p50_ms":        ms(p50),
			"tail_ms":       ms(percentile(sorted, r.w.TailPercentile)),
			"ops_per_s":     float64(len(lats)) / p.wall.Seconds(),
			"cpu_ms_per_op": ms(p.cpu) / float64(max(res.Attempted, 1)),
			"peak_rss_mib":  float64(p.peakRSS) / (1 << 20),
			"setup_s":       medianDuration(setups).Seconds(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
			fmt.Printf("%-14s %12.4f %s\n", m.name, values[m.name], m.unit)
		}
		var st []string
		for _, d := range setups {
			st = append(st, fmt.Sprintf("%.3f", d.Seconds()))
		}
		fmt.Printf("set-ups (s): %s\n", strings.Join(st, " "))
	}
	for i, b := range bad {
		if i == 20 {
			fmt.Printf("MISMATCH ... and %d more\n", len(bad)-i)
			break
		}
		fmt.Println("MISMATCH", b)
	}
	res.Correct = len(bad) == 0 && res.Failed == 0
	return res, nil
}
