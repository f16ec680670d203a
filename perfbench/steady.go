package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// benchmarkPath is relative to the repository root, where run.sh
// starts the steadiness report.
const benchmarkPath = "BENCHMARK.json"

// benchmarkFile is the part of BENCHMARK.json the steadiness report
// reads: the run length, the gated workloads and each end-to-end
// metric's bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// watched are the workload/metric pairs that have been the least steady
// on a shared two-core host; the report always names them.
var watched = []string{"live-append/tail_ms", "ask/setup_s"}

// steadyMain runs every workload of BENCHMARK.json -runs times for
// run_seconds, with seeds 1..runs, and prints per end-to-end metric the
// median, quartiles, min and max, and the quartile spread as a share
// of the median against the metric's bound. It exits non-zero when a
// run fails or any spread, setup_s's too, exceeds its bound.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload, with seeds 1, 2, ...")
	bin := fs.String("server", "", "deepeye-server binary")
	work := fs.String("work", "", "working directory inside the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var names []string
	for _, w := range bf.Workloads {
		if _, err := cfg.workload(w.Name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		names = append(names, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{} // workload/metric → one value per run
	units := map[string]string{}
	failedRuns := 0
	for seed := 1; seed <= *runs; seed++ {
		for _, name := range names {
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(bf.RunSeconds), "-trace", "0", "-server", *bin, "-work", *work)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			start := time.Now()
			runErr := cmd.Run()
			took := time.Since(start)
			res, parseErr := lastResult(out.Bytes())
			if runErr != nil || parseErr != nil || !res.Correct {
				failedRuns++
				fmt.Printf("%s seed %d: run failed (%v, %v)\n%s", name, seed, runErr, parseErr, out.String())
				continue
			}
			var parts []string
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; ok {
					parts = append(parts, fmt.Sprintf("%s=%.4g", m.name, v.Value))
				}
			}
			fmt.Printf("%s seed %d: %d attempted, %d failed, %.1fs run  %s\n",
				name, seed, res.Attempted, res.Failed, took.Seconds(), strings.Join(parts, " "))
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "percentiles") || strings.HasPrefix(line, "attempted") {
					fmt.Println("    " + line)
				}
			}
			for k, v := range res.Metrics {
				values[name+"/"+k] = append(values[name+"/"+k], v.Value)
				units[name+"/"+k] = v.Unit
			}
		}
	}

	fmt.Printf("\n%-34s %10s %10s %10s %10s %10s %8s %6s\n", "workload/metric", "median", "q1", "q3", "min", "max", "spread", "bound")
	// report prints one workload/metric line and whether its spread is
	// above the bound.
	report := func(key string) bool {
		v := values[key]
		if len(v) == 0 {
			fmt.Printf("%-34s no runs\n", key)
			return false
		}
		q1, med, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		bound := bounds[key[strings.IndexByte(key, '/')+1:]]
		verdict := ""
		switch {
		case spread > bound:
			verdict = "NOISY: spread above bound"
		case spread > bound/3:
			verdict = "spread above a third of the bound"
		default:
			verdict = "steady"
		}
		fmt.Printf("%-34s %10.4g %10.4g %10.4g %10.4g %10.4g %8.4f %6.2f %s %s\n", key, med, q1, q3, lo, hi, spread, bound, units[key], verdict)
		return spread > bound
	}
	noisy := 0
	for _, name := range names {
		for _, m := range endToEnd {
			if report(name + "/" + m.name) {
				noisy++
			}
		}
	}
	fmt.Println("\nwatched pairs:")
	for _, key := range watched {
		report(key)
	}
	if failedRuns > 0 || noisy > 0 {
		fmt.Printf("\n%d failed runs, %d metrics with a spread above their bound\n", failedRuns, noisy)
		return 1
	}
	return 0
}

// lastResult parses the JSON object on the last non-empty line of out.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
