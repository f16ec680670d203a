package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
)

//go:embed workloads.json
var workloadsJSON []byte

// config is workloads.json: how each workload is built and served.
type config struct {
	ServerFlags  []string         `json:"server_flags"`
	SetupsPerRun int              `json:"setups_per_run"`
	Workloads    []workloadConfig `json:"workloads"`
}

// workloadConfig is the part of one workload's record that drives the
// run; the file's other fields (request, flush, schema) document it.
type workloadConfig struct {
	Name           string   `json:"name"`
	Why            string   `json:"why"`
	Loop           string   `json:"loop"`
	Clients        int      `json:"clients"`
	ExtraFlags     []string `json:"extra_flags"`
	Rows           int      `json:"rows"`
	BatchRows      int      `json:"batch_rows"`
	Datasets       int      `json:"datasets"`
	K              int      `json:"k"`
	Pool           int      `json:"pool"`
	CheckSubset    int      `json:"check_subset"`
	TailPercentile float64  `json:"tail_percentile"`
	RSSAfterOps    int      `json:"rss_after_ops"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return c, fmt.Errorf("workloads.json: %w", err)
	}
	return c, nil
}

func (c config) workload(name string) (workloadConfig, error) {
	var names []string
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadConfig{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// serverArgs is the server command line for one workload: the shared
// production defaults, a loopback address and the workload's extra
// flags with {datadir} filled in.
func (c config) serverArgs(w workloadConfig, addr, dataDir string) []string {
	args := append([]string{"-addr", addr}, c.ServerFlags...)
	for _, f := range w.ExtraFlags {
		args = append(args, strings.ReplaceAll(f, "{datadir}", dataDir))
	}
	return args
}
