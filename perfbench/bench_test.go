package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/nlq"
)

func TestHighestTailLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 85, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("highestTail(%d) = p%v leaves only %d beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	if got := percentile(d, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", got)
	}
	if got := medianDuration([]time.Duration{4, 1, 3, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3, 4], n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // sticks out of op
		{Name: "a.child", Parent: 1, Start: 15, End: 20},
		{Name: "d", Parent: 0, Start: 35, End: 50}, // inside a∪b
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 50 - 10, 25, 30, 30, 5, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func testWorkload(t *testing.T, name string) workloadConfig {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	w, err := cfg.workload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestUploadBodiesAreSeededAndDistinct(t *testing.T) {
	w := testWorkload(t, "upload-topk")
	w.Pool, w.Rows = 30, 200
	a, err := generate(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]int{}
	for i, body := range append(a.uploads, a.warmup) {
		if i < len(b.uploads) && !bytes.Equal(body, b.uploads[i]) {
			t.Fatalf("upload %d differs between two generations with seed 7", i)
		}
		if i < len(c.uploads) && bytes.Equal(body, c.uploads[i]) {
			t.Fatalf("upload %d is the same under seeds 7 and 8", i)
		}
		tab, err := dataset.FromCSV("upload", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := fps[tab.Fingerprint()]; dup {
			t.Fatalf("uploads %d and %d share fingerprint %s: the second would hit the cache", j, i, tab.Fingerprint())
		}
		fps[tab.Fingerprint()] = i
	}
}

func TestAskQuestionsAreSeededAndNormalizeDistinct(t *testing.T) {
	w := testWorkload(t, "ask")
	w.Pool, w.Datasets, w.Rows = 300, 3, 600
	a, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.asks) != len(b.asks) || a.warmAsk != b.warmAsk {
		t.Fatalf("two generations with seed 3 differ: %d vs %d questions", len(a.asks), len(b.asks))
	}
	for i := range a.datasets {
		if !bytes.Equal(a.datasets[i].body, b.datasets[i].body) {
			t.Fatalf("dataset %d differs between two generations", i)
		}
	}
	if len(a.asks) < w.Pool/2 {
		t.Fatalf("only %d of %d questions kept", len(a.asks), w.Pool)
	}
	seen := map[askReq]bool{}
	for i, q := range append(a.asks, a.warmAsk) {
		if i < len(b.asks) && q != b.asks[i] {
			t.Fatalf("question %d differs between two generations", i)
		}
		key := askReq{q.dataset, nlq.Normalize(q.question)}
		if seen[key] {
			t.Fatalf("question %q on dataset %d normalizes like an earlier one: it would hit the answer cache", q.question, q.dataset)
		}
		seen[key] = true
	}
}

func TestAppendBatchesAreSeeded(t *testing.T) {
	w := testWorkload(t, "live-append")
	w.Pool, w.Rows = 20, 300
	a, err := generate(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.batches {
		if !bytes.Equal(a.batches[i], b.batches[i]) {
			t.Fatalf("batch %d differs between two generations", i)
		}
		rows, err := dataset.ReadRows(bytes.NewReader(a.batches[i]), false, dataset.ReadLimits{})
		if err != nil || len(rows) != w.BatchRows {
			t.Fatalf("batch %d: %d rows, %v", i, len(rows), err)
		}
	}
}

func TestReconcileFlagsEveryMismatch(t *testing.T) {
	p := &phase{
		routes: map[string]int{"/topk": 3, "/datasets/a/topk": 2},
		before: map[string]float64{`deepeye_http_requests_total{route="/topk"}`: 1, `deepeye_http_requests_total{route="/metrics"}`: 4},
		after: map[string]float64{
			`deepeye_http_requests_total{route="/topk"}`:            4,
			`deepeye_http_requests_total{route="/metrics"}`:         6,
			`deepeye_http_requests_total{route="/datasets/a/topk"}`: 1,
			`deepeye_http_requests_total{route="/healthz"}`:         1,
		},
	}
	got := strings.Join(reconcile(p), "\n")
	for _, want := range []string{"route /datasets/a/topk: client sent 2, server counted 1", "route /healthz: server counted 1"} {
		if !strings.Contains(got, want) {
			t.Errorf("reconcile missed %q; got:\n%s", want, got)
		}
	}
	if strings.Contains(got, "/topk:") && strings.Contains(got, "route /topk") {
		t.Errorf("reconcile flagged the matching /topk route:\n%s", got)
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader("# HELP x y\n# TYPE x counter\nx{route=\"/a b\"} 3\nlat_sum 0.25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m[`x{route="/a b"}`] != 3 || m["lat_sum"] != 0.25 {
		t.Fatalf("parsed %v", m)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, workloads.json
// and the metric tables in this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, bw := range b.Workloads {
		w, err := cfg.workload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if bw.Why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and workloads.json give different reasons", w.Name)
		}
		if !strings.Contains(w.Why, fmt.Sprintf("tail p%g.", w.TailPercentile)) &&
			!strings.Contains(w.Why, fmt.Sprintf("tail p%g,", w.TailPercentile)) {
			t.Errorf("workload %s: the reason does not name its tail percentile p%g", w.Name, w.TailPercentile)
		}
	}
	for _, c := range []struct {
		json []def
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code reports %d", len(c.json), len(c.code))
		}
		for i, m := range c.code {
			j := c.json[i]
			if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Errorf("metric %d: BENCHMARK.json %v, code %s %s %s", i, j, m.name, m.unit, m.better)
			}
		}
	}
}
