package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/nlq"
	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/server"
	"github.com/deepeye/deepeye/internal/vizql"
)

// tracedRun replays a workload's operations in-process, timing each
// layer's public functions on the operation's inputs:
//
//   - the pipeline as separate calls (ingest, fingerprint, stats,
//     enumerate, execute, dedupe, factors, order; parse for ask;
//     snapshot for live-append) on one copy of the state, whose pick
//     must equal the System's;
//   - the whole System call ("system", and the append on live-append)
//     on a second copy;
//   - an HTTP round trip over loopback to (*server.Handler).ServeHTTP
//     on a third copy ("http.transport" around "server.serve"), whose
//     answer must equal the System's.
//
// Each copy memoizes its own snapshots and column statistics, so the
// System call and the served request start equally cold and neither
// reuses the chain's work.
//
// server.self is serve minus system minus the ingest and append the
// handler also makes: routing, limiter and JSON/Vega encoding. Where
// the System call takes ~100 ms it is a difference of two large
// timings and carries their noise. http.transport is the round trip
// minus serve.
type tracedRun struct {
	r      *runner
	tr     *tracer
	chain  *deepeye.System // state the layer chain runs on
	ref    *deepeye.System // timed System calls and the fidelity oracle
	srv    *deepeye.System // behind the in-process handler
	hs     *httptest.Server
	client *http.Client
	bad    []string
	values []map[string]float64 // per traced operation

	// mu orders the handler goroutine's span records with the replay's.
	mu       sync.Mutex
	seq, rtt int // the operation and round-trip span in flight; -1 when untraced
}

func (r *runner) newTracedRun(ctx context.Context) (*tracedRun, error) {
	var dirs [3]string
	if r.w.Name == "live-append" {
		for i := range dirs {
			dirs[i] = filepath.Join(r.work, fmt.Sprintf("traced%d", i))
			if err := os.MkdirAll(dirs[i], 0o755); err != nil {
				return nil, err
			}
		}
	}
	var systems [3]*deepeye.System
	for i, dir := range dirs {
		s, err := deepeye.Open(serverOptions(dir))
		if err != nil {
			for _, open := range systems[:i] {
				open.Close()
			}
			return nil, err
		}
		systems[i] = s
	}
	chain, ref, srv := systems[0], systems[1], systems[2]
	t := &tracedRun{r: r, tr: newTracer(), chain: chain, ref: ref, srv: srv, client: newClient(1), seq: -1, rtt: -1}
	h := server.New(srv, server.Options{Timeout: 30 * time.Second, MaxInFlight: 128})
	t.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t.mu.Lock()
		i := -1
		if t.seq >= 0 {
			i = t.tr.begin("server.serve", t.seq, t.rtt)
		}
		t.mu.Unlock()
		h.ServeHTTP(w, req)
		if i >= 0 {
			t.mu.Lock()
			t.tr.end(i)
			t.mu.Unlock()
		}
	}))
	if err := t.prime(ctx); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// prime registers the datasets on all three systems and repeats the
// priming and warm-up the server got during set-up.
func (t *tracedRun) prime(ctx context.Context) error {
	r, ref := t.r, t.ref
	k := r.w.K
	for _, d := range r.in.datasets {
		for _, s := range []*deepeye.System{t.chain, ref, t.srv} {
			if _, err := s.RegisterCSV(d.name, bytes.NewReader(d.body)); err != nil {
				return err
			}
		}
	}
	switch r.w.Name {
	case "upload-topk":
		tab, err := deepeye.LoadCSV("upload", bytes.NewReader(r.in.warmup))
		if err != nil {
			return err
		}
		if _, err := ref.TopKCtx(ctx, tab, k); err != nil {
			return err
		}
		t.serve(-1, -1, http.MethodPost, fmt.Sprintf("/topk?k=%d", k), r.in.warmup)
	case "live-append":
		want, _, err := ref.TopKByName(ctx, "live", k)
		if err != nil {
			return err
		}
		t.serve(-1, -1, http.MethodGet, fmt.Sprintf("/datasets/live/topk?k=%d", k), nil)
		snap, _ := t.chain.DatasetSnapshot("live")
		picks, err := t.chainTopK(ctx, snap, -1, -1, nil, k)
		if err != nil {
			return err
		}
		t.checkPicks("top-k", picks, want)
	case "ask":
		a := r.in.warmAsk
		if _, _, err := ref.AskByName(ctx, r.in.datasets[a.dataset].name, a.question, k); err != nil {
			return err
		}
		q := askRequest(r.in, a, fmt.Sprint(k))
		t.serve(-1, -1, q.method, q.path, q.body)
	}
	return nil
}

func (t *tracedRun) close() {
	t.client.CloseIdleConnections()
	t.hs.Close()
	t.chain.Close()
	t.ref.Close()
	t.srv.Close()
}

// serve sends one request to the in-process server and returns the
// response body, recording a failure on any status but 200. With seq
// >= 0 the round trip is a span under parent.
func (t *tracedRun) serve(seq, parent int, method, target string, body []byte) []byte {
	t.mu.Lock()
	t.seq, t.rtt = seq, -1
	if seq >= 0 {
		t.rtt = t.tr.begin("http.transport", seq, parent)
	}
	t.mu.Unlock()
	status, got, err := call(t.client, t.hs.URL, request{method, target, body})
	t.mu.Lock()
	if t.rtt >= 0 {
		t.tr.end(t.rtt)
	}
	t.seq, t.rtt = -1, -1
	t.mu.Unlock()
	if err != nil || status != http.StatusOK {
		t.fail("in-process %s %s: status %d, %v: %.200s", method, target, status, err, got)
	}
	return got
}

// pick is one chart of a top-k answer.
type pick struct {
	query string
	score float64
}

// diversityKey is the key System.TopKCtx keeps one variant of: ORDER
// BY and aggregate variants of one chart over the same columns and
// bucketing tie on every factor and would crowd the first page.
func diversityKey(n *vizql.Node) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d|%d", n.Chart, n.XName, n.YName,
		n.Query.Spec.Kind, n.Query.Spec.Unit, n.Query.Spec.N)
}

// chainTopK runs the top-k pipeline as separate layer calls on tab
// (already ingested) and returns its k picks, recording counts in v.
// With op < 0 nothing is recorded.
func (t *tracedRun) chainTopK(ctx context.Context, tab *dataset.Table, op, parent int, v map[string]float64, k int) ([]pick, error) {
	do := func(name string, fn func()) {
		if op < 0 {
			fn()
			return
		}
		t.tr.do(name, op, parent, fn)
	}
	var (
		queries            []vizql.Query
		nodes, executed    []*vizql.Node
		factors            []rank.Factors
		order              []int
		scores             []float64
		enumErr, execErr   error
		factorErr, rankErr error
	)
	do("dataset.fingerprint", func() { tab.Fingerprint() })
	do("dataset.stats", func() {
		for _, c := range tab.Columns {
			c.Stats()
		}
	})
	do("rules.enumerate", func() { queries, enumErr = rules.EnumerateQueriesCtx(ctx, tab) })
	if enumErr != nil {
		return nil, enumErr
	}
	do("vizql.execute", func() { nodes, execErr = vizql.ExecuteAllParallelCtx(ctx, tab, queries, 1) })
	if execErr != nil {
		return nil, execErr
	}
	executed = append(executed, nodes...)
	do("vizql.dedupe", func() { nodes = vizql.Dedupe(nodes) })
	do("rank.factors", func() { factors, factorErr = rank.ComputeFactorsWorkersCtx(ctx, nodes, rank.FactorOptions{}, 1) })
	if factorErr != nil {
		return nil, factorErr
	}
	do("rank.order", func() { order, scores, rankErr = rank.OrderCtx(ctx, nodes, factors, rank.SelectOptions{Workers: 1}) })
	if rankErr != nil {
		return nil, rankErr
	}
	var got []pick
	seen := map[string]bool{}
	for _, idx := range order {
		key := diversityKey(nodes[idx])
		if seen[key] {
			continue
		}
		seen[key] = true
		got = append(got, pick{nodes[idx].Query.String(), scores[idx]})
		if len(got) == k {
			break
		}
	}
	do("vizql.derive", func() {
		for _, n := range executed {
			vizql.FillDerived(n)
		}
	})
	if v != nil {
		v["rules.queries"] = float64(len(queries))
		v["vizql.nodes"] = float64(len(executed))
		if len(executed) > 0 {
			v["vizql.dedupe_keep_ratio"] = float64(len(nodes)) / float64(len(executed))
		}
	}
	return got, nil
}

func (t *tracedRun) checkPicks(what string, got []pick, want []*deepeye.Visualization) {
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i].query == want[i].Query && got[i].score == want[i].Score
	}
	if !ok {
		var w []pick
		for _, v := range want {
			w = append(w, pick{v.Query, v.Score})
		}
		t.fail("fidelity: the layer chain's %s %v differs from the System's %v", what, got, w)
	}
}

// chainAsk runs the ask pipeline as separate layer calls and returns
// its k best interpretations, blending parse confidence with rank
// position as System.AskCtx does.
func (t *tracedRun) chainAsk(ctx context.Context, tab *dataset.Table, question string, op, parent int, v map[string]float64, k int) ([]pick, error) {
	var (
		res     *nlq.Result
		nodes   []*vizql.Node
		factors []rank.Factors
		order   []int
		scores  []float64
		err     error
	)
	t.tr.do("nlq.parse", op, parent, func() { res, err = nlq.Parse(question, nlq.SchemaFromTable(tab), nlq.Options{}) })
	if err != nil {
		return nil, err
	}
	queries := make([]vizql.Query, len(res.Candidates))
	byKey := map[string]*nlq.Candidate{}
	for i := range res.Candidates {
		queries[i] = res.Candidates[i].Query
		byKey[queries[i].Key()] = &res.Candidates[i]
	}
	t.tr.do("vizql.execute", op, parent, func() { nodes, err = vizql.ExecuteAllParallelCtx(ctx, tab, queries, 1) })
	if err != nil {
		return nil, err
	}
	t.tr.do("rank.factors", op, parent, func() { factors, err = rank.ComputeFactorsWorkersCtx(ctx, nodes, rank.FactorOptions{}, 1) })
	if err != nil {
		return nil, err
	}
	t.tr.do("rank.order", op, parent, func() { order, scores, err = rank.OrderCtx(ctx, nodes, factors, rank.SelectOptions{Workers: 1}) })
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(nodes))
	for p, idx := range order {
		pos[idx] = p
	}
	type scored struct {
		idx     int
		key     string
		blended float64
	}
	var cands []scored
	for i, n := range nodes {
		if c, ok := byKey[n.Query.Key()]; ok {
			cands = append(cands, scored{i, n.Query.Key(), c.Confidence - 0.001*float64(pos[i])})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].blended != cands[b].blended {
			return cands[a].blended > cands[b].blended
		}
		return cands[a].key < cands[b].key
	})
	var got []pick
	for _, c := range cands {
		if len(got) == k {
			break
		}
		got = append(got, pick{nodes[c.idx].Query.String(), scores[c.idx]})
	}
	t.tr.do("vizql.derive", op, parent, func() {
		for _, n := range nodes {
			vizql.FillDerived(n)
		}
	})
	v["nlq.candidates"] = float64(len(res.Candidates))
	v["vizql.nodes"] = float64(len(nodes))
	return got, nil
}

// op replays operation i with every layer call traced. Its spans carry
// the replay's sequence number, which indexes t.values.
func (t *tracedRun) op(ctx context.Context, i int) error {
	r := t.r
	k := r.w.K
	seq := len(t.values)
	v := map[string]float64{}
	t.values = append(t.values, v)
	root := t.tr.begin("op", seq, -1)
	defer t.tr.end(root)
	// system and serve do the same work on two copies of the state; the
	// one that runs second finds the heap and CPU caches the other left,
	// so their order alternates between operations.
	var err error
	pair := func(system func(), serve func()) {
		first, second := system, serve
		if seq%2 == 1 {
			first, second = serve, system
		}
		first()
		second()
	}
	switch r.w.Name {
	case "upload-topk":
		body := r.in.uploads[i]
		var tab *dataset.Table
		t.tr.do("dataset.ingest", seq, root, func() {
			tab, err = dataset.FromCSVLimited("upload", bytes.NewReader(body), nil, dataset.ReadLimits{})
		})
		if err != nil {
			return err
		}
		picks, err := t.chainTopK(ctx, tab, seq, root, v, k)
		if err != nil {
			return err
		}
		fresh, err := deepeye.LoadCSV("upload", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var want []*deepeye.Visualization
		var got []byte
		pair(func() { t.tr.do("system", seq, root, func() { want, err = t.ref.TopKCtx(ctx, fresh, k) }) },
			func() { got = t.serve(seq, root, http.MethodPost, fmt.Sprintf("/topk?k=%d", k), body) })
		if err != nil {
			return err
		}
		t.checkPicks("top-k", picks, want)
		t.checkServed(got, want)
	case "live-append":
		batch := r.in.batches[i]
		var res deepeye.AppendResult
		var got []byte
		pair(func() {
			t.tr.do("registry.append", seq, root, func() {
				res, err = t.ref.AppendCSVLimited("live", bytes.NewReader(batch), false, deepeye.IngestLimits{})
			})
		}, func() { got = t.serve(seq, root, http.MethodPost, "/datasets/live/rows", batch) })
		if err != nil {
			return err
		}
		var app server.AppendJSON
		if err := json.Unmarshal(got, &app); err != nil || app.Fingerprint != res.Fingerprint || app.Epoch != res.Epoch {
			t.fail("op %d: in-process append answered %s, System %s/%d", i, got, res.Fingerprint, res.Epoch)
		}
		if _, err := t.chain.AppendCSVLimited("live", bytes.NewReader(batch), false, deepeye.IngestLimits{}); err != nil {
			return err
		}
		var snap *dataset.Table
		t.tr.do("registry.snapshot", seq, root, func() { snap, _ = t.chain.DatasetSnapshot("live") })
		picks, err := t.chainTopK(ctx, snap, seq, root, v, k)
		if err != nil {
			return err
		}
		var want []*deepeye.Visualization
		pair(func() { t.tr.do("system", seq, root, func() { want, _, err = t.ref.TopKByName(ctx, "live", k) }) },
			func() { got = t.serve(seq, root, http.MethodGet, fmt.Sprintf("/datasets/live/topk?k=%d", k), nil) })
		if err != nil {
			return err
		}
		t.checkPicks("top-k", picks, want)
		t.checkServed(got, want)
	case "ask":
		a := r.in.asks[i]
		name := r.in.datasets[a.dataset].name
		snap, _ := t.chain.DatasetSnapshot(name)
		picks, err := t.chainAsk(ctx, snap, a.question, seq, root, v, k)
		if err != nil {
			return err
		}
		q := askRequest(r.in, a, fmt.Sprint(k))
		var want *deepeye.AskAnswer
		var got []byte
		pair(func() {
			t.tr.do("system", seq, root, func() { want, _, err = t.ref.AskByName(ctx, name, a.question, k) })
		},
			func() { got = t.serve(seq, root, q.method, q.path, q.body) })
		if err != nil {
			return err
		}
		var wantVis []*deepeye.Visualization
		for _, res := range want.Results {
			wantVis = append(wantVis, res.Visualization)
		}
		t.checkPicks("ask answer", picks, wantVis)
		var resp server.NLQResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			t.fail("op %d: in-process answer: %v", i, err)
		} else if err := sameAnswer(resp, want); err != nil {
			t.fail("op %d: in-process answer: %v", i, err)
		}
	}
	return nil
}

func (t *tracedRun) fail(format string, args ...any) {
	t.bad = append(t.bad, fmt.Sprintf(format, args...))
}

func (t *tracedRun) checkServed(got []byte, want []*deepeye.Visualization) {
	var resp server.TopKResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.fail("in-process answer: %v", err)
		return
	}
	if err := sameCharts(resp.Charts, want); err != nil {
		t.fail("in-process answer: %v", err)
	}
}

// layerValues turns the recorded spans into per-operation metric
// values: each span's self time and allocation under its name.
func (t *tracedRun) layerValues() {
	self := selfTimes(t.tr.spans)
	for i, s := range t.tr.spans {
		if s.Name == "op" {
			continue
		}
		v := t.values[s.Op]
		v[s.Name+"_ms"] += ms(self[i])
		v[s.Name+"_alloc_mib"] += float64(s.Alloc) / (1 << 20)
	}
}

// spanCost is the mean cost of recording one empty span, for the
// tracing overhead estimate.
func spanCost(tr *tracer) time.Duration {
	const n = 2000
	probe := &tracer{t0: tr.t0, sample: tr.sample}
	start := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("probe", 0, -1))
	}
	return time.Since(start) / n
}

// perLayerMetrics runs the traced replay over the operations the
// measured phase completed, for at most dur, and returns every
// per-layer metric plus the fidelity failures.
func (r *runner) perLayerMetrics(ctx context.Context, p *phase, p50 time.Duration, dur time.Duration) (map[string]float64, []string, error) {
	t, err := r.newTracedRun(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer t.close()
	deadline := time.Now().Add(dur)
	for _, o := range p.results {
		if !time.Now().Before(deadline) {
			break
		}
		if o.fail != "" {
			continue
		}
		if err := t.op(ctx, o.idx); err != nil {
			return nil, nil, fmt.Errorf("traced op %d: %w", o.idx, err)
		}
	}
	if len(t.values) == 0 {
		return nil, nil, fmt.Errorf("traced run completed no operation")
	}
	if err := t.tr.write(filepath.Join(filepath.Dir(r.work), fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.Name, r.seed))); err != nil {
		return nil, nil, err
	}
	t.layerValues()
	median := func(name string) float64 {
		var vals []float64
		for _, v := range t.values {
			vals = append(vals, v[name])
		}
		return medianFloat(vals)
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = median(m.name)
	}
	// server.self is what serve spends beyond the System, ingest and
	// append calls the handler makes; the System call builds its own
	// snapshot, so registry.snapshot is not taken off. It is a
	// difference of medians: per operation the difference swings with
	// the alternating order.
	for _, unit := range []string{"_ms", "_alloc_mib"} {
		out["server.self"+unit] = median("server.serve"+unit) - median("system"+unit) -
			median("dataset.ingest"+unit) - median("registry.append"+unit)
	}

	// Cache counters and WAL growth come from the server in the
	// untraced phase.
	hits := delta(p, `deepeye_cache_hits_total{cache="result"}`)
	misses := delta(p, `deepeye_cache_misses_total{cache="result"}`)
	if hits+misses > 0 {
		out["cache.hit_ratio"] = hits / (hits + misses)
	}
	out["cache.evictions"] = delta(p, `deepeye_cache_evictions_total{cache="result"}`)
	out["cache.coalesced"] = delta(p, `deepeye_cache_coalesced_total{cache="result"}`)
	if r.w.Name == "live-append" {
		out["wal.bytes_per_row"] = float64(p.walBytes) / float64(len(p.results)*r.w.BatchRows)
	}

	var sum float64
	for _, m := range perLayer {
		if strings.HasSuffix(m.name, "_ms") && m.name != "vizql.derive_ms" {
			sum += out[m.name]
		}
	}
	out["trace.coverage"] = sum / ms(p50)
	// Overhead is what recording the spans adds to one operation, as a
	// share of the untraced p50. The replay's other differences from
	// the served request (one process instead of two, a copy of the
	// state per call) show up in coverage instead.
	spansPerOp := float64(len(t.tr.spans)) / float64(len(t.values))
	out["trace.overhead_pct"] = 100 * spansPerOp * ms(spanCost(t.tr)) / ms(p50)
	fmt.Printf("traced replay: %d operations, %.1f spans each\n", len(t.values), spansPerOp)
	return out, t.bad, nil
}
