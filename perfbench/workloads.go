package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/server"
)

// serverOptions are the deepeye.Options cmd/deepeye-server builds from
// its default flags (plus the data directory where a workload sets
// one). In-process reference and traced systems use them so they run
// the server's configuration.
func serverOptions(dataDir string) deepeye.Options {
	return deepeye.Options{
		IncludeOneColumn: true,
		CacheSize:        256 << 20,
		Workers:          1,
		RegistrySize:     256 << 20,
		DatasetTTL:       30 * time.Minute,
		DataDir:          dataDir,
		WALNoSync:        dataDir != "",
	}
}

// opResult is one measured operation.
type opResult struct {
	idx    int
	lat    time.Duration
	fail   string   // why the operation failed; empty when it succeeded
	bodies [][]byte // responses kept for the checks after the run
}

// request is one HTTP call of an operation.
type request struct {
	method, path string
	body         []byte
}

// ops returns how many operations the inputs allow and the requests of
// operation i.
func (r *runner) ops() (int, func(i int) []request) {
	k := fmt.Sprint(r.w.K)
	switch r.w.Name {
	case "upload-topk":
		return len(r.in.uploads), func(i int) []request {
			return []request{{http.MethodPost, "/topk?k=" + k, r.in.uploads[i]}}
		}
	case "live-append":
		return len(r.in.batches), func(i int) []request {
			return []request{
				{http.MethodPost, "/datasets/live/rows", r.in.batches[i]},
				{http.MethodGet, "/datasets/live/topk?k=" + k, nil},
			}
		}
	default: // ask
		return len(r.in.asks), func(i int) []request { return []request{askRequest(r.in, r.in.asks[i], k)} }
	}
}

func askRequest(in *inputs, a askReq, k string) request {
	return request{http.MethodPost, "/datasets/" + in.datasets[a.dataset].name + "/nlq?q=" + url.QueryEscape(a.question) + "&k=" + k, nil}
}

// keepBodies reports whether operation i's responses are kept for the
// checks after the run; ask keeps only its seeded check subset.
func (r *runner) keepBodies(i int) bool {
	return r.w.Name != "ask" || r.askSubset[i]
}

func routeOf(path string) string {
	route, _, _ := strings.Cut(path, "?")
	return route
}

// call sends one request and reads the whole response.
func call(c *http.Client, base string, q request) (int, []byte, error) {
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequest(q.method, base+q.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// prepare is the set-up after /healthz: dataset registration, cache
// priming and one warm-up request of the workload's shape.
func (r *runner) prepare(s *serverProc) error {
	k := fmt.Sprint(r.w.K)
	expect := func(q request, want int) ([]byte, error) {
		st, b, err := call(s.client, s.base, q)
		if err != nil {
			return nil, fmt.Errorf("set-up %s %s: %w", q.method, q.path, err)
		}
		if st != want {
			return nil, fmt.Errorf("set-up %s %s: status %d: %s", q.method, q.path, st, b)
		}
		return b, nil
	}
	for _, d := range r.in.datasets {
		b, err := expect(request{http.MethodPost, "/datasets?name=" + d.name, d.body}, http.StatusCreated)
		if err != nil {
			return err
		}
		if d.name == "live" {
			var info server.DatasetJSON
			if err := json.Unmarshal(b, &info); err != nil {
				return fmt.Errorf("set-up register live: %w", err)
			}
			r.liveEpoch, r.liveFP = info.Epoch, info.Fingerprint
		}
	}
	switch r.w.Name {
	case "upload-topk":
		_, err := expect(request{http.MethodPost, "/topk?k=" + k, r.in.warmup}, http.StatusOK)
		return err
	case "live-append":
		_, err := expect(request{http.MethodGet, "/datasets/live/topk?k=" + k, nil}, http.StatusOK)
		return err
	case "ask":
		_, err := expect(askRequest(r.in, r.in.warmAsk, k), http.StatusOK)
		return err
	}
	return nil
}

// inlineCheck is the per-operation check made after the clock stops:
// every status.
func inlineCheck(statuses []int, bodies [][]byte) string {
	for j, st := range statuses {
		if st != http.StatusOK {
			return fmt.Sprintf("request %d: status %d: %.200s", j, st, bodies[j])
		}
	}
	return ""
}

// chooseSubset draws the seeded subset of operations whose answers are
// recomputed in-process after the run.
func chooseSubset(n, size int, seed int64) map[int]bool {
	out := map[int]bool{}
	if size <= 0 || n == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, i := range rng.Perm(n) {
		if len(out) == size {
			break
		}
		out[i] = true
	}
	return out
}

func sameCharts(got []server.ChartJSON, want []*deepeye.Visualization) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d charts, want %d", len(got), len(want))
	}
	for i, v := range want {
		g := got[i]
		if g.Rank != v.Rank || g.Query != v.Query || g.Chart != v.Chart || g.Score != v.Score {
			return fmt.Errorf("chart %d: got %d %q %s %v, want %d %q %s %v",
				i, g.Rank, g.Query, g.Chart, g.Score, v.Rank, v.Query, v.Chart, v.Score)
		}
	}
	return nil
}

// checkAfter verifies the kept responses once the server has stopped:
// answers against an in-process deepeye.System with the server's
// options, and for live-append every epoch and fingerprint against a
// client-side mirror. It returns one line per mismatch.
func (r *runner) checkAfter(ctx context.Context, results []opResult) ([]string, error) {
	byIdx := map[int]opResult{}
	for _, o := range results {
		if o.fail == "" && o.bodies != nil {
			byIdx[o.idx] = o
		}
	}
	idxs := make([]int, 0, len(byIdx))
	for i := range byIdx {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var bad []string
	switch r.w.Name {
	case "upload-topk":
		sys := deepeye.New(serverOptions(""))
		subset := chooseSubset(len(idxs), r.w.CheckSubset, r.seed)
		for n, i := range idxs {
			var resp server.TopKResponse
			if err := json.Unmarshal(byIdx[i].bodies[0], &resp); err != nil {
				bad = append(bad, fmt.Sprintf("op %d: %v", i, err))
				continue
			}
			if resp.Rows != r.w.Rows || len(resp.Charts) != r.w.K {
				bad = append(bad, fmt.Sprintf("op %d: %d rows, %d charts", i, resp.Rows, len(resp.Charts)))
			}
			if !subset[n] {
				continue
			}
			tab, err := deepeye.LoadCSV("upload", bytes.NewReader(r.in.uploads[i]))
			if err != nil {
				return nil, err
			}
			want, err := sys.TopKCtx(ctx, tab, r.w.K)
			if err != nil {
				return nil, err
			}
			if resp.Fingerprint != tab.Fingerprint() {
				bad = append(bad, fmt.Sprintf("op %d: fingerprint %s, want %s", i, resp.Fingerprint, tab.Fingerprint()))
			}
			if err := sameCharts(resp.Charts, want); err != nil {
				bad = append(bad, fmt.Sprintf("op %d: %v", i, err))
			}
		}
	case "live-append":
		return r.checkLive(ctx, idxs, byIdx)
	case "ask":
		sys := deepeye.New(serverOptions(""))
		for _, d := range r.in.datasets {
			if _, err := sys.RegisterCSV(d.name, bytes.NewReader(d.body)); err != nil {
				return nil, err
			}
		}
		for _, i := range idxs {
			a := r.in.asks[i]
			var resp server.NLQResponse
			if err := json.Unmarshal(byIdx[i].bodies[0], &resp); err != nil {
				bad = append(bad, fmt.Sprintf("op %d: %v", i, err))
				continue
			}
			want, _, err := sys.AskByName(ctx, r.in.datasets[a.dataset].name, a.question, r.w.K)
			if err != nil {
				return nil, err
			}
			if err := sameAnswer(resp, want); err != nil {
				bad = append(bad, fmt.Sprintf("op %d %q: %v", i, a.question, err))
			}
		}
	}
	return bad, nil
}

func sameAnswer(got server.NLQResponse, want *deepeye.AskAnswer) error {
	if got.Normalized != want.Normalized || len(got.Charts) != len(want.Results) {
		return fmt.Errorf("normalized %q with %d charts, want %q with %d", got.Normalized, len(got.Charts), want.Normalized, len(want.Results))
	}
	for i, w := range want.Results {
		g := got.Charts[i]
		if g.Rank != w.Rank || g.Query != w.Query || g.Chart != w.Chart || g.Score != w.Score ||
			g.Confidence != w.Confidence || g.Blended != w.Blended {
			return fmt.Errorf("chart %d: got %q %v/%v/%v, want %q %v/%v/%v",
				i, g.Query, g.Score, g.Confidence, g.Blended, w.Query, w.Score, w.Confidence, w.Blended)
		}
	}
	return nil
}

// mirror is the expected content fingerprint of the live dataset: a
// rolling dataset.Hasher fed the same cells the server ingests.
type mirror struct {
	cols   []*dataset.Column
	hasher *dataset.Hasher
	rows   int
}

func newMirror(body []byte) (*mirror, error) {
	tab, err := dataset.FromCSV("live", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	m := &mirror{cols: tab.Columns, hasher: dataset.NewHasher(tab.Columns), rows: tab.NumRows()}
	for i := 0; i < tab.NumRows(); i++ {
		for _, c := range tab.Columns {
			m.hasher.WriteCell(c.RawAt(i), c.IsNull(i))
		}
	}
	return m, nil
}

func (m *mirror) extend(batch []byte) error {
	rows, err := dataset.ReadRows(bytes.NewReader(batch), false, dataset.ReadLimits{})
	if err != nil {
		return err
	}
	for _, row := range rows {
		for j, c := range m.cols {
			m.hasher.WriteCell(row[j], c.CellIsNull(row[j]))
		}
		m.rows++
	}
	return nil
}

// checkLive walks the appends in order: each must advance the epoch by
// one and carry the mirror's fingerprint, and the top-k read after it
// must be served at that epoch. The first and last answers are also
// recomputed in-process.
func (r *runner) checkLive(ctx context.Context, idxs []int, byIdx map[int]opResult) ([]string, error) {
	var bad []string
	m, err := newMirror(r.in.datasets[0].body)
	if err != nil {
		return nil, err
	}
	if r.liveFP != m.hasher.Sum() {
		bad = append(bad, fmt.Sprintf("register: fingerprint %s, mirror %s", r.liveFP, m.hasher.Sum()))
	}
	sys := deepeye.New(serverOptions(""))
	if _, err := sys.RegisterCSV("live", bytes.NewReader(r.in.datasets[0].body)); err != nil {
		return nil, err
	}
	epoch := r.liveEpoch
	for n, i := range idxs {
		if i != n {
			return append(bad, fmt.Sprintf("op %d missing: appends after it cannot be checked", n)), nil
		}
		if err := m.extend(r.in.batches[i]); err != nil {
			return nil, err
		}
		if _, err := sys.AppendCSV("live", bytes.NewReader(r.in.batches[i]), false); err != nil {
			return nil, err
		}
		epoch++
		var app server.AppendJSON
		var top server.TopKResponse
		if err := json.Unmarshal(byIdx[i].bodies[0], &app); err != nil {
			return append(bad, fmt.Sprintf("op %d append: %v", i, err)), nil
		}
		if err := json.Unmarshal(byIdx[i].bodies[1], &top); err != nil {
			return append(bad, fmt.Sprintf("op %d topk: %v", i, err)), nil
		}
		fp := m.hasher.Sum()
		if app.Appended != r.w.BatchRows || app.Rows != m.rows || app.Epoch != epoch || app.Fingerprint != fp {
			bad = append(bad, fmt.Sprintf("op %d append: %d rows appended, %d rows, epoch %d, fingerprint %s; mirror expects %d, %d, %d, %s",
				i, app.Appended, app.Rows, app.Epoch, app.Fingerprint, r.w.BatchRows, m.rows, epoch, fp))
		}
		if top.Epoch != app.Epoch || top.Fingerprint != fp || top.Rows != m.rows {
			bad = append(bad, fmt.Sprintf("op %d topk: epoch %d, fingerprint %s, %d rows; append returned epoch %d, mirror %s, %d rows",
				i, top.Epoch, top.Fingerprint, top.Rows, app.Epoch, fp, m.rows))
		}
		if n == 0 || n == len(idxs)-1 {
			want, _, err := sys.TopKByName(ctx, "live", r.w.K)
			if err != nil {
				return nil, err
			}
			if err := sameCharts(top.Charts, want); err != nil {
				bad = append(bad, fmt.Sprintf("op %d topk: %v", i, err))
			}
		}
	}
	return bad, nil
}
