package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/nlq"
	"github.com/deepeye/deepeye/internal/vizql"
)

// mixSeed derives the data-generator seed of input j from the run
// seed (splitmix64 over seed*1000003 + j), so inputs of one run never
// share a generator stream and runs with different seeds never share
// inputs.
func mixSeed(seed int64, j int) int64 {
	z := uint64(seed)*1000003 + uint64(j) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & (1<<63 - 1))
}

// Offsets keep the generator streams of different input kinds apart.
const (
	warmupOffset = 1 << 30
	batchOffset  = 1 << 31
)

// namedCSV is a dataset registered during set-up.
type namedCSV struct {
	name string
	body []byte
}

// askReq is one natural-language question about one dataset.
type askReq struct {
	dataset  int
	question string
}

// inputs is everything one run sends, generated before any clock
// starts. Each workload fills only its own fields.
type inputs struct {
	uploads  [][]byte   // upload-topk: one fresh CSV per request
	warmup   []byte     // upload-topk: the set-up request's CSV
	datasets []namedCSV // registered during set-up
	batches  [][]byte   // live-append: headerless CSV rows per append
	asks     []askReq   // ask: each (dataset, question) pair once
	warmAsk  askReq     // ask: the set-up request's pair
}

func flightsCSV(rows int, seed int64) ([]byte, error) {
	return specCSV(datagen.Spec{Name: "flights", Tuples: rows, Cols: datagen.FlightCols(), Seed: seed})
}

// ordersCols is the column recipe of datagen.NLQEval, which fixes its
// own seed; the ask workload needs several copies under other seeds.
func ordersCols() []datagen.Col {
	return []datagen.Col{
		{Name: "region", Kind: datagen.KindCategory, Labels: []string{"East", "West", "North", "South", "Central", "Overseas"}},
		{Name: "product", Kind: datagen.KindCategory, K: 8},
		{Name: "date", Kind: datagen.KindTime, SpanDur: 3 * 365 * 24 * time.Hour},
		{Name: "sales", Kind: datagen.KindHeavyTail, Lo: 10, Hi: 5000},
		{Name: "profit", Kind: datagen.KindDerived, Base: "sales", Fn: datagen.FnLinear, Scale: 0.2, Noise: 40},
		{Name: "units", Kind: datagen.KindNormal, Mu: 24, Sigma: 8, Round: true},
	}
}

func specCSV(spec datagen.Spec) ([]byte, error) {
	tab, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// generate builds a run's inputs from its seed.
func generate(w workloadConfig, seed int64) (*inputs, error) {
	in := &inputs{}
	var err error
	switch w.Name {
	case "upload-topk":
		in.uploads = make([][]byte, w.Pool)
		for i := range in.uploads {
			if in.uploads[i], err = flightsCSV(w.Rows, mixSeed(seed, i)); err != nil {
				return nil, err
			}
		}
		in.warmup, err = flightsCSV(w.Rows, mixSeed(seed, warmupOffset))
	case "live-append":
		body, err := flightsCSV(w.Rows, mixSeed(seed, 0))
		if err != nil {
			return nil, err
		}
		in.datasets = []namedCSV{{"live", body}}
		in.batches, err = appendBatches(w, mixSeed(seed, batchOffset))
		if err != nil {
			return nil, err
		}
	case "ask":
		err = generateAsks(in, w, seed)
	default:
		err = fmt.Errorf("no generator for workload %q", w.Name)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// appendBatches cuts one generated FlyDelay table into headerless CSV
// batches, so every appended cell parses under the registered types.
func appendBatches(w workloadConfig, seed int64) ([][]byte, error) {
	tab, err := datagen.Generate(datagen.Spec{Name: "flights", Tuples: w.Pool * w.BatchRows, Cols: datagen.FlightCols(), Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([][]byte, w.Pool)
	rec := make([]string, tab.NumCols())
	for b := range out {
		var buf bytes.Buffer
		cw := csv.NewWriter(&buf)
		for r := b * w.BatchRows; r < (b+1)*w.BatchRows; r++ {
			for j, c := range tab.Columns {
				rec[j] = c.RawAt(r)
			}
			if err := cw.Write(rec); err != nil {
				return nil, err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return nil, err
		}
		out[b] = buf.Bytes()
	}
	return out, nil
}

// generateAsks builds w.Datasets copies of the orders schema and draws
// questions for each from nlq.GenerateCorpus, keeping one per
// nlq.Normalize form and only those the server can answer. The pairs are shuffled
// so the datasets interleave; the first is kept back for set-up.
func generateAsks(in *inputs, w workloadConfig, seed int64) error {
	perDataset := w.Pool/w.Datasets + 1
	for j := 0; j < w.Datasets; j++ {
		name := fmt.Sprintf("orders%d", j)
		body, err := specCSV(datagen.Spec{Name: name, Tuples: w.Rows, Cols: ordersCols(), Seed: mixSeed(seed, j)})
		if err != nil {
			return err
		}
		in.datasets = append(in.datasets, namedCSV{name, body})
		tab, err := dataset.FromCSV(name, bytes.NewReader(body))
		if err != nil {
			return err
		}
		sc := nlq.SchemaFromTable(tab)
		seen := map[string]bool{}
		var questions []string
		for _, e := range nlq.GenerateCorpus(sc, 3*perDataset, mixSeed(seed, j)) {
			norm := nlq.Normalize(e.Text)
			if seen[norm] {
				continue
			}
			seen[norm] = true
			questions = append(questions, e.Text)
			if len(questions) == perDataset {
				break
			}
		}
		for _, q := range answerable(tab, sc, questions) {
			in.asks = append(in.asks, askReq{j, q})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(in.asks), func(a, b int) { in.asks[a], in.asks[b] = in.asks[b], in.asks[a] })
	if len(in.asks) < 2 {
		return fmt.Errorf("ask: only %d questions generated", len(in.asks))
	}
	in.warmAsk, in.asks = in.asks[0], in.asks[1:]
	return nil
}

// answerable keeps the questions with at least one executable
// interpretation. A filter that no row passes ("units above 1250")
// leaves none, and the server answers those with 422. Two workers
// share the check; it runs before any clock starts.
func answerable(tab *dataset.Table, sc nlq.Schema, questions []string) []string {
	ok := make([]bool, len(questions))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(questions); i += 2 {
				r, err := nlq.Parse(questions[i], sc, nlq.Options{})
				if err != nil || len(r.Candidates) == 0 {
					continue
				}
				queries := make([]vizql.Query, len(r.Candidates))
				for c := range r.Candidates {
					queries[c] = r.Candidates[c].Query
				}
				nodes, err := vizql.ExecuteAllCtx(context.Background(), tab, queries)
				ok[i] = err == nil && len(nodes) > 0
			}
		}(w)
	}
	wg.Wait()
	var out []string
	for i, q := range questions {
		if ok[i] {
			out = append(out, q)
		}
	}
	return out
}
