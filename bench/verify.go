package main

import (
	"fmt"
	"net/http"

	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

const (
	verifyQueries = 200 // fixed queries of the verify step
	maxNotes      = 5   // mismatches described in the result; all are counted
)

// verdict accumulates the correctness gate's findings. Every check is
// one attempted operation and every mismatch one failed operation in
// the run's totals.
type verdict struct {
	recall        float64
	recallQueries int
	checked       int
	wrong         int
	notes         []string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	v.checked++
	if ok {
		return
	}
	v.wrong++
	if len(v.notes) < maxNotes {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// verifyDocs are the fixed queries: the first prepared hit queries,
// and, where the workload's mix has misses, a tenth of them misses.
func verifyDocs(c *corpus, w workload) [][]byte {
	misses := 0
	if w.mix.miss > 0 {
		misses = verifyQueries / 10
	}
	return append(append([][]byte(nil), c.hitDocs[:verifyQueries-misses]...), c.missDocs[:misses]...)
}

// verify runs the fixed queries through the front door, in the
// workload's mode and in exact mode. recall_at_10 is the mean overlap
// of the two top-10s. The exact answers must equal, hit for hit, what
// the engine computes when asked directly: on a single node a
// core.SearchTopK on the served index, behind a coordinator a
// single-node reference engine holding the same records.
func (l *loadgen) verify(s *stack, c *corpus, w workload) (verdict, error) {
	var v verdict
	docs := verifyDocs(c, w)
	inMode := searchBodies(docs, "verify", w.mode)
	exact := searchBodies(docs, "verify", string(core.ModeExact))

	eng := s.nodes[0].eng
	if s.coord != nil {
		var err error
		if eng, err = l.reference(c); err != nil {
			return v, err
		}
	}
	overlap := 0.0
	for i, doc := range docs {
		var got, want server.SearchResponse
		if err := l.getJSON(http.MethodPost, l.base+"/v1/search", inMode[i], &got); err != nil {
			return v, err
		}
		if err := l.getJSON(http.MethodPost, l.base+"/v1/search", exact[i], &want); err != nil {
			return v, err
		}
		overlap += hitOverlap(got.Results, want.Results)

		direct, err := core.SearchTopK(eng.Index(), eng.Sketcher().Sketch(core.Record{Name: want.Query, Data: doc}),
			searchK, searchMinSim, eng.Pool())
		if err != nil {
			return v, err
		}
		v.check(sameHits(want.Results, direct), "query %d: exact-mode HTTP answer %v differs from the engine's %v", i, want.Results, direct)
		v.check(!got.Partial && !want.Partial, "query %d: partial answer with no fault armed", i)
	}
	v.recall, v.recallQueries = overlap/float64(len(docs)), len(docs)
	return v, nil
}

// hitOverlap is |got ∩ want| / |want|, and 1 when both are empty (a
// miss query answered with nothing is fully recalled).
func hitOverlap(got, want []server.SearchHit) float64 {
	if len(want) == 0 {
		if len(got) == 0 {
			return 1
		}
		return 0
	}
	n := 0
	for _, w := range want {
		for _, g := range got {
			if g.Ref == w.Ref {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(want))
}

func sameHits(hits []server.SearchHit, direct []core.Result) bool {
	if len(hits) != len(direct) {
		return false
	}
	for i, h := range hits {
		if h.Ref != direct[i].Ref || h.Similarity != direct[i].Similarity {
			return false
		}
	}
	return true
}

// writes folds the acknowledgements into the set of names that must be
// live (mapped to their payload) and the set that must be gone.
func (l *loadgen) writes() (live map[string]int, gone map[string]bool) {
	live, gone = make(map[string]int), make(map[string]bool)
	for _, a := range l.acks {
		if a.payload < 0 {
			gone[a.name] = true
		}
	}
	for _, a := range l.acks {
		if a.payload >= 0 && !gone[a.name] {
			live[a.name] = a.payload
		}
	}
	return live, gone
}

// reference builds the single-node engine a coordinator's answers are
// compared with: the preloaded corpus plus every acknowledged ingest
// that was not deleted.
func (l *loadgen) reference(c *corpus) (*core.Engine, error) {
	eng, err := referenceEngine()
	if err != nil {
		return nil, err
	}
	batch := make([]core.Record, 0, loadBatch)
	flush := func() {
		if err == nil {
			_, err = eng.AddBatch(batch)
		}
		batch = batch[:0]
	}
	c.walk(func(name string, data []byte) {
		if batch = append(batch, core.Record{Name: name, Data: data}); len(batch) == loadBatch {
			flush()
		}
	})
	live, _ := l.writes()
	for name, p := range live {
		batch = append(batch, core.Record{Name: name, Data: c.payloads[p]})
	}
	flush()
	return eng, err
}

// verifyDurable reopens every data directory after the stack has been
// closed and checks that each acknowledged record that was not deleted
// is present, each acknowledged delete absent, and nothing else was
// lost or invented. It returns the number of live logical records.
func (l *loadgen) verifyDurable(s *stack, c *corpus, v *verdict) (int, error) {
	indexes, err := s.openIndexes()
	defer func() {
		for _, ix := range indexes {
			ix.Close()
		}
	}()
	if err != nil {
		return 0, err
	}
	copies := func(name string) int {
		n := 0
		for _, ix := range indexes {
			if ix.Has(name) {
				n++
			}
		}
		return n
	}
	want := max(1, s.spec.replication)
	live, gone := l.writes()
	for name := range live {
		n := copies(name)
		v.check(n == want, "acknowledged record %s is on %d of %d replicas after reopen", name, n, want)
	}
	for name := range gone {
		v.check(copies(name) == 0, "deleted record %s is present after reopen", name)
	}
	total := 0
	for _, ix := range indexes {
		total += ix.Len()
	}
	records := c.records + len(live)
	v.check(total == records*want, "%d records on disk after reopen, want %d x %d", total, records, want)
	return records, nil
}

// searchSequence is the first n search operations of the workload's
// schedule, as documents and as request bodies: what the replay ladder
// feeds the layers directly.
func (l *loadgen) searchSequence(w workload, n int) (docs, bodies [][]byte) {
	p := newPlanner(l.corpus, w.mix, w.rate)
	for len(docs) < n {
		switch o := p.plan(); o.kind {
		case opSearchHit:
			docs, bodies = append(docs, l.corpus.hitDocs[o.query]), append(bodies, l.hitBody[o.query])
		case opSearchMiss:
			docs, bodies = append(docs, l.corpus.missDocs[o.query]), append(bodies, l.missBody[o.query])
		}
	}
	return docs, bodies
}
