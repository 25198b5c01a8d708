package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"sketchengine/internal/cluster"
	"sketchengine/internal/server"
)

const (
	clients = 2 // closed-loop clients of an untraced run: one per CPU of the reference machine
	// openConns is the open loop's connection pool. With two
	// connections a search arriving behind two writes waited for their
	// fsyncs, and search latency measured the sandbox's disk; with eight
	// at a quarter of saturation an arrival finds one free.
	openConns    = 8
	searchK      = 10
	searchMinSim = 0.3
)

// sample is one executed operation.
type sample struct {
	kind    opKind
	records int           // records an ingest carried
	latency time.Duration // from when it was due (open loop) or sent (closed loop)
	late    time.Duration // open loop: how long after due the dispatcher released it
	failed  bool
}

// ack records a write the system acknowledged, for the durability gate.
type ack struct {
	name    string
	payload int // ingest: index into corpus.payloads; -1 for a delete
}

// phase is the outcome of one slice of load: a whole number of windows
// of one loop.
type phase struct {
	samples   []sample
	scheduled time.Duration // the slice's length as planned
	elapsed   time.Duration // until the last operation sent in it was answered
	cpu       time.Duration // process user+system time over elapsed
	mem       memDelta
	canaries  []*canary // closed loop: one per client
}

type memDelta struct {
	mallocs  uint64
	gcPause  time.Duration
	gcCycles uint32
}

// loadgen drives one front door with the planned operations.
type loadgen struct {
	base     string
	rec      *recorder
	corpus   *corpus
	hitBody  [][]byte // prepared POST /v1/search bodies
	missBody [][]byte

	mu   sync.Mutex // guards plan, held and due
	plan *planner
	held *op // planned for an open slice that ended before it was due; the next operation out
	due  time.Duration

	conns        []*conn
	acks         []ack // merged from the connections after each phase
	refused      int   // 429 responses
	firstFailure string
}

// conn is one client connection: a transport limited to a single
// keep-alive connection, and the buffers its requests reuse.
type conn struct {
	hc   *http.Client
	req  bytes.Buffer
	resp bytes.Buffer
	acks []ack
}

func newLoadgen(base string, c *corpus, w workload, rec *recorder) *loadgen {
	l := &loadgen{base: "http://" + base, rec: rec, corpus: c, plan: newPlanner(c, w.mix, w.rate)}
	l.hitBody = searchBodies(c.hitDocs, "hit", w.mode)
	l.missBody = searchBodies(c.missDocs, "miss", w.mode)
	for i := 0; i < openConns; i++ {
		l.conns = append(l.conns, &conn{hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}}})
	}
	return l
}

// searchBodies renders one POST /v1/search body per query document.
func searchBodies(docs [][]byte, label, mode string) [][]byte {
	out := make([][]byte, len(docs))
	for i, d := range docs {
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"name":"%s-%d","k":%d,"min_similarity":%g`, label, i, searchK, searchMinSim)
		if mode != "" {
			fmt.Fprintf(&b, `,"mode":%q`, mode)
		}
		b.WriteString(`,"data":"`)
		b.Write(d)
		b.WriteString(`"}`)
		out[i] = b.Bytes()
	}
	return out
}

func (l *loadgen) close() {
	for _, c := range l.conns {
		c.hc.CloseIdleConnections()
	}
}

// next hands out the next operation and, for an open loop, its due
// offset from the phase start.
func (l *loadgen) next() (op, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var o op
	if l.held != nil {
		o, l.held = *l.held, nil
	} else {
		o = l.plan.plan()
	}
	l.due += o.gap
	return o, l.due
}

// run drives the system for n windows. In a closed loop (open false)
// nClients clients each send their next operation as soon as the
// previous one is answered. In an open loop a dispatcher releases each
// operation at its due time to a pool of openConns connections,
// whatever the system's speed: arrivals follow the Poisson schedule, a
// request almost never waits for a free connection, and what a stall
// delays piles up behind it and is counted, because an operation's
// latency runs from its due time.
func (l *loadgen) run(open bool, nClients, n int, window time.Duration) phase {
	l.due = 0
	d := time.Duration(n) * window
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	p := phase{scheduled: d}

	// exec sends one operation on c and records it; due is the offset
	// from start its latency counts from.
	exec := func(c *conn, out *[]sample, o op, due, late time.Duration) {
		s := sample{kind: o.kind, records: len(o.payloads), late: late}
		s.failed = !l.do(c, o)
		s.latency = time.Since(start) - due
		*out = append(*out, s)
	}
	if open {
		nClients = openConns
	}
	out := make([][]sample, nClients)
	var wg sync.WaitGroup
	if open {
		// Released operations wait here for a connection; the buffer is
		// more than a second of arrivals, beyond which the dispatcher
		// itself falls behind and reports it as lateness.
		jobs := make(chan job, 4096)
		for i := 0; i < nClients; i++ {
			wg.Add(1)
			go func(c *conn, out *[]sample) {
				defer wg.Done()
				for j := range jobs {
					exec(c, out, j.op, j.due, j.late)
				}
			}(l.conns[i], &out[i])
		}
		for {
			o, due := l.next()
			if due >= d {
				l.held = &o // the dispatcher is the only caller of next in an open slice
				break
			}
			sleepUntil(start, due)
			jobs <- job{o, due, time.Since(start) - due}
		}
		close(jobs)
	} else {
		// Each client stops every canaryEvery for a slice of the
		// machine-speed canary, so that the canary sees the machine the
		// operations around it saw.
		for i := 0; i < nClients; i++ {
			can := &canary{window: i * canaryMemWindows / nClients}
			p.canaries = append(p.canaries, can)
			wg.Add(1)
			go func(c *conn, out *[]sample) {
				defer wg.Done()
				last := start
				for now := time.Now(); now.Sub(start) < d; now = time.Now() {
					if now.Sub(last) >= canaryEvery {
						last = can.slice()
						now = last
					}
					o, _ := l.next()
					exec(c, out, o, now.Sub(start), 0)
				}
			}(l.conns[i], &out[i])
		}
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.mem = memDelta{
		mallocs:  ms1.Mallocs - ms0.Mallocs,
		gcPause:  time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
		gcCycles: ms1.NumGC - ms0.NumGC,
	}
	for i, c := range l.conns {
		if i < nClients {
			p.samples = append(p.samples, out[i]...)
		}
		l.acks = append(l.acks, c.acks...)
		c.acks = c.acks[:0]
	}
	return p
}

// job is an operation the open loop's dispatcher has released.
type job struct {
	op   op
	due  time.Duration // when it was scheduled, from the phase start
	late time.Duration // how long after that it was released
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// do executes one operation and reports whether the system answered it
// correctly: a 2xx status, no "partial" flag, and every ingested record
// added. Anything else, a 429 or 503 included, is a failure.
func (l *loadgen) do(c *conn, o op) bool {
	method, url := http.MethodPost, l.base+"/v1/search"
	var body []byte
	switch o.kind {
	case opSearchHit:
		body = l.hitBody[o.query]
	case opSearchMiss:
		body = l.missBody[o.query]
	case opIngest:
		url = l.base + "/v1/records"
		c.req.Reset()
		for j, p := range o.payloads {
			appendIngestRecord(&c.req, j == 0, o.names[j], l.corpus.payloads[p])
		}
		c.req.WriteString("]}")
		body = c.req.Bytes()
	case opDelete:
		method, url = http.MethodDelete, l.base+"/v1/records/"+o.names[0]
	}
	status, err := l.roundTrip(c, method, url, body, int64(o.index))
	ok := err == nil && status == http.StatusOK
	switch {
	case !ok:
	case !o.kind.isWrite():
		ok = !bytes.Contains(c.resp.Bytes(), []byte(`"partial":true`))
	case o.kind == opIngest:
		var r server.IngestResponse
		ok = json.Unmarshal(c.resp.Bytes(), &r) == nil && r.Added == len(o.names)
		if ok {
			for j, name := range o.names {
				c.acks = append(c.acks, ack{name, o.payloads[j]})
			}
		}
	case o.kind == opDelete:
		c.acks = append(c.acks, ack{o.names[0], -1})
	}
	if !ok {
		l.noteFailure(status, err, c.resp.Bytes(), o)
	}
	return ok
}

// appendIngestRecord appends one record of a POST /v1/records body.
// Names and documents are ASCII letters, digits and '-', which JSON
// strings carry unescaped.
func appendIngestRecord(b *bytes.Buffer, first bool, name string, data []byte) {
	if first {
		b.WriteString(`{"records":[`)
	} else {
		b.WriteByte(',')
	}
	b.WriteString(`{"name":"`)
	b.WriteString(name)
	b.WriteString(`","data":"`)
	b.Write(data)
	b.WriteString(`"}`)
}

func (l *loadgen) noteFailure(status int, err error, body []byte, o op) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if status == http.StatusTooManyRequests {
		l.refused++
	}
	if l.firstFailure == "" {
		l.firstFailure = fmt.Sprintf("op %d kind %d: status %d err %v body %.200s", o.index, o.kind, status, err, body)
	}
}

// roundTrip sends one request on c and reads the whole response into
// c.resp. A traced run records the call as the request's client span.
func (l *loadgen) roundTrip(c *conn, method, url string, body []byte, id int64) (int, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	traced := l.rec.enabled()
	var start time.Time
	if traced {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		start = time.Now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.resp.Reset()
	_, err = io.Copy(&c.resp, resp.Body)
	resp.Body.Close()
	if traced {
		l.rec.add("client", opOf(method, req.URL.Path), id, start, time.Now())
	}
	return resp.StatusCode, err
}

// getJSON fetches a JSON document over HTTP outside the measured
// operations (stats, and the verify step's searches).
func (l *loadgen) getJSON(method, url string, body []byte, out any) error {
	c := l.conns[0]
	status, err := l.roundTrip(c, method, url, body, -1)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, url, status, c.resp.Bytes())
	}
	return json.Unmarshal(c.resp.Bytes(), out)
}

// stats is the /stats view the per-layer metrics are deltas of: the
// coordinator's, when there is one, and every backend's.
type stats struct {
	coord    *cluster.StatsResponse
	backends []server.StatsResponse
}

// readStats fetches /stats over HTTP from the front door and, behind a
// coordinator, from each backend.
func (l *loadgen) readStats(s *stack) (stats, error) {
	var st stats
	if s.coord != nil {
		st.coord = new(cluster.StatsResponse)
		if err := l.getJSON(http.MethodGet, l.base+"/stats", nil, st.coord); err != nil {
			return st, err
		}
	}
	for _, n := range s.nodes {
		var b server.StatsResponse
		if err := l.getJSON(http.MethodGet, "http://"+n.lis.Addr().String()+"/stats", nil, &b); err != nil {
			return st, err
		}
		st.backends = append(st.backends, b)
	}
	return st, nil
}
