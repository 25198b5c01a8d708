package cluster

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"sketchengine/internal/server"
)

// TestHintExpiry: hints past their TTL are dropped, counted, and not
// replayed — the sweep is the backstop for that window.
func TestHintExpiry(t *testing.T) {
	x := replay(t, history{r: 3, hintTTL: time.Nanosecond, ops: []op{{opCrash, nil, 0}, {opIngest, seq(2), 0}}})
	time.Sleep(time.Millisecond) // let the nanosecond TTL lapse
	x.must(op{opRestart, nil, 0})
	if got := x.tc.coord.hints.expired.Load(); got != 2 || x.tc.backends[0].index().Len() != 0 {
		t.Fatalf("expired hints = %d, victim holds %d; want 2 expired, none replayed", got, x.tc.backends[0].index().Len())
	}
}

// TestReadRepair: reads that expose replica disagreement converge it.
// Record 3's first replica, the one a GET asks first, loses its copy out
// of band: a GET that 404s there and hits on the other replica, or a
// search hit a responding replica failed to return, queues the record
// for repair, and the worker copies it back. A search sees the
// disagreement only when its covering set holds both replicas, which
// the rotation guarantees within one round of the fleet; k beyond the
// corpus makes the missing hit provable.
func TestReadRepair(t *testing.T) {
	for name, read := range map[string]func(x *executor){
		"get": func(x *executor) { x.must(op{opGet, []int{3}, 0}) },
		// Not the executor's search: the lost copy breaks the cover's
		// assumption that acked copies stay put, which its check holds to.
		"search": func(x *executor) {
			for range x.tc.backends {
				if resp, out := postJSON(t, x.tc.ts.URL+"/v1/search", historyQuery); resp.StatusCode != http.StatusOK {
					t.Fatalf("search = %d, body %s", resp.StatusCode, out)
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			x := replay(t, history{r: 2, sets: [][]int{3: {0, 1}}, ops: []op{{opIngest, seq(8), 0}}})
			lagging := x.tc.backends[0]
			deleteBody(t, lagging.url()+"/v1/records/"+x.name(3))
			read(x)
			if x.catchUp(true); !lagging.index().Has(x.name(3)) {
				t.Fatal("the read did not repair the lagging replica")
			}
		})
	}
}

// TestRepairSweepConverges: the admin sweep walks the whole corpus,
// restores under-replicated records, and removes strays — but only
// after the replica set is verifiably complete. Records 2 and 7 lose
// their first replica's copy out of band; record 5 gets a stray copy on
// backend 2, outside its set, as an aborted rebalance would leave.
func TestRepairSweepConverges(t *testing.T) {
	x := replay(t, history{r: 2, sets: [][]int{2: {0, 1}, 5: {0, 1}, 7: {1, 2}}, ops: []op{{opIngest, seq(12), 0}}})
	for _, i := range []int{2, 7} {
		deleteBody(t, x.tc.backends[x.h.sets[i][0]].url()+"/v1/records/"+x.name(i))
	}
	sk := x.tc.backends[0].index().Get(x.name(5))
	if resp, out := postJSON(t, x.tc.backends[2].url()+"/v1/admin/replicate", server.ReplicateRequest{
		Records: []server.ReplicaRecord{{Name: sk.Name, Shingles: sk.Shingles, Signature: sk.Signature}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("planting the stray = %d, body %s", resp.StatusCode, out)
	}
	// The second sweep finds nothing to do: the fleet converged.
	for _, want := range []string{`{"backends":3,"records":12,"repaired":2,"removed_strays":1,"failures":0}`,
		`{"backends":3,"records":12,"repaired":0,"removed_strays":0,"failures":0}`} {
		if _, out := postJSON(t, x.tc.ts.URL+"/v1/admin/repair", struct{}{}); strings.TrimSpace(string(out)) != want {
			t.Fatalf("sweep = %s, want %s", out, want)
		}
		if err := x.census(true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeleteQuorumFailureEnvelope: a delete that cannot reach its
// quorum itemizes the record in a quorum_failed envelope, exactly like a
// failed ingest, and leaves it in doubt.
func TestDeleteQuorumFailureEnvelope(t *testing.T) {
	x := replay(t, history{r: 2, sets: [][]int{{0, 1}}, ops: []op{{opIngest, []int{0}, 0}, {opCrash, nil, 0}, {opDelete, []int{0}, 0}}})
	if recs := x.last.Error.Records; x.last.Error.Code != CodeQuorumFailed || len(recs) != 1 || recs[0].Name != x.name(0) || x.fact(0).state != unknown {
		t.Fatalf("delete with a dead replica: envelope %+v, state %d; want the record itemized, in doubt", x.last, x.fact(0).state)
	}
}

// TestProbeBackoff: a backend that stays down is reprobed on an
// exponentially growing interval, capped at ten times the base;
// recovery resets it.
func TestProbeBackoff(t *testing.T) {
	coord, err := New(Config{
		Backends:       []string{"h1:1", "h2:1", "h3:1"},
		Replication:    2,
		HealthInterval: 50 * time.Millisecond,
		HintInterval:   -1,
		DownAfter:      3,
		UpAfter:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	b := coord.backendList()[0]

	steps := []time.Duration{0, 0, 50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 400 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond}
	for i, want := range steps {
		coord.observeBreaker(b, false)
		if got := time.Duration(b.probeInterval.Load()); got != want {
			t.Fatalf("after %d failures probe interval = %s, want %s", i+1, got, want)
		}
	}
	if b.up() {
		t.Fatal("backend must be down by now")
	}
	if b.nextProbe.Load() == 0 {
		t.Fatal("a down backend must have a reprobe deadline")
	}
	// The jittered deadline stays within +-20% of the nominal interval.
	until := time.Until(time.Unix(0, b.nextProbe.Load()))
	if until > 500*time.Millisecond*12/10 {
		t.Fatalf("reprobe deadline %s exceeds interval + 20%% jitter", until)
	}
	// Stats surface the backed-off cadence.
	found := false
	for _, bs := range coord.backendStats() {
		if bs.Addr == b.addr {
			found = true
			if bs.ProbeIntervalSeconds != 0.5 {
				t.Errorf("stats probe_interval_seconds = %v, want 0.5", bs.ProbeIntervalSeconds)
			}
		}
	}
	if !found {
		t.Fatal("backend missing from stats")
	}

	coord.observeBreaker(b, true)
	coord.observeBreaker(b, true)
	if !b.up() {
		t.Fatal("two successes must mark the backend up")
	}
	if got := time.Duration(b.probeInterval.Load()); got != 50*time.Millisecond {
		t.Fatalf("recovery must reset the probe interval, got %s", got)
	}
	if b.nextProbe.Load() != 0 {
		t.Fatal("recovery must clear the reprobe deadline")
	}
	// The up transition kicked the hint drainer.
	select {
	case <-coord.hintKick:
	default:
		t.Fatal("down->up transition must kick the hint drainer")
	}
}

// TestEnumerateCursorGoneCostsNoRetry: a stale cursor restarts a
// backend's walk once; a second cursor_gone is returned, not retried —
// asking again for the same stale cursor cannot succeed, so it must not
// spend a retry token.
func TestEnumerateCursorGoneCostsNoRetry(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	gone := func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/v1/records" {
			server.WriteError(w, http.StatusGone, server.CodeCursorGone, "cursor names a deleted record")
		}
		return r.URL.Path == "/v1/records"
	}
	tc.intercept.Store(&gone)
	err := tc.coord.enumerateBackend(context.Background(), tc.coord.backendList()[0], func(server.ReplicaRecord) {})
	var berr *BackendError
	if !errors.As(err, &berr) || berr.Code != server.CodeCursorGone {
		t.Fatalf("enumerate over a backend that keeps answering 410: %v, want cursor_gone", err)
	}
	if spent := tc.coord.budget.spent.Load(); spent != 0 {
		t.Fatalf("retry budget spent = %d, want 0", spent)
	}
}
