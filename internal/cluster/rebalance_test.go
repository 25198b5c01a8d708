package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"

	"sketchengine/internal/server"
)

// TestJoinExpandsRing: a join streams affected records to the new
// backend before the ring swap, cleans the displaced copies after it,
// and leaves every record on exactly its new replica set — with search
// results byte-identical across the change and still complete when one
// backend then dies.
func TestJoinExpandsRing(t *testing.T) {
	x := replay(t, history{r: 2, ops: []op{{opIngest, seq(20), 0}}})
	tc, want, joiner := x.tc, x.search(), x.tc.spare()
	tc.backends = append(tc.backends, joiner)
	resp, out := postJSON(t, tc.ts.URL+"/v1/admin/join", JoinRequest{Backend: joiner.addr})
	var rb RebalanceResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &rb) != nil || rb.Action != "join" || len(rb.Backends) != 4 ||
		!slices.Contains(rb.Backends, joiner.addr) || rb.Examined != 20 || rb.Moved == 0 || rb.Copied < rb.Moved {
		t.Fatalf("join = %d, body %s; want the joiner committed, all 20 records examined, some moved", resp.StatusCode, out)
	}
	// Every record on exactly its new-ring replicas: the post-commit
	// cleanup removed the displaced copies.
	if err := x.census(true); err != nil {
		t.Fatal(err)
	}
	if got := x.search(); !bytes.Equal(got, want) {
		t.Fatalf("search after join:\n got:  %s\n want: %s", got, want)
	}
	// Kill one of the four: replication 2 still covers every record.
	tc.backends[1].stop()
	if got := x.search(); !bytes.Equal(got, want) {
		t.Fatalf("search after join+kill, which must not be partial:\n got:  %s\n want: %s", got, want)
	}
	// Joining a member again is a client error, not a ring change.
	if resp, out = postJSON(t, tc.ts.URL+"/v1/admin/join", JoinRequest{Backend: joiner.addr}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate join = %d, want 400; body %s", resp.StatusCode, out)
	}
}

// TestJoinRejectsUnreachableBackend: the admission probe keeps a dead
// address out of the ring entirely.
func TestJoinRejectsUnreachableBackend(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	resp, out := postJSON(t, tc.ts.URL+"/v1/admin/join", JoinRequest{Backend: "127.0.0.1:1"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("join of an unreachable backend = %d, want 502; body %s", resp.StatusCode, out)
	}
	if len(tc.coord.Ring().Backends()) != 3 {
		t.Fatal("failed join must leave the ring unchanged")
	}
}

// TestDrainShrinksRing: a drain streams the leaving backend's records
// to their new homes before the swap; rendezvous removal means the
// survivors then hold exactly the new placement — no cleanup pass.
func TestDrainShrinksRing(t *testing.T) {
	x := replay(t, history{r: 2, ops: []op{{opJoin, nil, 3}, {opIngest, seq(20), 0}}})
	tc, want, victim := x.tc, x.search(), x.tc.backends[3]
	resp, out := postJSON(t, tc.ts.URL+"/v1/admin/drain", DrainRequest{Backend: victim.addr})
	var rb RebalanceResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &rb) != nil || rb.Action != "drain" || len(rb.Backends) != 3 ||
		slices.Contains(tc.coord.Ring().Backends(), victim.addr) {
		t.Fatalf("drain = %d, body %s; want action=drain committing the 3 others", resp.StatusCode, out)
	}
	// The survivors hold exactly the new replica sets, and answer the same.
	if err := x.census(true); err != nil {
		t.Fatal(err)
	}
	if got := x.search(); !bytes.Equal(got, want) {
		t.Fatalf("search after drain:\n got:  %s\n want: %s", got, want)
	}
	// Draining to the replication floor is fine; below it, or a stranger,
	// is refused up front.
	for addr, status := range map[string]int{tc.backends[0].addr: http.StatusOK, "127.0.0.1:1": http.StatusBadRequest} {
		if resp, out := postJSON(t, tc.ts.URL+"/v1/admin/drain", DrainRequest{Backend: addr}); resp.StatusCode != status {
			t.Fatalf("drain %s = %d, want %d; body %s", addr, resp.StatusCode, status, out)
		}
	}
	if resp, out := postJSON(t, tc.ts.URL+"/v1/admin/drain", DrainRequest{Backend: tc.backends[1].addr}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("drain below replication = %d, want 400; body %s", resp.StatusCode, out)
	}
}

// TestDrainFailsCleanThenRetries: a drain that cannot place records on
// a flapping destination aborts with the ring unchanged; once the
// destination is back, the same request succeeds (the stream is
// idempotent). Draining backend 1 leaves 2 members at replication 2, so
// record 0, on 1 and 2, must stream to the flapping backend 0.
func TestDrainFailsCleanThenRetries(t *testing.T) {
	x := replay(t, history{r: 2, sets: [][]int{{1, 2}}, ops: []op{{opIngest, seq(20), 0}, {opCrash, nil, 0}}})
	tc, leaving := x.tc, x.tc.backends[1].addr
	resp, out := postJSON(t, tc.ts.URL+"/v1/admin/drain", DrainRequest{Backend: leaving})
	var env errEnvelope
	if resp.StatusCode != http.StatusBadGateway || json.Unmarshal(out, &env) != nil || env.Error.Code != CodeRebalanceFailed {
		t.Fatalf("drain with a dead destination = %d, body %s; want 502 %s", resp.StatusCode, out, CodeRebalanceFailed)
	}
	if ring, next := tc.coord.rings(); len(ring.Backends()) != 3 || next != nil {
		t.Fatalf("failed drain left ring %v, target %v; want the old ring and no target", ring.Backends(), next)
	}
	x.must(op{opRestart, nil, 0})
	if resp, out = postJSON(t, tc.ts.URL+"/v1/admin/drain", DrainRequest{Backend: leaving}); resp.StatusCode != http.StatusOK ||
		len(tc.coord.Ring().Backends()) != 2 || slices.Contains(tc.coord.Ring().Backends(), leaving) {
		t.Fatalf("retried drain = %d, body %s; want the two survivors committed", resp.StatusCode, out)
	}
	// Both survivors hold everything: replication 2 over 2 backends.
	if err := x.census(true); err != nil {
		t.Fatal(err)
	}
}

// TestJoinFailsCleanThenRetries: a join whose stream cannot place
// copies on the joiner rolls back through the path a failed drain
// takes: the old ring, no target, the joiner out of the fleet and no
// hints left for it, though a write mid-stream queued one. Once the
// joiner accepts copies, the same request commits.
func TestJoinFailsCleanThenRetries(t *testing.T) {
	x := replay(t, history{r: 2, ops: []op{{opIngest, seq(20), 0}}})
	tc, old, joiner := x.tc, x.tc.coord.Ring(), x.tc.spare()
	tc.backends = append(tc.backends, joiner)
	target, err := NewRing(append(slices.Clone(old.Backends()), joiner.addr), 2)
	if err != nil {
		t.Fatal(err)
	}
	mid := ""
	for i := 0; mid == ""; i++ {
		if n := fmt.Sprintf("mid-join-%d", i); slices.Contains(target.Replicas(n), joiner.addr) {
			mid = n
		}
	}
	midWrite := server.IngestRequest{Records: []server.IngestRecord{{Name: mid, Data: payload(20, 0)}}}
	var midStatus atomic.Int64 // written on the joiner's handler goroutine
	// The joiner answers its probe but refuses everything else; its first
	// refused copy waits for a write that targets it mid-stream.
	refuse := func(w http.ResponseWriter, r *http.Request) bool {
		if r.Host != joiner.addr || r.URL.Path == "/healthz" {
			return false
		}
		if r.URL.Path == "/v1/admin/replicate" && midStatus.Load() == 0 {
			raw, _ := json.Marshal(midWrite)
			if resp, err := http.Post(tc.ts.URL+"/v1/records", "application/json", bytes.NewReader(raw)); err == nil {
				midStatus.Store(int64(resp.StatusCode))
				resp.Body.Close()
			}
		}
		server.WriteError(w, http.StatusInternalServerError, server.CodeInternal, "refused")
		return true
	}
	tc.intercept.Store(&refuse)
	resp, out := postJSON(t, tc.ts.URL+"/v1/admin/join", JoinRequest{Backend: joiner.addr})
	var env errEnvelope
	if resp.StatusCode != http.StatusBadGateway || json.Unmarshal(out, &env) != nil || env.Error.Code != CodeRebalanceFailed {
		t.Fatalf("join with a refusing joiner = %d, body %s; want 502 %s", resp.StatusCode, out, CodeRebalanceFailed)
	}
	if s := midStatus.Load(); s != http.StatusOK {
		t.Fatalf("mid-stream write = %d; want 200 from the old replicas", s)
	}
	x.model[mid] = &fact{live, payload(20, 0)}
	if ring, next := tc.coord.rings(); ring != old || next != nil {
		t.Fatalf("failed join left ring %v, target %v; want the old ring and no target", ring.Backends(), next)
	}
	var st StatsResponse
	_, raw := getBody(t, tc.ts.URL+"/stats")
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if tc.coord.lookup(joiner.addr) != nil || len(tc.coord.backendList()) != 3 || len(st.Backends) != 3 {
		t.Fatalf("failed join left the joiner in the fleet: /stats %s", raw)
	}
	if n := tc.coord.hints.depthFor(joiner.addr); n != 0 || st.Hints.Dropped != 1 {
		t.Fatalf("%d hints still queued for the rolled-back joiner, %d dropped; want its one hint dropped", n, st.Hints.Dropped)
	}

	tc.intercept.Store(nil)
	var rb RebalanceResponse
	if resp, out = postJSON(t, tc.ts.URL+"/v1/admin/join", JoinRequest{Backend: joiner.addr}); resp.StatusCode != http.StatusOK ||
		json.Unmarshal(out, &rb) != nil || len(rb.Backends) != 4 {
		t.Fatalf("retried join = %d, body %s; want the joiner committed", resp.StatusCode, out)
	}
	if err := x.census(true); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceBusy: join/drain serialize; a concurrent attempt gets
// an immediate 409, not a queued surprise.
func TestRebalanceBusy(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	tc.coord.rebalanceMu.Lock()
	defer tc.coord.rebalanceMu.Unlock()
	resp, out := postJSON(t, tc.ts.URL+"/v1/admin/drain", DrainRequest{Backend: tc.backends[0].addr})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("drain during a rebalance = %d, want 409; body %s", resp.StatusCode, out)
	}
	var env errEnvelope
	if err := json.Unmarshal(out, &env); err != nil || env.Error.Code != CodeRebalanceBusy {
		t.Fatalf("want %s envelope, got %s", CodeRebalanceBusy, out)
	}
}
