package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

// restartableBackend is a single-node backend whose HTTP listener can
// be killed and rebound to the same address, which httptest servers
// cannot do. The engine survives the restart, modeling a node that
// comes back with its pre-crash state — without the writes it missed.
type restartableBackend struct {
	srv  *server.Server
	addr string
	hs   *http.Server
}

func newRestartableBackend(t *testing.T) *restartableBackend {
	t.Helper()
	eng, err := core.NewEngine(core.Options{K: 4, SignatureSize: 64, IndexName: "clustertest", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rb := &restartableBackend{srv: srv, addr: lis.Addr().String()}
	rb.serve(lis)
	t.Cleanup(func() {
		rb.stop()
		_ = srv.Close()
	})
	return rb
}

func (rb *restartableBackend) serve(lis net.Listener) {
	hs := &http.Server{Handler: rb.srv.Handler()}
	rb.hs = hs
	go func() { _ = hs.Serve(lis) }()
}

func (rb *restartableBackend) stop() {
	if rb.hs != nil {
		_ = rb.hs.Close()
		rb.hs = nil
	}
}

func (rb *restartableBackend) restart(t *testing.T) {
	t.Helper()
	var lis net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if lis, err = net.Listen("tcp", rb.addr); err == nil {
			rb.serve(lis)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rebind %s: %v", rb.addr, err)
}

// selfHealCluster is n restartable backends behind a coordinator with
// hand-driven health probes and hint drains.
type selfHealCluster struct {
	coord    *Coordinator
	backends []*restartableBackend
	ts       *httptest.Server
}

func newSelfHealCluster(t *testing.T, n, replication int, cfg Config) *selfHealCluster {
	t.Helper()
	sc := &selfHealCluster{}
	for i := 0; i < n; i++ {
		b := newRestartableBackend(t)
		sc.backends = append(sc.backends, b)
		cfg.Backends = append(cfg.Backends, b.addr)
	}
	cfg.Replication = replication
	cfg.HealthInterval = -1
	cfg.HintInterval = -1
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc.coord = coord
	sc.ts = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		sc.ts.Close()
		_ = coord.Close()
	})
	return sc
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHintedHandoffRecovery is the headline recovery matrix entry: a
// backend dies, writes keep flowing (quorum 2/3 holds at replication
// 3), the dead replica's misses are hinted, and once the backend is
// back a drain pass makes every acked record readable from it directly
// — no manual repair.
func TestHintedHandoffRecovery(t *testing.T) {
	sc := newSelfHealCluster(t, 3, 3, Config{HintsDir: t.TempDir()})
	victim := sc.backends[0]
	victim.stop()

	resp, out := postJSON(t, sc.ts.URL+"/v1/records", corpus(6))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest through the outage = %d, want 200 (quorum 2/3 holds); body %s", resp.StatusCode, out)
	}
	// Every record replicates everywhere at replication 3, so the victim
	// missed all six — all six must be hinted.
	if d := sc.coord.hints.depthFor(victim.addr); d != 6 {
		t.Fatalf("hints pending for the dead backend = %d, want 6", d)
	}
	_, stats := getBody(t, sc.ts.URL+"/stats")
	var st StatsResponse
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Hints.Pending != 6 || st.Hints.Queued != 6 {
		t.Errorf("stats hints = %+v, want 6 pending / 6 queued", st.Hints)
	}
	found := false
	for _, bs := range st.Backends {
		if bs.Addr == victim.addr {
			found = true
			if bs.PendingHints != 6 {
				t.Errorf("backend row pending_hints = %d, want 6", bs.PendingHints)
			}
		}
	}
	if !found {
		t.Fatalf("victim %s missing from stats backends", victim.addr)
	}
	_, metrics := getBody(t, sc.ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "sketchengine_cluster_hint_depth 6") {
		t.Errorf("/metrics missing hint_depth gauge; got %s", metrics)
	}

	victim.restart(t)
	sc.coord.drainHints(context.Background())
	if d := sc.coord.hints.depthFor(victim.addr); d != 0 {
		t.Fatalf("hints pending after drain = %d, want 0", d)
	}
	// The recovered backend answers for a record it never saw land.
	resp, out = getBody(t, "http://"+victim.addr+"/v1/records/rec-00.txt")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"name":"rec-00.txt"`) {
		t.Fatalf("direct read from the recovered backend = %d, body %s; want the hinted record", resp.StatusCode, out)
	}
}

// TestHintedHandoffDurable: hints survive a coordinator restart — a
// fresh coordinator over the same hints directory reloads the queue
// and drains it.
func TestHintedHandoffDurable(t *testing.T) {
	dir := t.TempDir()
	sc := newSelfHealCluster(t, 3, 3, Config{HintsDir: dir})
	victim := sc.backends[1]
	victim.stop()
	if resp, out := postJSON(t, sc.ts.URL+"/v1/records", corpus(4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
	if d := sc.coord.hints.depthFor(victim.addr); d != 4 {
		t.Fatalf("hints pending = %d, want 4", d)
	}
	// Coordinator dies; its successor picks the hint files up.
	sc.ts.Close()
	if err := sc.coord.Close(); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, b := range sc.backends {
		addrs = append(addrs, b.addr)
	}
	coord2, err := New(Config{
		Backends: addrs, Replication: 3,
		HealthInterval: -1, HintInterval: -1, HintsDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if d := coord2.hints.depthFor(victim.addr); d != 4 {
		t.Fatalf("reloaded hints = %d, want 4", d)
	}
	victim.restart(t)
	coord2.drainHints(context.Background())
	if d := coord2.hints.depthFor(victim.addr); d != 0 {
		t.Fatalf("hints after drain = %d, want 0", d)
	}
	if resp, out := getBody(t, "http://"+victim.addr+"/v1/records/rec-03.txt"); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered backend read = %d, body %s", resp.StatusCode, out)
	}
}

// TestHintedHandoffDeleteReplay: a delete acked while a replica was
// down must reach that replica as a tombstone hint, or recovery would
// resurrect the record.
func TestHintedHandoffDeleteReplay(t *testing.T) {
	sc := newSelfHealCluster(t, 3, 3, Config{})
	if resp, out := postJSON(t, sc.ts.URL+"/v1/records", corpus(4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
	victim := sc.backends[2]
	victim.stop()

	req, _ := http.NewRequest("DELETE", sc.ts.URL+"/v1/records/rec-01.txt", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete through the outage = %d, want 200 (quorum holds)", dresp.StatusCode)
	}
	if d := sc.coord.hints.depthFor(victim.addr); d != 1 {
		t.Fatalf("tombstone hints pending = %d, want 1", d)
	}
	victim.restart(t)
	// Sanity: the victim still holds the record its peers deleted.
	if !victim.srv.Engine().Index().Has("rec-01.txt") {
		t.Fatal("victim lost the record without replaying the delete; test setup broken")
	}
	sc.coord.drainHints(context.Background())
	if victim.srv.Engine().Index().Has("rec-01.txt") {
		t.Fatal("tombstone hint did not delete the record on the recovered replica")
	}
	if d := sc.coord.hints.depthFor(victim.addr); d != 0 {
		t.Fatalf("hints after drain = %d, want 0", d)
	}
}

// TestHintExpiry: hints past their TTL are dropped, counted, and not
// replayed — the sweep is the backstop for that window.
func TestHintExpiry(t *testing.T) {
	sc := newSelfHealCluster(t, 3, 3, Config{HintTTL: time.Nanosecond})
	victim := sc.backends[0]
	victim.stop()
	if resp, out := postJSON(t, sc.ts.URL+"/v1/records", corpus(2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
	victim.restart(t)
	time.Sleep(time.Millisecond) // let the nanosecond TTL lapse
	sc.coord.drainHints(context.Background())
	if got := sc.coord.hints.expired.Load(); got != 2 {
		t.Fatalf("expired hints = %d, want 2", got)
	}
	if victim.srv.Engine().Index().Len() != 0 {
		t.Fatal("expired hints must not be replayed")
	}
}

// TestReadRepair: reads that expose replica disagreement converge it.
// A GET that 404s on one replica and hits on another, or a search hit
// a responding replica failed to return, both queue the record for
// repair; the background worker copies it back. A search sees the
// disagreement only when its covering set holds both replicas, which
// the rotation guarantees within one round of the fleet — not on the
// first search; past that the anti-entropy sweep is the backstop.
func TestReadRepair(t *testing.T) {
	t.Run("get", func(t *testing.T) {
		tc := newTestCluster(t, 3, 2)
		if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(8)); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
		}
		name := "rec-03.txt"
		// Wound the FIRST replica in ring order so the coordinator's GET
		// sees its 404 before the second replica's hit.
		lagging := tc.backendFor(tc.coord.Ring().Replicas(name)[0])
		req, _ := http.NewRequest("DELETE", lagging.ts.URL+"/v1/records/"+name, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if lagging.srv.Engine().Index().Has(name) {
			t.Fatal("direct delete did not take; test setup broken")
		}

		if resp, out := getBody(t, tc.ts.URL+"/v1/records/"+name); resp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator GET with one lagging replica = %d, body %s; want 200 from the healthy one", resp.StatusCode, out)
		}
		waitFor(t, "read repair to restore the record", func() bool {
			return lagging.srv.Engine().Index().Has(name)
		})
	})

	t.Run("search", func(t *testing.T) {
		tc := newTestCluster(t, 3, 2)
		if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(8)); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
		}
		name := "rec-03.txt"
		lagging := tc.backendFor(tc.coord.Ring().Replicas(name)[0])
		req, _ := http.NewRequest("DELETE", lagging.ts.URL+"/v1/records/"+name, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()

		// k beyond any backend's corpus share: every responding replica
		// returns everything it has, so the missing hit is provable. One
		// round of the rotation asks the lagging replica beside its partner.
		for turn := 0; turn < len(tc.backends); turn++ {
			if resp, out := postJSON(t, tc.ts.URL+"/v1/search", searchBody(16)); resp.StatusCode != http.StatusOK {
				t.Fatalf("search = %d, body %s", resp.StatusCode, out)
			}
		}
		waitFor(t, "search-triggered repair to restore the record", func() bool {
			return lagging.srv.Engine().Index().Has(name)
		})
	})
}

// TestRepairSweepConverges: the admin sweep walks the whole corpus,
// restores under-replicated records, and removes strays — but only
// after the replica set is verifiably complete.
func TestRepairSweepConverges(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const n = 12
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(n)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
	// Under-replicate two records by deleting one copy directly.
	for _, name := range []string{"rec-02.txt", "rec-07.txt"} {
		b := tc.backendFor(tc.coord.Ring().Replicas(name)[0])
		req, _ := http.NewRequest("DELETE", b.ts.URL+"/v1/records/"+name, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
	}
	// Plant a stray: copy a record onto a backend outside its replica
	// set, like an aborted rebalance would.
	strayName := "rec-05.txt"
	replicas := tc.coord.Ring().Replicas(strayName)
	var outsider *testBackend
	for _, b := range tc.backends {
		inSet := false
		for _, addr := range replicas {
			if b.addr() == addr {
				inSet = true
			}
		}
		if !inSet {
			outsider = b
			break
		}
	}
	_, raw := getBody(t, tc.backendFor(replicas[0]).ts.URL+"/v1/records/"+strayName+"?signature=1")
	var rec server.RecordResponse
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if resp, out := postJSON(t, outsider.ts.URL+"/v1/admin/replicate", server.ReplicateRequest{
		Records: []server.ReplicaRecord{{Name: strayName, Shingles: rec.Shingles, Bits: rec.Bits, Signature: rec.Signature}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("planting stray = %d, body %s", resp.StatusCode, out)
	}

	resp, out := postJSON(t, tc.ts.URL+"/v1/admin/repair", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair sweep = %d, body %s", resp.StatusCode, out)
	}
	var sw RepairSweepResponse
	if err := json.Unmarshal(out, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Records != n || sw.Repaired != 2 || sw.RemovedStrays != 1 || sw.Failures != 0 {
		t.Fatalf("sweep = %+v, want %d records, 2 repaired, 1 stray removed, 0 failures", sw, n)
	}

	// Census: every record on exactly its replica set, nowhere else.
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("rec-%02d.txt", i))
	}
	assertCensus(t, tc.coord.Ring(), tc.backends, names)

	// A second sweep finds nothing to do: the fleet converged.
	resp, out = postJSON(t, tc.ts.URL+"/v1/admin/repair", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second sweep = %d, body %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Repaired != 0 || sw.RemovedStrays != 0 || sw.Failures != 0 {
		t.Fatalf("second sweep = %+v, want a no-op", sw)
	}
}

// assertCensus checks the replication invariant record by record:
// present on every ring replica, absent everywhere else.
func assertCensus(t *testing.T, ring *Ring, backends []*testBackend, names []string) {
	t.Helper()
	for _, name := range names {
		want := make(map[string]bool)
		for _, addr := range ring.Replicas(name) {
			want[addr] = true
		}
		for _, b := range backends {
			if has := b.srv.Engine().Index().Has(name); has != want[b.addr()] {
				t.Errorf("census: %s on %s = %v, want %v", name, b.addr(), has, want[b.addr()])
			}
		}
	}
}

// TestDeleteQuorumFailureEnvelope: a delete that cannot reach its
// quorum itemizes the record in the envelope's Records list, exactly
// like a failed ingest — the satellite contract.
func TestDeleteQuorumFailureEnvelope(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(8)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
	name := "rec-04.txt"
	tc.backendFor(tc.coord.Ring().Replicas(name)[0]).ts.Close()

	req, _ := http.NewRequest("DELETE", tc.ts.URL+"/v1/records/"+name, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := readAll(dresp)
	if dresp.StatusCode != http.StatusBadGateway {
		t.Fatalf("delete with a dead replica = %d, want 502; body %s", dresp.StatusCode, out)
	}
	var env errEnvelope
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeQuorumFailed {
		t.Fatalf("envelope code = %q, want %q", env.Error.Code, CodeQuorumFailed)
	}
	if len(env.Error.Records) != 1 || env.Error.Records[0].Name != name || env.Error.Records[0].Code != CodeBackendDown {
		t.Fatalf("envelope must itemize the failed record like ingest does; got %s", out)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
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
