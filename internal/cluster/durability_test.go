package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

// TestQuorumWriteSurvivesCrash: the durability half of the quorum
// contract. Ingest through the coordinator with one backend already
// dead, so some records ack at quorum and others fail; then SIGKILL
// the surviving backends (drop their sockets and file handles without
// any snapshot) and reopen each data directory cold. Every record a
// replica acknowledged — including replicas of records that missed
// quorum overall — must replay out of that replica's WAL.
func TestQuorumWriteSurvivesCrash(t *testing.T) {
	const n = 3
	root := t.TempDir()
	dirs := make([]string, n)
	engines := make([]*core.Engine, n)
	httpSrvs := make([]*httptest.Server, n)
	var addrs []string
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(root, fmt.Sprintf("backend-%d", i))
		eng, err := core.NewEngine(core.Options{
			K: 4, SignatureSize: 64, IndexName: fmt.Sprintf("crash-%d", i), Shards: 4,
			Bits: 8, Tiered: true, DataDir: dirs[i], SegmentRows: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		// SnapshotEvery an hour out: nothing persists except through the
		// WAL appends the ingest path makes before acking.
		srv, err := server.New(eng, server.Config{DataDir: dirs[i], SnapshotEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		engines[i], httpSrvs[i] = eng, ts
		// The "crash" must skip srv's snapshot, so srv.Close is never
		// called: a server that is not serving holds nothing to release.
		addrs = append(addrs, ts.Listener.Addr().String())
	}

	coord, err := New(Config{Backends: addrs, Replication: 2, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	// Kill backend 2 before ingesting: records placed on it cannot
	// reach quorum, records avoiding it can.
	const dead = 2
	httpSrvs[dead].Close()

	body := corpus(16)
	replicasOf := make(map[string][]string)
	for _, rec := range body.Records {
		replicasOf[rec.Name] = coord.Ring().Replicas(rec.Name)
	}

	resp, out := postJSON(t, cts.URL+"/v1/records", body)
	acked := make(map[string]bool)
	switch resp.StatusCode {
	case http.StatusOK:
		for _, rec := range body.Records {
			acked[rec.Name] = true
		}
	case http.StatusBadGateway:
		var env errEnvelope
		if err := json.Unmarshal(out, &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != CodeQuorumFailed {
			t.Fatalf("envelope code = %q, want %q; body %s", env.Error.Code, CodeQuorumFailed, out)
		}
		failed := make(map[string]bool)
		for _, re := range env.Error.Records {
			failed[re.Name] = true
		}
		for _, rec := range body.Records {
			acked[rec.Name] = !failed[rec.Name]
		}
	default:
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
	}

	// SIGKILL the survivors: close listeners and drop index file
	// handles with no snapshot, flush, or orderly shutdown.
	for i := 0; i < n; i++ {
		if i == dead {
			continue
		}
		httpSrvs[i].Close()
		if err := engines[i].Index().Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Cold-reopen each surviving replica and check the WAL replayed
	// everything that backend acknowledged. A backend that returned
	// success acked its whole sub-batch, so even records that missed
	// quorum overall must survive on replicas that said yes.
	for i := 0; i < n; i++ {
		if i == dead {
			continue
		}
		ix, err := core.Open(dirs[i])
		if err != nil {
			t.Fatalf("reopen backend %d after crash: %v", i, err)
		}
		for _, rec := range body.Records {
			mine := false
			for _, addr := range replicasOf[rec.Name] {
				if addr == addrs[i] {
					mine = true
				}
			}
			if mine && !ix.Has(rec.Name) {
				t.Errorf("backend %d (acked its sub-batch) lost record %s across a crash", i, rec.Name)
			}
		}
		ix.Close()
	}

	// Sanity on the split: both acked and failed records must exist or
	// the dead backend wasn't actually exercising quorum.
	var nAcked, nFailed int
	for _, ok := range acked {
		if ok {
			nAcked++
		} else {
			nFailed++
		}
	}
	if nAcked == 0 || nFailed == 0 {
		t.Fatalf("corpus did not split across the dead backend (acked=%d failed=%d)", nAcked, nFailed)
	}
}
