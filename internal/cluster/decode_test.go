package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sketchengine/internal/server"
)

// FuzzDecodeRequest drives the one request-body path both node roles
// have — server.Shell.Decode, then the body's own Check — over every
// body type either of them accepts. It must never panic; a refusal is a
// 400 or 413 error envelope; and an accepted request survives a
// round trip: re-encoded, it decodes to the same value and is accepted
// again (so Check's defaults are a fixed point, and what a coordinator
// forwards is what it validated).
func FuzzDecodeRequest(f *testing.F) {
	kinds := []func() any{
		func() any { return new(server.IngestRequest) },
		func() any { return new(server.SearchRequest) },
		func() any { return new(server.ReplicateRequest) },
		func() any { return new(JoinRequest) },
		func() any { return new(DrainRequest) },
	}
	for kind, body := range []string{
		`{"records":[{"name":"a","data":"x"}],"detailed":true}`,
		`{"name":"q","data":"text","k":0,"min_similarity":0.5,"mode":"exact"}`,
		`{"records":[{"name":"a","shingles":3,"bits":8,"signature":[1,2,3]}]}`,
		`{"backend":"127.0.0.1:9001"}`,
		`{"backend":""}`,
	} {
		f.Add(uint8(kind), []byte(body))
	}
	f.Add(uint8(0), []byte(`{"records":[]}`))
	f.Add(uint8(0), []byte(`{"records":[{"name":""}]}`))
	f.Add(uint8(0), []byte(`{"records":[{"name":"a"},{"name":"b"},{"name":"c"}]}`))
	f.Add(uint8(1), []byte(`{"k":-1}`))
	f.Add(uint8(1), []byte(`{"mode":"fuzzy"}`))
	f.Add(uint8(1), []byte(`{"name":"<&>"} trailing`))
	f.Add(uint8(2), bytes.Repeat([]byte(" "), 600))

	// A tight shell for the input, so the batch and size caps are within
	// the fuzzer's reach; a roomy one for the round trip, whose encoding
	// may be longer than the input was (json.Marshal escapes <, > and &).
	tight := server.NewShell(server.Config{MaxBatch: 2, MaxBodyBytes: 512})
	roomy := server.NewShell(server.Config{MaxBatch: 2})
	decode := func(sh *server.Shell, v any, body []byte) (bool, *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		return sh.Decode(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), v), rec
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		fresh := kinds[int(kind)%len(kinds)]
		v := fresh()
		ok, rec := decode(tight, v, body)
		if !ok {
			var env errEnvelope
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused %q with status %d", body, rec.Code)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("refusal of %q is not an error envelope: %s", body, rec.Body)
			}
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("accepted %q but wrote %s", body, rec.Body)
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("accepted %q, which does not re-encode: %v", body, err)
		}
		v2 := fresh()
		if ok, rec := decode(roomy, v2, again); !ok {
			t.Fatalf("accepted %q, refused its re-encoding %s: %s", body, again, rec.Body)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("%q decoded to %+v, its re-encoding %s to %+v", body, v, again, v2)
		}
	})
}
