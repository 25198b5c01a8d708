package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sketchengine/internal/server"
)

// refDecode is what server.Shell.Decode must stay indistinguishable
// from: encoding/json's Decoder over the whole body, then the body's own
// Check — the decoder both roles had before server/wire.go, under the two
// rules that file states: a body over the cap is a 413 whatever it holds,
// and only JSON whitespace may follow the first value.
func refDecode(w http.ResponseWriter, body []byte, v any, maxBody int64, maxBatch int) bool {
	status, msg := 0, ""
	dec := json.NewDecoder(bytes.NewReader(body))
	if int64(len(body)) > maxBody {
		status, msg = http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBody)
	} else if err := dec.Decode(v); err != nil {
		status, msg = http.StatusBadRequest, fmt.Sprintf("malformed JSON body: %v", err)
	} else if strings.Trim(string(body[dec.InputOffset():]), " \t\r\n") != "" {
		status, msg = http.StatusBadRequest, "malformed JSON body: trailing data"
	} else if c, ok := v.(interface{ Check(int) (int, string) }); ok {
		status, msg = c.Check(maxBatch)
	}
	if status != 0 {
		server.WriteError(w, status, server.CodeForStatus(status), msg)
	}
	return status == 0
}

// FuzzDecodeRequest drives the one request-body path both node roles
// have — server.Shell.Decode, then the body's own Check — over every
// body type either of them accepts, differentially against refDecode:
// accepted or not, status, error envelope and decoded value must all
// match, so the single-pass parse of the plain shape can neither take a
// body encoding/json refuses nor read one differently. A refusal is a
// 400 or 413 error envelope; an accepted request survives a round trip:
// re-encoded, it decodes to the same value and is accepted again (so
// Check's defaults are a fixed point, and what a coordinator forwards is
// what it validated).
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
	f.Add(uint8(1), []byte(`{"name":"q","data":"x"} ]]] junk`)) // json.Decoder.More() is false before ] and }
	f.Add(uint8(1), []byte(`{"name":"q","data":"x"}}`))
	f.Add(uint8(1), []byte(`{"Data":"case-folded","k":1,"k":2,"name":"a\u00e9\n","mode":null,"x":{"y":[1]},"min_similarity":1e-7}`))
	f.Add(uint8(1), []byte(" {\t\"k\" : -0 ,\r\n\"min_similarity\":12.5E+1,\"name\":\"\",\"data\":\"\x7f ~\"} \n"))
	f.Add(uint8(1), []byte(`{"k":1.0,"min_similarity":1e999,"data":"caf\xc3\xa9 \xff"}`))
	f.Add(uint8(1), []byte("{\"data\":\"sixteen plain bytes, then caf\xc3\xa9 and \xff, then plain again\"}"))
	f.Add(uint8(1), []byte("{\"name\":\"a tab\tin the second word\"}"))
	f.Add(uint8(0), []byte(`{"detailed":false,"records":[ {"data":"x","name":"a"} , {} ]}`))
	f.Add(uint8(0), []byte(`{"records":[{"name":"a","name":"b"}],"detailed":truex}`))
	f.Add(uint8(1), []byte(`{"name":"\"\\\/\b\f\n\r\t","data":"\u003cb\u003e caf\u00e9 \ud83d\ude00 \ud800"}`))
	f.Add(uint8(1), []byte(`{"name":"\u12","mode":"\x"}`))
	f.Add(uint8(1), []byte("{\"data\":\"\\\\\\\" \xef\xbf\xbd \xf0\x9f\x98\x80 \xe2\x82 \\u0000\\uFFFF\",\"name\n\":1}"))
	f.Add(uint8(0), []byte("{\"records\":[{\"name\":\"r\\u00e9sum\\u00e9\",\"data\":\"line one\\nline two \xc3\xa9\"}]} \n"))

	// A tight shell for the input, so the batch and size caps are within
	// the fuzzer's reach; a roomy one for the round trip, whose encoding
	// may be longer than the input was (json.Marshal escapes <, > and &).
	tight := server.NewShell(server.ShellConfig{MaxBatch: 2, MaxBodyBytes: 512})
	roomy := server.NewShell(server.ShellConfig{MaxBatch: 2})
	decode := func(sh *server.Shell, v any, body []byte) (bool, *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		return sh.Decode(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), v), rec
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		fresh := kinds[int(kind)%len(kinds)]
		v := fresh()
		ok, rec := decode(tight, v, body)
		ref, refRec := fresh(), httptest.NewRecorder()
		if refOK := refDecode(refRec, body, ref, 512, 2); refOK != ok || refRec.Code != rec.Code ||
			refRec.Body.String() != rec.Body.String() || !reflect.DeepEqual(ref, v) {
			t.Fatalf("%q: Decode = %v %d %s %+v, encoding/json = %v %d %s %+v",
				body, ok, rec.Code, rec.Body, v, refOK, refRec.Code, refRec.Body, ref)
		}
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
