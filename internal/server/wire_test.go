package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestDecodeTakesFallback pins the shapes the single-pass parse must
// decline, and that encoding/json then reads them as it always did.
func TestDecodeTakesFallback(t *testing.T) {
	cases := []struct {
		name, body string
		want       SearchRequest
		wantErr    string // substring of the 400's message; "" = accepted
	}{
		{"case-folded key", `{"Data":"x","NAME":"q"}`, SearchRequest{Name: "q", Data: "x"}, ""},
		{"duplicate key, last wins", `{"k":1,"k":2}`, SearchRequest{K: 2}, ""},
		{"escaped key", `{"d\u0061ta":"x"}`, SearchRequest{Data: "x"}, ""},
		{"invalid UTF-8", "{\"data\":\"a\xffb\"}", SearchRequest{Data: "a\ufffdb"}, ""},
		{"truncated UTF-8", "{\"data\":\"caf\xc3\"}", SearchRequest{Data: "caf\ufffd"}, ""},
		{"surrogate pair escape", `{"data":"\ud83d\ude00"}`, SearchRequest{Data: "\U0001F600"}, ""},
		{"lone surrogate escape", `{"data":"a\ud800b"}`, SearchRequest{Data: "a\ufffdb"}, ""},
		{"unknown escape", `{"data":"a\xb"}`, SearchRequest{}, "invalid character 'x' in string escape code"},
		{"short \\u escape", `{"data":"\u00e"}`, SearchRequest{}, "invalid character '\"' in \\u hexadecimal character escape"},
		{"signed \\u escape", `{"data":"\u+0e9"}`, SearchRequest{}, "invalid character '+' in \\u hexadecimal character escape"},
		{"newline inside a key", "{\"name\n\":\"q\"}", SearchRequest{}, "invalid character '\\n' in string literal"},
		{"null", `{"name":"q","k":null,"mode":null}`, SearchRequest{Name: "q"}, ""},
		{"unknown key, nested value", `{"x":{"y":[1,{"z":"}"}]},"name":"q"}`, SearchRequest{Name: "q"}, ""},
		{"stale field", `{"name":"plain","data":"plain too","k":7,"mode":"exact","Name":"folded"}`,
			SearchRequest{Name: "folded", Data: "plain too", K: 7, Mode: "exact"}, ""},
		{"fractional k", `{"k":1.0}`, SearchRequest{}, "cannot unmarshal number 1.0 into Go struct field SearchRequest.k of type int"},
		{"k out of range", `{"k":9223372036854775808}`, SearchRequest{}, "cannot unmarshal number 9223372036854775808"},
		{"float out of range", `{"min_similarity":1e999}`, SearchRequest{}, "cannot unmarshal number 1e999"},
		{"strconv-only number", `{"k":+1}`, SearchRequest{}, "invalid character '+' looking for beginning of value"},
		{"leading zero", `{"k":01}`, SearchRequest{}, "invalid character '1' after object key:value pair"},
		{"control byte in string", "{\"data\":\"a\tb\"}", SearchRequest{}, "invalid character '\\t' in string literal"},
		{"string for number", `{"k":"1"}`, SearchRequest{}, "cannot unmarshal string into Go struct field SearchRequest.k of type int"},
		{"truncated", `{"name":"q","data":"x`, SearchRequest{}, "unexpected EOF"},
		{"empty", ``, SearchRequest{}, "malformed JSON body: EOF"},
		{"not an object", `[]`, SearchRequest{}, "cannot unmarshal array into Go value of type server.SearchRequest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got SearchRequest
			if got.parsePlain([]byte(tc.body)) || got != (SearchRequest{}) {
				t.Fatalf("parsePlain took %q (or wrote %+v before declining)", tc.body, got)
			}
			err := DecodeJSON([]byte(tc.body), &got)
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains("malformed JSON body: "+err.Error(), tc.wantErr)) {
				t.Fatalf("DecodeJSON(%q) = %v, want error %q", tc.body, err, tc.wantErr)
			}
			if got != tc.want {
				t.Fatalf("DecodeJSON(%q) left %+v, want %+v", tc.body, got, tc.want)
			}
		})
	}

	// A tail declines too, so the tail rule is one rule: the stdlib's.
	for _, body := range []string{`{"name":"q"} {}`, `{"name":"q"}]`, `{"name":"q","x":null} {}`, `{"name":"q"}}`, `{"name":"q"} 0`} {
		var got SearchRequest
		if got.parsePlain([]byte(body)) || got != (SearchRequest{}) {
			t.Fatalf("parsePlain took %q (or wrote %+v before declining)", body, got)
		}
		if err := DecodeJSON([]byte(body), &got); err == nil || err.Error() != "trailing data" || got.Name != "q" {
			t.Fatalf("DecodeJSON(%q) = %v %+v, want the trailing-data refusal", body, err, got)
		}
	}

	// The ingest shapes: same rules one level down.
	for _, body := range []string{
		`{"records":null}`,
		`{"records":[{"name":"a","Name":"b"}]}`,
		`{"records":[{"name":"a","data":"x","data":"y"}]}`,
		`{"records":[{"name":"a","extra":1}]}`,
		`{"records":[{"name":"a"},]}`,
		`{"records":[null]}`,
		`{"detailed":1,"records":[]}`,
		`{"detailed":true,"detailed":true}`,
	} {
		var got, want IngestRequest
		if got.parsePlain([]byte(body)) || !reflect.DeepEqual(got, want) {
			t.Fatalf("parsePlain took %q (or wrote %+v before declining)", body, got)
		}
		err := json.Unmarshal([]byte(body), &want)
		if derr := DecodeJSON([]byte(body), &got); (derr == nil) != (err == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeJSON(%q) = %v %+v, json.Unmarshal = %v %+v", body, derr, got, err, want)
		}
	}
}

// TestDecodePlainShape is the other side: what the load generator, the
// coordinator and any json.Marshal-ing client send is taken by the pass,
// in at most one allocation per string it hands back — text with line
// breaks, quotes, markup and UTF-8 in it as well as text without.
func TestDecodePlainShape(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		testDecodePlainShape(t, strings.Repeat("plain ascii text, 0x7f \x7f and 'quotes' too. ", 100)[:4096], 3)
	})
	t.Run("prose", func(t *testing.T) { // one more: the scratch the strings are decoded in
		testDecodePlainShape(t, strings.Repeat("a line of prose, \"quoted\", with <b>markup</b> & a café —\n\tthen the next.\r\n", 50), 4)
	})
}

func testDecodePlainShape(t *testing.T, data string, maxAllocs float64) {
	want := SearchRequest{Name: "query-1", Data: data, K: 10, MinSimilarity: 0.3, Mode: "exact"}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	lit, _ := json.Marshal(data)
	spaced := []byte(" {\n\t\"mode\" : \"exact\" , \"k\":10,\r\n\"min_similarity\":3e-1,\"data\":" + string(lit) + ",\"name\":\"query-1\" } \n")
	for _, b := range [][]byte{body, spaced} {
		var got SearchRequest
		if !got.parsePlain(b) || got != want {
			t.Fatalf("parsePlain(%.80q...) = %+v", b, got)
		}
	}
	var got SearchRequest
	if n := testing.AllocsPerRun(100, func() { got.parsePlain(body) }); n > maxAllocs {
		t.Errorf("parsePlain of a 4 KiB body: %v allocations, want <= %v (name, data, mode)", n, maxAllocs)
	}

	wantIn := IngestRequest{Records: []IngestRecord{{Name: "a", Data: data}, {Name: "b"}, {}}, Detailed: true}
	body, _ = json.Marshal(wantIn)
	var gotIn IngestRequest
	if !gotIn.parsePlain(body) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatalf("parsePlain(%.80q...) = %+v", body, gotIn)
	}
	if !gotIn.parsePlain([]byte(`{"records":[]}`)) || gotIn.Records == nil || len(gotIn.Records) != 0 || gotIn.Detailed {
		t.Fatalf(`parsePlain({"records":[]}) = %+v, want empty non-nil records`, gotIn)
	}
}

// TestDecodeText holds the pass's string decoding to encoding/json's, on
// every form of string literal it takes rather than declines.
func TestDecodeText(t *testing.T) {
	for _, lit := range []string{
		`""`, `"a\u00e9\n"`, `"café"`, `"\"\\\/\b\f\n\r\t"`, `"\u003cb\u003e \u0026 \u2028"`, `"\u0000\uFFFF\ufffd\uD7ff\ue000"`,
		"\"\xef\xbf\xbd \U0001F600 \u07ff\u0800\"", `"\n"`, `"\nstarts and ends with one\n"`, `"\\\""`, `"a\\"`,
		`"say \"a\", then \"b\", then \"c\": the first quote comes early"`, `"` + strings.Repeat("sixty-three plain bytes and then a line break, again and again\\n", 64) + `"`,
		`"Привет, мир"`, `"日本語のテキスト"`,
	} {
		var got, want SearchRequest
		body := []byte(`{"name":` + lit + `,"data":` + lit + `}`)
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		if !got.parsePlain(body) || got != want {
			t.Errorf("parsePlain(%s) = %q, encoding/json reads %q", lit, got.Data, want.Data)
		}
	}
}

// TestPlainLen holds the eight-at-a-time scan to the rule it states, for
// every byte value in every lane and in the tail, alone and with a second
// stop behind it (a borrow must not move the first).
func TestPlainLen(t *testing.T) {
	for n := 0; n <= 19; n++ {
		for pos := 0; pos < n; pos++ {
			for ch := 0; ch < 256; ch++ {
				s := []byte(strings.Repeat("a", n))
				s[pos] = byte(ch)
				want := n
				if ch < 0x20 || ch >= 0x80 || ch == '\\' || ch == '"' {
					want = pos
				}
				if got := plainLen(s); got != want {
					t.Fatalf("plainLen(%q) = %d, want %d", s, got, want)
				}
				if s[n-1] = '"'; pos < n-1 && plainLen(s) != min(want, n-1) {
					t.Fatalf("plainLen(%q) = %d, want %d", s, plainLen(s), min(want, n-1))
				}
			}
		}
	}
	if plainLen(nil) != 0 || plainLen([]byte(" ~\x7f!#[]^")) != 8 {
		t.Fatal("plainLen stops on plain bytes")
	}
}

// TestBodySizeRule pins the size rule Decode states: over the cap is 413
// whether the length is declared or the body is chunked, and wherever
// the body's JSON value ends.
func TestBodySizeRule(t *testing.T) {
	_, ts := newTestServer(t, Config{ShellConfig: ShellConfig{MaxBodyBytes: 512}})
	pad := strings.Repeat(" ", 600)
	small := `{"name":"q","data":"some text"}`
	cases := []struct {
		name    string
		body    string
		chunked bool
		want    int
	}{
		{"declared length over the cap", `{"name":"q","data":"` + strings.Repeat("x", 600) + `"}`, false, http.StatusRequestEntityTooLarge},
		{"chunked over the cap", `{"name":"q","data":"` + strings.Repeat("x", 600) + `"}`, true, http.StatusRequestEntityTooLarge},
		{"value ends early, padding over the cap", small + pad, false, http.StatusRequestEntityTooLarge},
		{"value ends early, padding over the cap, chunked", small + pad, true, http.StatusRequestEntityTooLarge},
		{"malformed and over the cap", `{"name":` + pad, true, http.StatusRequestEntityTooLarge},
		{"at the cap", small + pad[:512-len(small)], false, http.StatusOK},
		{"at the cap, chunked", small + pad[:512-len(small)], true, http.StatusOK},
		{"under the cap, chunked, stdlib path", `{"name":"q","data":"caf\ud83d\ude00"}`, true, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader = strings.NewReader(tc.body)
			if tc.chunked {
				body = struct{ io.Reader }{body} // length unknown to net/http: sent chunked
			}
			resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, out)
			}
			if tc.want != http.StatusOK && !strings.Contains(string(out), `"request body exceeds 512 bytes"`) {
				t.Fatalf("413 body = %s", out)
			}
		})
	}

	// A declared length over the cap is refused before a byte is read.
	sh := NewShell(ShellConfig{MaxBodyBytes: 512})
	r := httptest.NewRequest(http.MethodPost, "/", failReader{t})
	r.ContentLength = 513
	rec := httptest.NewRecorder()
	if sh.Decode(rec, r, new(SearchRequest)) || rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("Decode with Content-Length 513 = %d %s", rec.Code, rec.Body)
	}
}

type failReader struct{ t *testing.T }

func (f failReader) Read([]byte) (int, error) {
	f.t.Error("body read despite a Content-Length over the cap")
	return 0, io.EOF
}

// tenHits is a backend's answer as the coordinator reads it: generated
// record names and scores in k/128 steps.
func tenHits() *SearchResponse {
	r := &SearchResponse{Query: "query-17", Mode: "lsh", Results: []SearchHit{}}
	for i := range 10 {
		sim := float64(120-9*i) / 128
		r.Results = append(r.Results, SearchHit{Rank: i + 1, Ref: fmt.Sprintf("rec-%06d.txt", 7919*i), Similarity: sim, Distance: 1 - sim})
	}
	return r
}

// FuzzSearchCodec holds the search hop's codec to encoding/json in both
// directions. DecodeJSON of any body, as a search answer or request, is
// accepted exactly when json.Unmarshal accepts it, to the same value;
// AppendJSON of any search answer or request is json.Encoder's bytes, or
// an error where the Encoder has one; and whatever AppendJSON writes the
// single pass reads back, so the coordinator never leaves it for a
// backend's answer.
func FuzzSearchCodec(f *testing.F) {
	plain, _ := json.Marshal(tenHits())
	for _, body := range []string{
		string(plain),
		`{"query":"<&>","mode":"exact","results":[{"rank":1,"ref":"\u003ca\u0026b\u003e","similarity":0.5,"distance":0.5}],"partial":true}`,
		"{\"query\":\"line\u2028sep \\u2028\",\"mode\":\"\",\"results\":[]}",
		"{\"query\":\"a\xffb\",\"results\":[{\"ref\":\"caf\xc3\"}]}",
		"{\"query\":\"a tab\there\",\"results\":[]}",
		`{"results":[{"rank":1,"ref":"a","similarity":1e-7,"distance":1e21}]}`,
		`{"results":[{"rank":-0,"similarity":-0,"distance":1E+2}],"partial":false}`,
		`{"query":"q","mode":"lsh","results":null}`,
		` {"results" : [ ] } `,
		`{"query":"q","Query":"Q","results":[{"ref":"a","ref":"b","RANK":2}]}`,
		`{"query":"q","query":"r"}`,
		`{"results":[{"rank":1.0}]}`,
		`{"results":[{"ref":"\ud83d\ude00"}],"unknown":{}}`,
		`{"query":"q","results":[]} {}`,
		`{"name":"q","data":"text","k":10,"min_similarity":0.25,"mode":"exact"}`,
	} {
		f.Add([]byte(body), "<q&\"\u00e9\">", "a\u2028b\tc", 0.3, 10)
	}
	f.Add([]byte(`{"query":"a<b","mode":"c>d","results":[{"ref":"e&f"}]}`), "a<b", "c>d", 0.5, 2)
	f.Add([]byte(`{}`), "a\xffb", "caf\xc3", 1e-7, -1)
	f.Add([]byte(`{}`), "", "plain", 1e21, 0)
	f.Add([]byte(`{}`), "\x7f\\\"", "\U0001F600", math.Copysign(0, -1), math.MaxInt)
	f.Add([]byte(`{}`), "nan", "", math.NaN(), 1)
	f.Fuzz(func(t *testing.T, body []byte, name, ref string, score float64, rank int) {
		for _, fresh := range []func() any{func() any { return new(SearchResponse) }, func() any { return new(SearchRequest) }} {
			got, want := fresh(), fresh()
			err, wantErr := DecodeJSON(body, got), json.Unmarshal(body, want)
			if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: DecodeJSON = %v %+v, json.Unmarshal = %v %+v", body, err, got, wantErr, want)
			}
			if err == nil {
				checkAppendJSON(t, got)
			}
		}
		checkAppendJSON(t, &SearchRequest{Name: name, Data: ref, K: rank, MinSimilarity: score, Mode: name})
		checkAppendJSON(t, &SearchResponse{Query: name, Mode: ref, Partial: rank%2 == 0, Results: []SearchHit{
			{Rank: rank, Ref: ref, Similarity: score, Distance: 1 - score},
			{Rank: rank + 1, Ref: name, Similarity: score / 3, Distance: -score},
		}})
		checkAppendJSON(t, &SearchResponse{Query: ref, Results: []SearchHit{}})
		checkAppendJSON(t, &SearchResponse{})
	})
}

// checkAppendJSON holds AppendJSON(prefix, v) to json.Encoder and the
// single pass to reading back what it wrote as json.Unmarshal does, but
// for "results":null.
func checkAppendJSON(t *testing.T, v any) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(v)
	got, err := AppendJSON([]byte("prefix"), v)
	if (err == nil) != (wantErr == nil) || err == nil && string(got) != "prefix"+want.String() {
		t.Fatalf("AppendJSON(%+v) = %q %v, json.Encoder writes %q %v", v, got, err, want.Bytes(), wantErr)
	}
	if r, ok := v.(*SearchResponse); err != nil || ok && r.Results == nil { // "results":null is the stdlib's
		return
	}
	back := reflect.New(reflect.TypeOf(v).Elem())
	ref := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if !back.Interface().(interface{ parsePlain([]byte) bool }).parsePlain(got[len("prefix"):]) ||
		json.Unmarshal(got[len("prefix"):], ref) != nil || !reflect.DeepEqual(back.Interface(), ref) {
		t.Fatalf("the single pass does not read back %q as encoding/json does: %+v, want %+v", got, back, ref)
	}
}

// TestDecodeAnswerAllocs pins the coordinator's reading of a 10-hit
// answer to one allocation per string and one for the hits.
func TestDecodeAnswerAllocs(t *testing.T) {
	body, _ := AppendJSON(nil, tenHits())
	var got SearchResponse
	if n := testing.AllocsPerRun(100, func() { got = SearchResponse{}; _ = DecodeJSON(body, &got) }); n > 13 {
		t.Errorf("DecodeJSON of a 10-hit answer: %v allocations, want <= 13", n)
	}
	if !reflect.DeepEqual(&got, tenHits()) {
		t.Fatalf("DecodeJSON = %+v, want %+v", got, tenHits())
	}
}
