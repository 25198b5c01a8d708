package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sketchengine/internal/core"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the serve command writes
// to it from its own goroutine while the test polls String.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var (
	servingAddr = regexp.MustCompile(`serving\taddr=([^\t\n]+)`)
	pprofAddr   = regexp.MustCompile(`pprof\taddr=([^\t\n]+)`)
)

// startServe runs `engine serve args...` on its own goroutine with the
// signal context test-hooked, and waits for the "serving" line. It
// returns the base URL, the command's stdout and stderr, and a stop
// func that stands in for SIGTERM and returns the exit code.
func startServe(t *testing.T, args ...string) (base string, stdout, stderr *syncBuffer, stop func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	oldBase := serveBaseContext
	serveBaseContext = func() context.Context { return ctx }
	stdout, stderr = new(syncBuffer), new(syncBuffer)
	done := make(chan int, 1)
	go func() { done <- run(append([]string{"serve", "-addr", "127.0.0.1:0"}, args...), stdout, stderr) }()
	stop = sync.OnceValue(func() int { // once by the test or, failing that, by the cleanup
		cancel()
		defer func() { serveBaseContext = oldBase }()
		select {
		case code := <-done:
			return code
		case <-time.After(15 * time.Second):
			t.Error("serve did not shut down")
			return -1
		}
	})
	t.Cleanup(func() { stop() })
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if m := servingAddr.FindStringSubmatch(stdout.String()); m != nil {
			return "http://" + m[1], stdout, stderr, stop
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never reported its address; stdout=%q stderr=%q", stdout.String(), stderr.String())
		}
	}
}

// TestCLIServe drives the serve subcommand end to end: start on a free
// port, ingest over HTTP, search for a hit, stop via the (test-hooked)
// signal context, and load the snapshot the shutdown left behind.
func TestCLIServe(t *testing.T) {
	index := filepath.Join(t.TempDir(), "index")
	base, stdout, stderr, stop := startServe(t, "-d", index, "-snapshot-every", "50ms", "-pprof-addr", "127.0.0.1:0")
	p := pprofAddr.FindStringSubmatch(stdout.String())
	if p == nil {
		t.Fatalf("serve never reported its pprof address; stdout=%q", stdout.String())
	}
	pprofBase := "http://" + p[1]

	// The pprof side listener must answer on its own port, keeping
	// profiling off the public mux.
	resp0, err := http.Get(pprofBase + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp0.Body)
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", resp0.StatusCode)
	}

	body := `{"records": [
		{"name": "alpha", "data": "the quick brown fox jumps over the lazy dog and keeps running"},
		{"name": "beta",  "data": "the quick brown fox jumps over the lazy dog and keeps walking"}
	]}`
	resp, err := http.Post(base+"/v1/records", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"added":2`) {
		t.Fatalf("ingest = %d %s", resp.StatusCode, raw)
	}

	resp, err = http.Post(base+"/v1/search", "application/json",
		strings.NewReader(`{"name": "q", "data": "the quick brown fox jumps over the lazy dog and keeps sprinting", "k": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	var search struct {
		Results []struct {
			Ref        string  `json:"ref"`
			Similarity float64 `json:"similarity"`
		} `json:"results"`
	}
	err = json.NewDecoder(resp.Body).Decode(&search)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(search.Results) != 1 || search.Results[0].Similarity <= 0 {
		t.Fatalf("search = %+v, want one similar hit", search)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Stop the server (stands in for SIGTERM) and check the exit path.
	if code := stop(); code != 0 {
		t.Fatalf("serve exited %d; stderr=%q", code, stderr.String())
	}

	ix, err := core.Open(index)
	if err != nil {
		t.Fatalf("shutdown snapshot is not loadable: %v", err)
	}
	defer ix.Close()
	if ix.Len() != 2 || ix.Get("alpha") == nil || ix.Get("beta") == nil {
		t.Fatalf("snapshot has %d records, want alpha and beta", ix.Len())
	}
}

// TestCLIServeRetunesLSH: serve on an existing index applies an
// explicitly set -bands/-rows before it listens (where it used to warn
// and ignore them), says so once, and the retuned index still finds a
// planted near-duplicate first.
func TestCLIServeRetunesLSH(t *testing.T) {
	index := filepath.Join(t.TempDir(), "index")
	if _, stderr, code := runCLI(t, "sketch", "-o", index, "-bands", "32", "-rows", "4",
		testdata("alpha.txt"), testdata("beta.txt"), testdata("gamma.txt")); code != 0 {
		t.Fatalf("sketch: code=%d stderr=%s", code, stderr)
	}
	// A scheme that does not cover the signature stops serve before it listens.
	if _, stderr, code := runCLI(t, "serve", "-addr", "127.0.0.1:0", "-d", index, "-bands", "3", "-rows", "5"); code != 1 ||
		!strings.Contains(stderr, "does not cover signature size") {
		t.Fatalf("serve with a bad scheme on an existing index: code=%d stderr=%q", code, stderr)
	}
	base, _, stderr, _ := startServe(t, "-d", index, "-bands", "16", "-rows", "8", "-shards", "3")
	if got := strings.Count(stderr.String(), "rebucketed to bands=16 rows=8"); got != 1 {
		t.Errorf("want one rebucket line on stderr, got %d: %q", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "uses shards=16; ignoring -shards 3") {
		t.Errorf("-shards must stay stored-value-wins, with its warning: %q", stderr.String())
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Engine struct {
			Bands       int `json:"bands"`
			RowsPerBand int `json:"rows_per_band"`
			Shards      int `json:"shards"`
			Records     int `json:"records"`
		} `json:"engine"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if e := stats.Engine; err != nil || e.Bands != 16 || e.RowsPerBand != 8 || e.Shards != 16 || e.Records != 3 {
		t.Fatalf("/stats engine = %+v (%v), want 16x8 over the stored 16 shards and 3 records", e, err)
	}

	// alpha.txt with one word changed: its near-duplicate is rank 1 under
	// the new, stricter banding, through the LSH path.
	raw, err := os.ReadFile(testdata("alpha.txt"))
	if err != nil {
		t.Fatal(err)
	}
	query, _ := json.Marshal(map[string]any{"name": "q", "mode": "lsh", "k": 2,
		"data": strings.Replace(string(raw), "the", "a", 1)})
	resp, err = http.Post(base+"/v1/search", "application/json", bytes.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"results":[{"rank":1,"ref":"alpha.txt"`) {
		t.Fatalf("search after the retune = %d %s, want alpha.txt at rank 1", resp.StatusCode, body)
	}
}

func TestCLIServeErrors(t *testing.T) {
	nope := filepath.Join(t.TempDir(), "nope")
	cases := []struct {
		name string
		args []string
	}{
		{"unexpected args", []string{"serve", "-addr", "127.0.0.1:0", "extra.txt"}},
		{"bad banding", []string{"serve", "-addr", "127.0.0.1:0", "-d", nope, "-bands", "3", "-rows", "5"}},
		{"bad address", []string{"serve", "-addr", "127.0.0.1:99999", "-d", nope}},
		{"a file, not a directory", []string{"serve", "-addr", "127.0.0.1:0", "-d", "testdata/alpha.txt"}},
		{"removed -tiered", []string{"serve", "-addr", "127.0.0.1:0", "-d", nope, "-tiered"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, tc.args...)
			if code == 0 {
				t.Fatalf("want nonzero exit, got 0 (stderr: %s)", stderr)
			}
			if stderr == "" {
				t.Fatal("want error message on stderr")
			}
		})
	}
}
