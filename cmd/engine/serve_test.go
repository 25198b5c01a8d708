package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
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

// TestCLIServe drives the serve subcommand end to end: start on a free
// port, ingest over HTTP, search for a hit, stop via the (test-hooked)
// signal context, and load the snapshot the shutdown left behind.
func TestCLIServe(t *testing.T) {
	index := filepath.Join(t.TempDir(), "index")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	oldBase := serveBaseContext
	serveBaseContext = func() context.Context { return ctx }
	defer func() { serveBaseContext = oldBase }()

	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-d", index, "-snapshot-every", "50ms",
			"-pprof-addr", "127.0.0.1:0"},
			&stdout, &stderr)
	}()

	var base, pprofBase string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := servingAddr.FindStringSubmatch(stdout.String()); m != nil {
			base = "http://" + m[1]
			if p := pprofAddr.FindStringSubmatch(stdout.String()); p != nil {
				pprofBase = "http://" + p[1]
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never reported its address; stdout=%q stderr=%q", stdout.String(), stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if pprofBase == "" {
		t.Fatalf("serve never reported its pprof address; stdout=%q", stdout.String())
	}

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
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d; stderr=%q", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down")
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

func TestCLIServeErrors(t *testing.T) {
	nope := filepath.Join(t.TempDir(), "nope")
	cases := []struct {
		name string
		args []string
	}{
		{"unexpected args", []string{"serve", "-addr", "127.0.0.1:0", "extra.txt"}},
		{"bad mode", []string{"serve", "-mode", "fuzzy"}},
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
