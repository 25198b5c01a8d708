package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sketchengine/internal/server"
)

// logCapture is a slog.Handler that keeps every record, so a test can
// assert what a coordinator or backend logged.
type logCapture struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r.Clone())
	return nil
}

func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler { return c }
func (c *logCapture) WithGroup(string) slog.Handler      { return c }

// lines returns the attributes, as strings, of every record logged at
// level with message msg.
func (c *logCapture) lines(level slog.Level, msg string) []map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []map[string]string
	for _, r := range c.recs {
		if r.Level != level || r.Message != msg {
			continue
		}
		attrs := map[string]string{}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.String()
			return true
		})
		out = append(out, attrs)
	}
	return out
}

// newLoggedCluster is newTestCluster with cfg.Log capturing what the
// coordinator and its backends log.
func newLoggedCluster(t *testing.T, cfg Config) (*testCluster, *logCapture) {
	lc := new(logCapture)
	cfg.Log = slog.New(lc)
	return newTestCluster(t, 3, cfg), lc
}

// sendID posts body to url with the request-ID header set to id (none
// when id is empty) and any extra headers, and returns the response.
func sendID(t *testing.T, url, id string, body string, extra ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(server.RequestIDHeader, id)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		req.Header.Set(extra[i], extra[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestBreakerTransitionsLog: a backend's breaker opening and closing
// each log one line naming the backend.
func TestBreakerTransitionsLog(t *testing.T) {
	tc, lc := newLoggedCluster(t, Config{})
	b := tc.coord.backendList()[0]
	for range tc.coord.cfg.DownAfter {
		tc.coord.observeBreaker(b, false)
	}
	down := lc.lines(slog.LevelWarn, "backend down, breaker open")
	if len(down) != 1 || down[0]["backend"] != b.addr || down[0]["failures"] != "3" {
		t.Fatalf("down lines = %v; want one for backend %s after 3 failures", down, b.addr)
	}
	for !b.up() {
		tc.coord.observeBreaker(b, true)
	}
	up := lc.lines(slog.LevelInfo, "backend up, breaker closed")
	if len(up) != 1 || up[0]["backend"] != b.addr {
		t.Fatalf("up lines = %v; want one for backend %s", up, b.addr)
	}
}

// TestHintReplayLogs: a drain that replays a backend's hints logs how
// many it replayed, expired and left pending.
func TestHintReplayLogs(t *testing.T) {
	tc, lc := newLoggedCluster(t, Config{Replication: 3})
	victim := tc.backends[0]
	victim.stop()
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest with one of three replicas down = %d, body %s", resp.StatusCode, out)
	}
	victim.start()
	tc.coord.drainHints(context.Background())
	lines := lc.lines(slog.LevelInfo, "hints replayed")
	want := map[string]string{"backend": victim.addr, "replayed": "4", "expired": "0", "pending": "0"}
	if len(lines) != 1 || !hasAttrs(lines[0], want) {
		t.Fatalf("replay lines = %v; want one with %v", lines, want)
	}
}

// hasAttrs reports whether got holds every attribute of want.
func hasAttrs(got, want map[string]string) bool {
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// TestBackend5xxLogsRequestID: a backend's 5xx is logged at Warn with
// the request ID it was sent, and the response echoes that ID.
func TestBackend5xxLogsRequestID(t *testing.T) {
	tc, lc := newLoggedCluster(t, Config{})
	resp := sendID(t, tc.backends[1].url()+"/v1/search", "t-504", `{"name":"q","data":"whatever","k":1}`,
		server.DeadlineHeader, "1")
	if resp.StatusCode != http.StatusGatewayTimeout || resp.Header.Get(server.RequestIDHeader) != "t-504" {
		t.Fatalf("expired deadline = %d with request ID %q; want 504 echoing t-504",
			resp.StatusCode, resp.Header.Get(server.RequestIDHeader))
	}
	lines := lc.lines(slog.LevelWarn, "request failed")
	want := map[string]string{"request_id": "t-504", "status": "504", "path": "/v1/search"}
	if len(lines) != 1 || !hasAttrs(lines[0], want) {
		t.Fatalf("5xx lines = %v; want one with %v", lines, want)
	}
}

// TestRequestIDCrossesHop: a coordinator search takes a well-formed
// inbound request ID, or mints one in place of a missing or ill-formed
// one, echoes it, and sends it on every backend call it makes.
func TestRequestIDCrossesHop(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(6)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
	var mu sync.Mutex
	var forwarded []string
	record := func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/v1/search" {
			mu.Lock()
			forwarded = append(forwarded, r.Header.Get(server.RequestIDHeader))
			mu.Unlock()
		}
		return false
	}
	tc.intercept.Store(&record)
	minted := map[string]bool{}
	for _, tt := range []struct{ name, sent, want string }{
		{"well-formed", "t-1", "t-1"},
		{"longest", strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{"missing", "", ""},
		{"ill-formed", "bad id!", ""},
		{"over-long", strings.Repeat("a", 65), ""},
	} {
		t.Run(tt.name, func(t *testing.T) {
			mu.Lock()
			forwarded = nil
			mu.Unlock()
			resp := sendID(t, tc.ts.URL+"/v1/search", tt.sent, `{"name":"q","data":"shared payload stem for rec-03.txt","k":3}`)
			id := resp.Header.Get(server.RequestIDHeader)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("search = %d", resp.StatusCode)
			}
			switch {
			case tt.want != "" && id != tt.want:
				t.Fatalf("response carries request ID %q, want %q", id, tt.want)
			case tt.want == "" && (id == "" || id == tt.sent || minted[id]):
				t.Fatalf("response carries request ID %q; want a fresh minted one in place of %q", id, tt.sent)
			}
			minted[id] = true
			mu.Lock()
			defer mu.Unlock()
			if len(forwarded) != 2 {
				t.Fatalf("%d backend calls, want the covering 2", len(forwarded))
			}
			for _, got := range forwarded {
				if got != id {
					t.Fatalf("backend calls carried %q, want %q on every one", forwarded, id)
				}
			}
		})
	}
}
