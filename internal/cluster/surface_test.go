package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"sketchengine/internal/fault"
	"sketchengine/internal/server"
)

// surface is one scrape of both node roles' observability endpoints,
// taken in the state the goldens under testdata/ were recorded in (from
// the binaries of the commit before the shared shell landed): a backend
// over a directory index with its WAL, a record deleted on it, a fault
// spec armed, and the coordinator with one backend's breaker open.
type surface struct {
	serverMetrics, serverStats, coordMetrics, coordStats string
}

func scrapeSurface(t *testing.T) surface {
	t.Helper()
	plan, err := fault.Parse("wal.fsync:delay=1ms@0.5;backend.rt:delay=1ms@0.5", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(plan)
	t.Cleanup(fault.Disable)

	tc := newTestCluster(t, 3, Config{})
	durable, doomed, front := tc.backends[0], tc.backends[2], tc.ts

	mustOK := func(resp *http.Response, out []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s = %d, body %s", resp.Request.Method, resp.Request.URL, resp.StatusCode, out)
		}
	}
	mustOK(postJSON(t, front.URL+"/v1/records", corpus(8)))
	mustOK(postJSON(t, front.URL+"/v1/search", searchBody(3)))
	// Straight to the durable backend: a search, and a record of its own
	// to delete (dead_rows and tombstone_ratio are omitted while zero).
	direct := durable.url()
	mustOK(postJSON(t, direct+"/v1/records", server.IngestRequest{Records: []server.IngestRecord{
		{Name: "mine", Data: "a record only this backend holds, deleted again at once"}}}))
	mustOK(postJSON(t, direct+"/v1/search", searchBody(3)))
	mustOK(deleteBody(t, direct+"/v1/records/mine"))

	// Three failed calls open a breaker (DefaultDownAfter); every batch of
	// eight names touches every backend.
	doomed.stop()
	for i := 0; i < DefaultDownAfter; i++ {
		postJSON(t, front.URL+"/v1/records", corpus(8))
	}

	var s surface
	for _, get := range []struct {
		url string
		dst *string
	}{
		{direct + "/metrics", &s.serverMetrics}, {direct + "/stats", &s.serverStats},
		{front.URL + "/metrics", &s.coordMetrics}, {front.URL + "/stats", &s.coordStats},
	} {
		resp, out := getBody(t, get.url)
		mustOK(resp, out)
		*get.dst = string(out)
	}
	return s
}

// promFamilies maps each family in a /metrics body to its type.
func promFamilies(body string) map[string]string {
	fams := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams[f[2]] = f[3]
		}
	}
	return fams
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(raw)), "\n")
}

// TestMetricsGolden: every metric family the previous commit's binaries
// exposed (less the one counter of the admin endpoint deleted with it,
// since then the two gauges of the ingest queue deleted with it, and
// sketchengine_cluster_shed_total, deleted with the fan-out shed that
// could never fire) is still exposed with the same type, and what was added is exactly
// the drift between /stats and /metrics that rendering both from one
// value closed.
func TestMetricsGolden(t *testing.T) {
	s := scrapeSurface(t)
	for _, tc := range []struct {
		golden, body string
		gained       []string
	}{
		{"testdata/metrics_server.golden", s.serverMetrics,
			[]string{"sketchengine_mapped_bytes", "sketchengine_peak_in_flight", "sketchengine_prefilter_scanned_total",
				"sketchengine_prefilter_survived_total", "sketchengine_rescored_total", "sketchengine_resident_bytes",
				"sketchengine_tier_read_errors_total"}},
		{"testdata/metrics_coordinator.golden", s.coordMetrics,
			[]string{"sketchengine_cluster_in_flight_requests", "sketchengine_cluster_peak_in_flight",
				"sketchengine_cluster_responses_total"}},
	} {
		got := promFamilies(tc.body)
		for _, line := range readLines(t, tc.golden) {
			f := strings.Fields(line) // "# TYPE name type"
			name, typ := f[2], f[3]
			switch {
			case got[name] == "":
				t.Errorf("%s: family %s is missing", tc.golden, name)
			case got[name] != typ:
				t.Errorf("%s: family %s is now a %s, was a %s", tc.golden, name, got[name], typ)
			}
			delete(got, name)
		}
		var gained []string
		for name := range got {
			gained = append(gained, name)
		}
		sort.Strings(gained)
		if fmt.Sprint(gained) != fmt.Sprint(tc.gained) {
			t.Errorf("%s: families added = %v, want %v", tc.golden, gained, tc.gained)
		}
	}
}

// jsonPaths flattens a JSON document into "a.b.[].c" -> JSON type, the
// shape testdata/stats_*.golden was recorded in (with jq).
func jsonPaths(t *testing.T, doc string) map[string]string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		t.Fatal(err)
	}
	paths := map[string]string{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				walk(strings.TrimPrefix(prefix+"."+k, "."), e)
			}
		case []any:
			for _, e := range x {
				walk(strings.TrimPrefix(prefix+".[]", "."), e)
			}
		case string:
			paths[prefix] = "string"
		case float64:
			paths[prefix] = "number"
		case bool:
			paths[prefix] = "boolean"
		}
	}
	walk("", v)
	return paths
}

// TestStatsKeysGolden: every key path of both /stats bodies at the
// previous commit (less ingest.queue_depth and ingest.queue_capacity,
// gone with the ingest queue) is still there with the same JSON type — bench/ and
// operators' dashboards decode these by name.
func TestStatsKeysGolden(t *testing.T) {
	s := scrapeSurface(t)
	for golden, body := range map[string]string{
		"testdata/stats_server.golden":      s.serverStats,
		"testdata/stats_coordinator.golden": s.coordStats,
	} {
		got := jsonPaths(t, body)
		for _, line := range readLines(t, golden) {
			path, typ, _ := strings.Cut(line, " ")
			if got[path] != typ {
				t.Errorf("%s: %s is %q, want %s\n%s", golden, path, got[path], typ, body)
			}
		}
	}
	// The blocks this change added, so their absence is noticed too.
	for path, body := range map[string]string{"requests.deletes": s.serverStats, "http.status_5xx": s.coordStats} {
		if jsonPaths(t, body)[path] != "number" {
			t.Errorf("/stats lacks %s", path)
		}
	}
}

// TestMetricsDocumented diffs the two scrapes against docs/API.md in
// both directions: a family is documented if and only if it is exposed.
func TestMetricsDocumented(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	// A name in code font, whole: up to the closing backtick or its label
	// set. A bare prefix (sketchengine_cluster_) names no family.
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`(sketchengine_[a-z0-9_]+)[`{]").FindAllStringSubmatch(string(raw), -1) {
		if !strings.HasSuffix(m[1], "_") {
			documented[m[1]] = true
		}
	}
	s := scrapeSurface(t)
	exposed := promFamilies(s.serverMetrics + s.coordMetrics)
	for name := range exposed {
		if !documented[name] {
			t.Errorf("%s is exposed but not in docs/API.md", name)
		}
	}
	for name := range documented {
		if exposed[name] == "" {
			t.Errorf("docs/API.md names %s, which no scrape exposes", name)
		}
	}
}
