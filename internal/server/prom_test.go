package server

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteProm pins the walker's whole contract on one small value:
// nested structs and non-nil pointers are descended, a nil pointer
// drops its families, bools and floats render, a _total name is a
// counter and any other a gauge unless the tag says, constant labels
// and a slice's element label combine, and each family gets one header
// with all of its samples under it.
func TestWriteProm(t *testing.T) {
	type inner struct {
		Hits  uint64  `prom:"hits_total" help:"Cache hits."`
		Ratio float64 `prom:"hit_ratio" help:"Hits over lookups."`
	}
	type row struct {
		Addr   string `promlabel:"backend"`
		Up     bool   `prom:"backend_up" help:"1 up, 0 down."`
		Opens  int64  `prom:"backend_transitions_total,kind=open" help:"Transitions by kind."`
		Closes int64  `prom:"backend_transitions_total,kind=close"`
		Note   string // untagged: stays out
	}
	type top struct {
		Depth   int   `json:"depth" prom:"queue_depth" help:"Queued now."`
		Ok2xx   int64 `prom:"responses_total,class=2xx" help:"By class."`
		Nested  inner
		Present *inner
		Absent  *struct {
			X int `prom:"absent_total" help:"Never rendered."`
		}
		Err5xx   int64 `prom:"responses_total,class=5xx"`
		Occupied int64 `prom:"ring_records,counter" help:"A counter without the suffix."`
		Rows     []row
		Untagged int
		Names    []string
	}
	v := top{
		Depth: 3, Ok2xx: 7, Err5xx: 1, Occupied: 9,
		Nested:  inner{Hits: 5, Ratio: 0.5},
		Present: &inner{Hits: 6, Ratio: 0.25},
		Rows:    []row{{Addr: "a:1", Up: true, Opens: 2, Closes: 1}, {Addr: "b:2", Opens: 4}},
		Names:   []string{"x"},
	}
	rec := httptest.NewRecorder()
	WriteProm(rec, "t_", v)
	const want = `# HELP t_queue_depth Queued now.
# TYPE t_queue_depth gauge
t_queue_depth 3
# HELP t_responses_total By class.
# TYPE t_responses_total counter
t_responses_total{class="2xx"} 7
t_responses_total{class="5xx"} 1
# HELP t_hits_total Cache hits.
# TYPE t_hits_total counter
t_hits_total 5
t_hits_total 6
# HELP t_hit_ratio Hits over lookups.
# TYPE t_hit_ratio gauge
t_hit_ratio 0.5
t_hit_ratio 0.25
# HELP t_ring_records A counter without the suffix.
# TYPE t_ring_records counter
t_ring_records 9
# HELP t_backend_up 1 up, 0 down.
# TYPE t_backend_up gauge
t_backend_up{backend="a:1"} 1
t_backend_up{backend="b:2"} 0
# HELP t_backend_transitions_total Transitions by kind.
# TYPE t_backend_transitions_total counter
t_backend_transitions_total{backend="a:1",kind="open"} 2
t_backend_transitions_total{backend="a:1",kind="close"} 1
t_backend_transitions_total{backend="b:2",kind="open"} 4
t_backend_transitions_total{backend="b:2",kind="close"} 0
`
	if got := rec.Body.String(); got != want {
		t.Fatalf("WriteProm output:\n%s\nwant:\n%s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}

	// The exposition format wants a family's samples in one run under one
	// header. The text above shows it; this states it, for families fed
	// from fields that are not adjacent (responses_total) or from several
	// slice elements.
	seen := map[string]bool{}
	last := ""
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP") {
			continue
		}
		name := strings.TrimPrefix(line, "# TYPE ")
		name = name[:strings.IndexAny(name, " {")]
		if name != last {
			if seen[name] {
				t.Errorf("family %s is split: %q starts a second run", name, line)
			}
			seen[name], last = true, name
		}
	}
}
