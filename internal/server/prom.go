package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"sketchengine/internal/fault"
)

// WriteProm answers a /metrics scrape from the value /stats serializes,
// in the Prometheus text exposition format (hand-rolled; the format is
// not worth a dependency). A numeric or bool field tagged
//
//	prom:"name[,counter|gauge][,label=value]..." help:"..."
//
// is one series named prefix+name: a counter when the name ends in
// _total, a gauge otherwise, unless the tag says. Fields sharing a name
// are one family (help comes from the first) told apart by their
// constant labels. Untagged structs, non-nil pointers and slices are
// descended; every element of a slice of structs adds one sample per
// family, labelled by the element's promlabel:"key" string field. The
// families that are not one field each — extra, then the fault
// injection counters while a spec is armed — follow. Reflection runs
// here and nowhere else: only a scrape pays for it.
func WriteProm(w http.ResponseWriter, prefix string, v any, extra ...func(io.Writer)) {
	var pw promWalk
	pw.walk(reflect.ValueOf(v), "")
	var buf bytes.Buffer
	for _, f := range pw.fams {
		name := prefix + f.name
		fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ)
		for _, s := range f.samples {
			buf.WriteString(name)
			buf.WriteString(s)
		}
	}
	for _, write := range extra {
		write(&buf)
	}
	writeFaultMetrics(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// promFamily is one metric name: its header and its samples, each
// `{labels} value\n` or ` value\n`. Collecting by family before printing
// keeps a family's samples contiguous, as the format requires, however
// the fields that feed it are spread over the value.
type promFamily struct {
	name, help, typ string
	samples         []string
}

type promWalk struct {
	fams   []*promFamily
	byName map[string]*promFamily
}

// walk descends v; labels is the label list inherited from enclosing
// slice elements, already formatted.
func (pw *promWalk) walk(v reflect.Value, labels string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			pw.walk(v.Elem(), labels)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			pw.walk(v.Index(i), labels)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if key := t.Field(i).Tag.Get("promlabel"); key != "" {
				labels = addLabel(labels, key, v.Field(i).String())
			}
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			if tag, ok := f.Tag.Lookup("prom"); ok {
				pw.add(tag, f.Tag.Get("help"), labels, v.Field(i))
			} else {
				pw.walk(v.Field(i), labels)
			}
		}
	}
}

func addLabel(labels, key, value string) string {
	if labels != "" {
		labels += ","
	}
	return labels + key + "=" + strconv.Quote(value)
}

// add appends one tagged field's sample to its family.
func (pw *promWalk) add(tag, help, labels string, v reflect.Value) {
	parts := strings.Split(tag, ",")
	name, typ := parts[0], "gauge"
	if strings.HasSuffix(name, "_total") {
		typ = "counter"
	}
	for _, p := range parts[1:] {
		if k, val, ok := strings.Cut(p, "="); ok {
			labels = addLabel(labels, k, val)
		} else {
			typ = p
		}
	}
	f := pw.byName[name]
	if f == nil {
		f = &promFamily{name: name, help: help, typ: typ}
		if pw.byName == nil {
			pw.byName = make(map[string]*promFamily)
		}
		pw.byName[name] = f
		pw.fams = append(pw.fams, f)
	}
	var val string
	switch v.Kind() {
	case reflect.Bool:
		val = "0"
		if v.Bool() {
			val = "1"
		}
	case reflect.Int, reflect.Int64:
		val = strconv.FormatInt(v.Int(), 10)
	case reflect.Uint64:
		val = strconv.FormatUint(v.Uint(), 10)
	case reflect.Float64:
		val = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	default:
		panic(fmt.Sprintf("server: prom tag %q on a %s field", tag, v.Kind()))
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	f.samples = append(f.samples, labels+" "+val+"\n")
}

// writeFaultMetrics emits injected-fault counters when a fault plan is
// armed, one labeled series per point:kind rule, and nothing otherwise
// — scrape output is unchanged in normal operation.
func writeFaultMetrics(w io.Writer) {
	p := fault.Active()
	if p == nil {
		return
	}
	counts := p.Counters()
	fmt.Fprintf(w, "# HELP sketchengine_fault_injections_total Faults injected by the armed fault spec, by point and kind.\n# TYPE sketchengine_fault_injections_total counter\n")
	for _, key := range p.CounterKeys() {
		point, kind, _ := strings.Cut(key, ":")
		fmt.Fprintf(w, "sketchengine_fault_injections_total{point=%q,kind=%q} %d\n", point, kind, counts[key])
	}
	fmt.Fprintf(w, "# HELP sketchengine_fault_spec_armed Whether a fault-injection spec is armed.\n# TYPE sketchengine_fault_spec_armed gauge\nsketchengine_fault_spec_armed 1\n")
}

// Latencies renders the shell's per-endpoint latency histograms as one
// Prometheus histogram family named metric, for WriteProm's extra:
// per endpoint, in name order, cumulative _bucket lines over
// latencyBuckets, then _sum and _count.
func (sh *Shell) Latencies(metric, help string) func(io.Writer) {
	return func(w io.Writer) {
		names := make([]string, 0, len(sh.latencies))
		for name := range sh.latencies {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", metric, help, metric)
		for _, name := range names {
			h := sh.latencies[name]
			var cum int64
			for i, ub := range latencyBuckets {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=%q} %d\n",
					metric, name, strconv.FormatFloat(ub, 'g', -1, 64), cum)
			}
			cum += h.counts[len(latencyBuckets)].Load()
			fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", metric, name, cum)
			fmt.Fprintf(w, "%s_sum{endpoint=%q} %s\n",
				metric, name, strconv.FormatFloat(float64(h.sumNanos.Load())/1e9, 'g', -1, 64))
			fmt.Fprintf(w, "%s_count{endpoint=%q} %d\n", metric, name, h.count.Load())
		}
	}
}
