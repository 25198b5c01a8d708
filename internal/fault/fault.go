// Package fault is a seeded, rule-based fault-injection subsystem for
// chaos testing. Production code is instrumented with named faultpoints
// (Check for disk paths, RoundTripper for HTTP transports); each point
// is evaluated against a parsed spec of rules like
//
//	backend.rt:error=0.1;wal.fsync:fail-once;backend.rt:delay=50ms@0.2
//
// The evaluation PRNG is seeded explicitly, so a failing schedule is
// replayed exactly by re-running with the same seed and spec. When no
// plan is enabled every faultpoint collapses to a single atomic nil
// check, so the hooks cost nothing in production builds.
//
// The package is test-and-operator tooling: the only way to arm it in a
// server binary is the explicit -fault-spec flag, and an armed plan
// advertises itself in /stats and /metrics so an injected fault can
// never be mistaken for a real one.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Rule kinds. Disk points treat every terminal kind as "fail the
// operation with an injected error" (the framed-log write points first
// write half their buffer on KindTorn); the HTTP RoundTripper maps each
// kind to a distinct transport failure mode.
const (
	KindDelay    = "delay"     // add latency before the operation
	KindError    = "error"     // HTTP: synthesized 503; disk: operation fails
	KindReset    = "reset"     // HTTP: connection reset (transport error)
	KindTorn     = "torn"      // HTTP: truncated response body; disk: fails, log writes after a short write
	KindFailOnce = "fail-once" // fail exactly the first evaluation, then disarm
)

// rule is one parsed clause of a fault spec.
type rule struct {
	point string
	kind  string
	prob  float64       // probability the rule fires per evaluation
	delay time.Duration // KindDelay only
	fired atomic.Bool   // KindFailOnce: set once consumed
	count atomic.Int64  // times this rule fired
}

// Plan is a parsed fault spec plus the seeded PRNG that drives it.
// A Plan is safe for concurrent evaluation.
type Plan struct {
	Seed int64
	Spec string

	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string][]*rule
	order []*rule // spec order, for stable counter output
}

// Decision is the outcome of evaluating a faultpoint: an optional
// delay plus at most one terminal fault kind.
type Decision struct {
	Point string
	Delay time.Duration
	Kind  string // "" when no terminal fault fired
}

// InjectedError marks an error as fault-injected so tests (and humans
// reading logs) can tell it apart from an organic failure.
type InjectedError struct {
	Point string
	Kind  string
}

func (e *InjectedError) Error() string {
	return "fault: injected " + e.Kind + " at " + e.Point
}

// Parse compiles a spec string against a seed. Clauses are separated
// by ';'; each clause is name:kind[=param][@prob]. For delay the param
// is a duration ("50ms"); for error/reset/torn it is the probability
// (equivalent to @prob); fail-once takes no param. Probability
// defaults to 1.
func Parse(spec string, seed int64) (*Plan, error) {
	p := &Plan{
		Seed:  seed,
		Spec:  spec,
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string][]*rule),
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		p.rules[r.point] = append(p.rules[r.point], r)
		p.order = append(p.order, r)
	}
	if len(p.order) == 0 {
		return nil, fmt.Errorf("fault: empty spec")
	}
	return p, nil
}

func parseClause(clause string) (*rule, error) {
	name, rest, ok := strings.Cut(clause, ":")
	name = strings.TrimSpace(name)
	rest = strings.TrimSpace(rest)
	if !ok || name == "" || rest == "" {
		return nil, fmt.Errorf("fault: clause %q: want name:kind[=param][@prob]", clause)
	}
	// Split off @prob first so "delay=50ms@0.2" parses cleanly.
	rest, probStr, hasProb := strings.Cut(rest, "@")
	kind, param, hasParam := strings.Cut(rest, "=")
	kind = strings.TrimSpace(kind)
	r := &rule{point: name, kind: kind, prob: 1}
	if hasProb {
		v, err := strconv.ParseFloat(strings.TrimSpace(probStr), 64)
		if err != nil || v < 0 || v > 1 {
			return nil, fmt.Errorf("fault: clause %q: bad probability %q", clause, probStr)
		}
		r.prob = v
	}
	switch kind {
	case KindDelay:
		if !hasParam {
			return nil, fmt.Errorf("fault: clause %q: delay needs a duration", clause)
		}
		d, err := time.ParseDuration(strings.TrimSpace(param))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("fault: clause %q: bad duration %q", clause, param)
		}
		r.delay = d
	case KindError, KindReset, KindTorn:
		if hasParam {
			if hasProb {
				return nil, fmt.Errorf("fault: clause %q: both =prob and @prob", clause)
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(param), 64)
			if err != nil || v < 0 || v > 1 {
				return nil, fmt.Errorf("fault: clause %q: bad probability %q", clause, param)
			}
			r.prob = v
		}
	case KindFailOnce:
		if hasParam {
			return nil, fmt.Errorf("fault: clause %q: fail-once takes no param", clause)
		}
	default:
		return nil, fmt.Errorf("fault: clause %q: unknown kind %q", clause, kind)
	}
	return r, nil
}

// active is the globally armed plan. Nil means every faultpoint is a
// single atomic load and an untaken branch.
var active atomic.Pointer[Plan]

// Enable arms a plan globally. Passing nil disarms.
func Enable(p *Plan) {
	if p == nil {
		active.Store(nil)
		return
	}
	active.Store(p)
}

// Disable disarms fault injection.
func Disable() { active.Store(nil) }

// Active returns the armed plan, or nil.
func Active() *Plan { return active.Load() }

// Point evaluates a named faultpoint against the armed plan. It
// returns nil when no plan is armed or no rule fires — the fast path.
func Point(name string) *Decision {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.evaluate(name)
}

// Check evaluates a faultpoint for a disk-style operation: any fired
// delay is slept inline and any terminal kind becomes an error.
func Check(name string) error {
	d := Point(name)
	if d == nil {
		return nil
	}
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	if d.Kind == "" {
		return nil
	}
	return &InjectedError{Point: name, Kind: d.Kind}
}

func (p *Plan) evaluate(name string) *Decision {
	rules := p.rules[name]
	if len(rules) == 0 {
		return nil
	}
	var dec *Decision
	for _, r := range rules {
		if r.kind == KindFailOnce {
			if !r.fired.CompareAndSwap(false, true) {
				continue
			}
		} else if r.prob < 1 {
			p.mu.Lock()
			roll := p.rng.Float64()
			p.mu.Unlock()
			if roll >= r.prob {
				continue
			}
		}
		r.count.Add(1)
		if dec == nil {
			dec = &Decision{Point: name}
		}
		if r.kind == KindDelay {
			dec.Delay += r.delay
			continue
		}
		if dec.Kind == "" {
			dec.Kind = r.kind // first terminal kind wins
		}
	}
	return dec
}

// Counters returns fired-rule counts keyed "point:kind", sorted keys
// merged (two rules with the same point and kind share a key).
func (p *Plan) Counters() map[string]int64 {
	out := make(map[string]int64, len(p.order))
	for _, r := range p.order {
		out[r.point+":"+r.kind] += r.count.Load()
	}
	return out
}

// CounterKeys returns the sorted key set of Counters, for stable
// metrics output.
func (p *Plan) CounterKeys() []string {
	seen := make(map[string]bool, len(p.order))
	var keys []string
	for _, r := range p.order {
		k := r.point + ":" + r.kind
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Injected reports the total number of fired rules across the plan.
func (p *Plan) Injected() int64 {
	var n int64
	for _, r := range p.order {
		n += r.count.Load()
	}
	return n
}
