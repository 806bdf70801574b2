// Package fault is a deterministic, seed-driven fault-injection
// registry for chaos-testing the MIO serving stack. Code under test
// declares named injection points — fixed strings like
// "engine.verification" or "swap.load" — and calls Registry.Fire at
// each one; a registry armed with rules makes some of those calls
// misbehave: sleep (a latency spike), return an error, or panic, each
// with a configured probability drawn from a seeded PRNG.
//
// The registry is nil-safe and effectively free when disarmed: Fire on
// a nil or rule-less registry is a pointer check plus one atomic load,
// so injection points can stay compiled into production paths.
// Determinism: a given seed yields the same accept/reject sequence for
// a given sequence of Fire calls. Concurrent callers serialise on an
// internal mutex, so cross-goroutine interleaving (not the per-call
// draws) is the only source of run-to-run variation.
//
// Rules are configured programmatically (Arm) or parsed from the
// cmd/miosrv -faults flag syntax (Parse):
//
//	seed=42;engine.verification=panic:0.01;swap.load=error:0.5;server.run=latency:0.1:5ms
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical injection points of the miosrv stack. The string is the
// registry key, so flags, tests and metrics all name the same spots;
// packages fire them via these constants, never literals.
const (
	// PointRequest fires at the top of every /v1 request.
	PointRequest = "server.request"
	// PointAcquire fires while a request acquires an engine slot.
	PointAcquire = "server.acquire"
	// PointRun fires while an engine slot is held, before the run.
	PointRun = "server.run"
	// PointSwapLoad fires before a dataset swap reads the file.
	PointSwapLoad = "swap.load"
	// PointSwapBuild fires before a swap builds its engine pool.
	PointSwapBuild = "swap.build"
	// PointLabelInput .. PointVerification fire at the entry of the
	// corresponding §III/§IV pipeline phase inside the engine.
	PointLabelInput    = "engine.label_input"
	PointGridMapping   = "engine.grid_mapping"
	PointLowerBounding = "engine.lower_bounding"
	PointUpperBounding = "engine.upper_bounding"
	PointVerification  = "engine.verification"

	// PointScatter fires in the coordinator before a query fans out to
	// its shards; an error here fails the query before any shard runs.
	PointScatter = "shard.scatter"
	// PointShardDown fires once per shard (in shard-id order, before
	// the fan-out); an error marks that shard dead for this query — the
	// instant-death simulation, no attempt, no retry.
	PointShardDown = "shard.down"
	// PointShardRun fires inside each per-shard bound attempt while the
	// shard's engine is held: latency rules make stragglers (exercising
	// hedged scatter), errors drive retries and the shard breaker, and
	// panics exercise the backend's panic-to-error conversion.
	PointShardRun = "shard.run"
	// PointMerge fires in the coordinator after the gather, before
	// per-shard results merge into the global answer.
	PointMerge = "shard.merge"

	// PointNetSend fires in the remote shard client before a request
	// leaves for a worker; an error is a send failure (connection
	// refused, partition) before any bytes hit the wire.
	PointNetSend = "shard.net_send"
	// PointNetRecv fires in the remote shard client after a response
	// body has been read, before it is validated; an error models the
	// connection dying mid-response.
	PointNetRecv = "shard.net_recv"
	// PointNetCorrupt fires in the shard worker as each response
	// envelope is written; an error makes the worker flip a byte of the
	// sealed envelope, so the client's checksum validation must catch
	// it — corrupt bytes on the wire, deterministically.
	PointNetCorrupt = "shard.net_corrupt"
	// PointStaleGen fires in the shard worker as each response is
	// stamped; an error makes the worker stamp a wrong dataset
	// generation, simulating a worker restarted onto a different
	// dataset than the coordinator's.
	PointStaleGen = "shard.stale_gen"

	// PointIOWrite .. PointIODirSync fire inside internal/durable's
	// atomic file commit, in commit order: while the payload is written
	// to the *.tmp file, before the file Sync, before the rename onto
	// the final name, and before the parent-directory sync. Together
	// with KindShortWrite and KindCrash they model every place a real
	// crash can interrupt a commit.
	PointIOWrite   = "io.write"
	PointIOSync    = "io.sync"
	PointIORename  = "io.rename"
	PointIODirSync = "io.dirsync"
)

// Kind is the misbehaviour a rule injects.
type Kind uint8

const (
	// KindLatency sleeps for the rule's Delay.
	KindLatency Kind = iota
	// KindError makes Fire return an error wrapping ErrInjected.
	KindError
	// KindPanic panics with a Panic value naming the point.
	KindPanic
	// KindShortWrite makes Fire return an error wrapping ErrShortWrite:
	// IO code interprets it as "the process died mid-write", persisting
	// only a prefix of the payload and abandoning the commit.
	KindShortWrite
	// KindCrash makes Fire return an error wrapping ErrCrash: IO code
	// interprets it as "the process died right here", returning without
	// any cleanup so on-disk state is exactly what a kill would leave.
	KindCrash
)

func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindShortWrite:
		return "shortwrite"
	case KindCrash:
		return "crash"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ErrInjected is the sentinel wrapped by every injected error, so
// callers and tests can tell injected failures from organic ones with
// errors.Is.
var ErrInjected = errors.New("fault: injected error")

// ErrShortWrite marks a KindShortWrite injection (also wraps
// ErrInjected): the commit must behave as if the process died after
// writing only part of the payload.
var ErrShortWrite = errors.New("fault: injected short write")

// ErrCrash marks a KindCrash injection (also wraps ErrInjected): the
// commit must stop dead, leaving on-disk state untouched — no cleanup,
// no rollback — exactly as a kill at that instant would.
var ErrCrash = errors.New("fault: injected crash")

// Panic is the value a KindPanic rule panics with; recovery layers can
// type-assert it to distinguish injected panics from real bugs.
type Panic struct{ Point string }

func (p Panic) String() string { return "fault: injected panic at " + p.Point }

// Rule arms one injection point with one misbehaviour.
type Rule struct {
	// Point is the injection-point name the rule applies to.
	Point string
	// Kind selects the misbehaviour.
	Kind Kind
	// P is the per-Fire firing probability in [0, 1].
	P float64
	// Delay is the sleep for KindLatency rules.
	Delay time.Duration
	// After makes the rule ineligible for its first After draws: with
	// P=1 the rule fires deterministically on exactly the (After+1)-th
	// Fire at its point. Crash-matrix tests use this to walk one
	// injected crash through every commit step of a multi-file
	// operation.
	After uint64

	// seen counts draws made against this rule (eligible or not).
	seen uint64
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s=%s:%g", r.Point, r.Kind, r.P)
	if r.Kind == KindLatency {
		s += ":" + r.Delay.String()
	}
	return s
}

// Registry holds the armed rules and the seeded PRNG. The zero value
// and nil are both valid, permanently-disarmed registries.
type Registry struct {
	armed atomic.Bool

	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string][]Rule
	fired map[string]uint64
}

// New returns a registry whose probability draws derive from seed.
func New(seed int64) *Registry {
	return &Registry{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string][]Rule),
		fired: make(map[string]uint64),
	}
}

// Arm adds a rule. Multiple rules may share a point; each draws
// independently on every Fire.
func (r *Registry) Arm(rule Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules[rule.Point] = append(r.rules[rule.Point], rule)
	r.armed.Store(true)
}

// Clear removes every rule armed at point, leaving its fired count.
func (r *Registry) Clear(point string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.rules, point)
	r.armed.Store(len(r.rules) > 0)
}

// Fire consults the rules for point. It may sleep (latency rule),
// return a non-nil error (error rule) or panic with a Panic value
// (panic rule); usually it does nothing and returns nil. Safe on a nil
// registry.
func (r *Registry) Fire(point string) error {
	if r == nil || !r.armed.Load() {
		return nil
	}
	var sleep time.Duration
	var err error
	r.mu.Lock()
	rules := r.rules[point]
	for i := range rules {
		rule := &rules[i]
		rule.seen++
		if rule.seen <= rule.After {
			continue
		}
		if r.rng.Float64() >= rule.P {
			continue
		}
		r.fired[point]++
		switch rule.Kind {
		case KindLatency:
			sleep += rule.Delay
		case KindError:
			err = fmt.Errorf("%w at %s", ErrInjected, point)
		case KindShortWrite:
			err = fmt.Errorf("%w: %w at %s", ErrInjected, ErrShortWrite, point)
		case KindCrash:
			err = fmt.Errorf("%w: %w at %s", ErrInjected, ErrCrash, point)
		case KindPanic:
			r.mu.Unlock()
			panic(Panic{Point: point})
		}
	}
	r.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	return err
}

// Fired returns how many times rules at point have fired.
func (r *Registry) Fired(point string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired[point]
}

// Counts returns a copy of the per-point fired counters.
func (r *Registry) Counts() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.fired))
	for k, v := range r.fired {
		out[k] = v
	}
	return out
}

// String lists the armed rules in point order.
func (r *Registry) String() string {
	if r == nil {
		return "<disarmed>"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	points := make([]string, 0, len(r.rules))
	for p := range r.rules {
		points = append(points, p)
	}
	sort.Strings(points)
	var parts []string
	for _, p := range points {
		for _, rule := range r.rules[p] {
			parts = append(parts, rule.String())
		}
	}
	if len(parts) == 0 {
		return "<disarmed>"
	}
	return strings.Join(parts, ";")
}

// Parse builds a registry from the -faults flag syntax: clauses
// separated by ';', each either "seed=<int>" or
// "<point>=<kind>:<probability>[:<duration>]" with kind one of
// latency, error, panic, shortwrite, crash. The duration is mandatory
// for latency rules and rejected for the others.
func Parse(spec string) (*Registry, error) {
	seed := int64(1)
	var rules []Rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q: want point=kind:prob[:duration] or seed=N", clause)
		}
		if key == "seed" {
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", val)
			}
			seed = s
			continue
		}
		rule, err := parseRule(key, val)
		if err != nil {
			return nil, err
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: spec %q arms no rules", spec)
	}
	reg := New(seed)
	for _, r := range rules {
		reg.Arm(r)
	}
	return reg, nil
}

func parseRule(point, val string) (Rule, error) {
	parts := strings.Split(val, ":")
	if len(parts) < 2 {
		return Rule{}, fmt.Errorf("fault: %s=%s: want kind:prob[:duration]", point, val)
	}
	rule := Rule{Point: point}
	switch parts[0] {
	case "latency":
		rule.Kind = KindLatency
	case "error":
		rule.Kind = KindError
	case "panic":
		rule.Kind = KindPanic
	case "shortwrite":
		rule.Kind = KindShortWrite
	case "crash":
		rule.Kind = KindCrash
	default:
		return Rule{}, fmt.Errorf("fault: %s: unknown kind %q (want latency, error, panic, shortwrite or crash)", point, parts[0])
	}
	p, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || p < 0 || p > 1 {
		return Rule{}, fmt.Errorf("fault: %s: probability %q not in [0, 1]", point, parts[1])
	}
	rule.P = p
	switch {
	case rule.Kind == KindLatency:
		if len(parts) != 3 {
			return Rule{}, fmt.Errorf("fault: %s: latency rules need a duration, e.g. latency:%g:5ms", point, p)
		}
		d, err := time.ParseDuration(parts[2])
		if err != nil || d <= 0 {
			return Rule{}, fmt.Errorf("fault: %s: bad latency duration %q", point, parts[2])
		}
		rule.Delay = d
	case len(parts) != 2:
		return Rule{}, fmt.Errorf("fault: %s: only latency rules take a duration", point)
	}
	return rule, nil
}
