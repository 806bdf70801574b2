package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// A span is one interval at a layer boundary, recorded by the harness
// around a call into the program (or derived from the PhaseStats the
// program returned). Spans of one query share Query; Parent is the ID
// of the span that caused this one, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int64  `json:"query_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return ms(time.Duration(s.End - s.Start)) }

// Span IDs are query*spanSlots + a fixed slot per span name, so a child
// can name its parent without the two sides exchanging IDs.
const (
	spanSlots = 16

	slotClient  = 1 // client.request (serve) — the root of a served query
	slotHandler = 2 // server.handler, child of client.request
	slotQuery   = 3 // core.query, the root of a one-shot query
	slotBuild   = 4 // core.engine_build, child of core.query
	slotCall    = 5 // core.query_call (QueryTopK), child of core.query
	slotPhase0  = 6 // first of the five derived phase spans
)

var phaseSpanNames = [5]string{
	"core.label_input", "core.grid_mapping", "core.lower_bounding",
	"core.upper_bounding", "core.verification",
}

// queryHeader carries the query id of a traced request to the
// middleware; a request without it is served untraced.
const queryHeader = "X-Perf-Query"

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func spanID(query int64, slot int) int64 { return query*spanSlots + int64(slot) }

func (r *recorder) add(query int64, slot, parentSlot int, name string, start, end time.Time) {
	s := span{
		ID: spanID(query, slot), Query: query, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	}
	if parentSlot != 0 {
		s.Parent = spanID(query, parentSlot)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addPhases lays the five phase durations the program reported end to
// end from start, as derived children of the span in parentSlot.
func (r *recorder) addPhases(query int64, parentSlot int, start time.Time, phases [5]time.Duration) {
	for i, d := range phases {
		end := start.Add(d)
		r.add(query, slotPhase0+i, parentSlot, phaseSpanNames[i], start, end)
		start = end
	}
}

// middleware records a server.handler span around next for every
// request that carries queryHeader.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		raw := req.Header.Get(queryHeader)
		if raw == "" {
			next.ServeHTTP(w, req)
			return
		}
		query, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad "+queryHeader, http.StatusBadRequest)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		r.add(query, slotHandler, slotClient, "server.handler", start, time.Now())
	})
}

// durations returns, per query id, the duration in ms of its span
// called name.
func (r *recorder) durations(name string) map[int64]float64 {
	out := make(map[int64]float64)
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Query] = s.ms()
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
