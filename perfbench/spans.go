package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdcgmres/internal/trace"
)

// span is one timed call into a layer. Spans of one unit or job share
// Key (the unit ID or the job's correlation ID); Parent links a span to
// the span that caused it (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name up to its first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps a traced run's spans in memory until the run ends. The nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a reserved ID (0 reserves one) and
// returns the ID.
func (t *tracer) add(id, parent int64, name, key string, start, end time.Time) int64 {
	return t.addNS(id, parent, name, key, start.UnixNano(), end.UnixNano())
}

func (t *tracer) addNS(id, parent int64, name, key string, start, end int64) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: start, End: end})
	t.mu.Unlock()
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// addEvents turns a program recorder's start/end event pairs into spans:
// unit-start/unit-end become "unit.exec" spans keyed by unit ID under
// parent, solve-start/solve-end a "core.solve" span under parent, and
// inner-start/inner-end "core.inner" spans under that solve. key labels
// the solve spans (unit spans carry their own unit ID).
func (t *tracer) addEvents(events []trace.Event, parent int64, key string) {
	if t == nil {
		return
	}
	units := map[string]int64{}
	var solveID int64
	var solveStart, innerStart int64
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindUnitStart:
			units[ev.Label] = ev.T
		case trace.KindUnitEnd:
			if s, ok := units[ev.Label]; ok {
				t.addNS(0, parent, "unit.exec", ev.Label, s, ev.T)
				delete(units, ev.Label)
			}
		case trace.KindSolveStart:
			solveID, solveStart = t.id(), ev.T
		case trace.KindSolveEnd:
			if solveID != 0 {
				t.addNS(solveID, parent, "core.solve", key, solveStart, ev.T)
			}
			solveID = 0
		case trace.KindInnerStart:
			innerStart = ev.T
		case trace.KindInnerEnd:
			if solveID != 0 && innerStart != 0 {
				t.addNS(0, solveID, "core.inner", key, innerStart, ev.T)
			}
			innerStart = 0
		}
	}
}

// selfTimes reports each layer's self time per unit: a span's duration
// minus the part of it its children cover, summed over the layer's spans.
func (t *tracer) selfTimes(units int, ms metricSet) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		d := s.End - s.Start - covered(s, children[s.ID])
		self[s.layer()] += float64(d) / float64(time.Millisecond)
		count[s.layer()]++
	}
	for _, l := range spanLayers {
		ms.set("self."+l+"_ms_per_unit", ratio(self[l], float64(units)), count[l])
	}
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write stores the run's stamp and every span as JSON lines.
func (t *tracer) write(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(st); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
