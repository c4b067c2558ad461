package service

import (
	"container/list"
	"sync"

	"sdcgmres/internal/core"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/vec"
)

const (
	// problemCacheBytes bounds an engine's problem cache: every cached
	// matrix, right-hand side and recorded inner result counts against it.
	problemCacheBytes = 64 << 20
	// problemSeenKeys bounds the keys of problems seen once; the set
	// starts afresh when full.
	problemSeenKeys = 1024
)

// problem is one built system A x = b with b = A·1, plus the longest
// failure-free record (see core.Replay) per inner configuration that jobs
// on it have published.
type problem struct {
	key  string // matrixKey of the spec it was built from
	name string
	a    *sparse.CSR
	b    []float64
	// records and bytes are guarded by the owning cache's mutex.
	records map[core.ReplayKey]*core.Replay
	bytes   int64
}

// buildProblem materializes a validated matrix spec and its right-hand
// side.
func buildProblem(m MatrixSpec) (*problem, error) {
	a, name, err := BuildMatrix(m)
	if err != nil {
		return nil, err
	}
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))
	return &problem{
		name:    name,
		a:       a,
		b:       b,
		records: map[core.ReplayKey]*core.Replay{},
		// CSR row pointers, column indices and values, then b.
		bytes: int64(8*(a.Rows()+1) + 16*a.NNZ() + 8*len(b)),
	}, nil
}

// stepBytes is what one recorded inner solve costs: its z.
func (p *problem) stepBytes() int64 { return int64(8 * len(p.b)) }

// problemCache keeps built problems across an engine's jobs, so that jobs
// skip the matrix build and FT-GMRES jobs replay the inner solves earlier
// jobs on the same problem recorded (prefix replay). Only jobs that share
// a matrix gain, so a problem is cached on its second miss: traffic whose
// problems do not repeat keeps no matrix resident and records nothing.
// The cache holds at most budget bytes and evicts the least recently used
// problem first; a problem larger than the budget is built per job. A nil
// cache builds every problem afresh and publishes nothing. Safe for
// concurrent use.
type problemCache struct {
	m      *Metrics
	budget int64

	mu    sync.Mutex
	used  int64
	lru   list.List // of *problem, most recently used first
	byKey map[string]*list.Element
	seen  map[string]bool // keys built once and not cached
}

func newProblemCache(m *Metrics, budget int64) *problemCache {
	return &problemCache{m: m, budget: budget, byKey: map[string]*list.Element{}, seen: map[string]bool{}}
}

// get returns the problem a matrix spec describes, building it on a miss
// and caching it on the second. A build that fails or panics caches
// nothing.
func (c *problemCache) get(m MatrixSpec) (*problem, error) {
	if c == nil {
		return buildProblem(m)
	}
	key := matrixKey(m)
	if p := c.lookup(key); p != nil {
		c.m.ProblemCacheHits.Inc()
		return p, nil
	}
	c.m.ProblemCacheMisses.Inc()
	p, err := buildProblem(m)
	if err != nil {
		return nil, err
	}
	p.key = key
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Built concurrently by another job: share its matrix, since a
		// record applies only to the matrix it was made on.
		c.lru.MoveToFront(el)
		return el.Value.(*problem), nil
	}
	if !c.seen[key] {
		if len(c.seen) == problemSeenKeys {
			clear(c.seen)
		}
		c.seen[key] = true
		return p, nil
	}
	delete(c.seen, key)
	if p.bytes <= c.budget {
		c.evict(c.budget - p.bytes)
		c.byKey[key] = c.lru.PushFront(p)
		c.used += p.bytes
	}
	return p, nil
}

// lookup returns the cached problem under key, marking it most recently
// used, or nil.
func (c *problemCache) lookup(key string) *problem {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*problem)
}

// recording returns the longest record published for p under an inner
// configuration (nil when there is none) and how many steps a job's own
// record may hold: as many as commit could keep, given what is left of
// the budget, and 0 when p is not cached, so that no job copies inner
// results the cache would refuse.
func (c *problemCache) recording(p *problem, k core.ReplayKey) (*core.Replay, int) {
	if c == nil {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := p.records[k]
	if el, ok := c.byKey[p.key]; !ok || el.Value != p {
		return old, 0
	}
	return old, old.Len() + int((c.budget-p.bytes)/p.stepBytes())
}

// commit accounts a successful FT-GMRES job on p: it counts the inner
// solves the job replayed and offers the job's record. The record is kept
// when it is longer than the stored one and p is still cached; other
// problems are evicted if the budget needs room.
func (c *problemCache) commit(p *problem, k core.ReplayKey, r *core.Replay, replayed int) {
	if c == nil {
		return
	}
	c.m.InnerReplayed.Add(int64(replayed))
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[p.key]
	if !ok || el.Value != p {
		return // evicted, or too large to cache
	}
	old := p.records[k]
	grow := int64(r.Len()-old.Len()) * p.stepBytes()
	if grow <= 0 || p.bytes+grow > c.budget {
		return
	}
	p.records[k] = r
	p.bytes += grow
	c.used += grow
	c.lru.MoveToFront(el)
	c.evict(c.budget)
}

// evict drops least recently used problems until at most limit bytes are
// in use. Callers hold c.mu.
func (c *problemCache) evict(limit int64) {
	for c.used > limit {
		el := c.lru.Back()
		p := el.Value.(*problem)
		c.lru.Remove(el)
		delete(c.byKey, p.key)
		c.used -= p.bytes
	}
}
