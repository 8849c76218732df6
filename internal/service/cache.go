package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/harness"
	"repro/internal/tree"
)

// treeCache resolves a submission to its cache-resident tree on two
// levels. The first is the submitted text itself: a SHA-256 of the
// tree literal's bytes as the body carried them, escapes and all, names
// the resident tree that literal last parsed to, so a byte-identical
// resubmission is recognised before it is unquoted or parsed. Equal
// literals unquote to equal texts, so this key is as sound as one over
// the text. A request without a literal (restored, decoded whole, built
// in process) skips the level: with one key form in the table, no text
// can alias another text's literal, and soundness rests on SHA-256
// alone rather than on which texts parse. The second level is the
// parsed content: two submissions with identical node data — whatever
// their line order, comments or source — resolve to the same
// harness.Entry, which memoizes the O(n log n) preparation (memPO +
// peak) and named orders across requests. The artefacts live in the
// entry, so evicting a tree drops them with it, and a request still
// holding an evicted entry computes into garbage, not into the cache.
//
// The content key (cacheKey) is a word-parallel digest of the node
// data, taken on every request that reaches this level; it names
// nothing outside the table. The instance identity that seeds a
// perturbed realisation is a different digest, instanceID's FNV-64a,
// computed only when a request names a perturbation model. A 64-bit key
// can collide in principle, so a content hit additionally verifies full
// content equality and falls back to a miss on mismatch (never serving
// another tree's results); the verification is O(n) but
// allocation-free and far below the cost of the preparation it saves.
// The text level cannot verify without keeping the literal, which is
// why it uses a 256-bit cryptographic digest instead: equal digests are
// equal literals on the standard content-addressing assumption, at 40
// bytes per tree.
//
// Each resident tree has at most one alias — the latest literal that
// resolved to it — and the alias leaves byText in the critical section
// that takes its tree out of byKey, so len(byText) ≤ len(byKey) and an
// alias never resolves to, or pins, a forgotten tree.
//
// Each resident tree also owns one answer slot, the third level, which
// Server.schedule reads and fills; forget drops it with the tree.
type treeCache struct {
	mu       sync.Mutex
	byKey    map[uint64]resident
	byText   map[textDigest]uint64 // text digest → content key of its tree
	max      int                   // entry-count cap
	maxNodes int                   // total-node cap across all resident trees
	nodes    int                   // current total
	hits     int                   // both levels
	textHits int
	misses   int
}

// textDigest is the SHA-256 of an inline tree literal.
type textDigest = [sha256.Size]byte

// resident is one canonical tree, the text alias it currently owns and
// its answer slot.
type resident struct {
	e       *harness.Entry
	text    textDigest
	aliased bool
	answer  *atomic.Pointer[answer]
}

// answer is one stored outcome of schedule — a response or a verdict,
// 5xx included (DESIGN §7) — and the resolved options it answers. Every request it
// answers shares resp and herr, so neither is written once stored.
type answer struct {
	key  answerKey
	resp *Response
	herr *httpError
}

// answerKey is a request's options as schedule resolves them, so an
// omitted default and its explicit spelling share one answer. Orders go
// by name: two requests racing a name's first Entry.Order can hold
// different *order.Order values of the same order.
type answerKey struct {
	heuristic   string
	procs       int
	mem         uint64 // math.Float64bits of the bound
	ao, eo      string
	perturb     string
	perturbSeed uint64 // zero unless perturb names a model
}

// newTreeCache returns an empty cache under the given budgets, which
// Options.withDefaults has already floored.
func newTreeCache(maxEntries, maxNodes int) *treeCache {
	return &treeCache{
		byKey:    make(map[uint64]resident, maxEntries),
		byText:   make(map[textDigest]uint64, maxEntries),
		max:      maxEntries,
		maxNodes: maxNodes,
	}
}

// cacheKey digests the node data of t for byKey: four independent
// multiply-xorshift lanes, one per attribute array, so the multiplies
// of a node overlap where a byte-serial hash chains 28 of them. Each
// lane step is a bijection of the lane for a fixed input word, so two
// trees of one length that differ in a single word never share a key.
func cacheKey(t *tree.Tree) uint64 {
	n := t.Len()
	var p, e, o, d uint64
	for i := 0; i < n; i++ {
		id := tree.NodeID(i)
		p = lane(p, uint64(uint32(t.Parent(id))))
		e = lane(e, math.Float64bits(t.Exec(id)))
		o = lane(o, math.Float64bits(t.Out(id)))
		d = lane(d, math.Float64bits(t.Time(id)))
	}
	return lane(lane(lane(lane(lane(0, uint64(n)), p), e), o), d)
}

// lane folds the word v into the lane h.
func lane(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// instanceID is the tree's identity as perturb.Seed reads it: an
// FNV-64a over the node count, parents and the bit patterns of the
// attributes, in hex. Every perturbed answer depends on its value, so
// it stays byte-serial FNV; it is computed only for a request that
// names a perturbation model.
func instanceID(t *tree.Tree) string {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put32(int32(t.Len()))
	for i := 0; i < t.Len(); i++ {
		id := tree.NodeID(i)
		put32(int32(t.Parent(id)))
		putF(t.Exec(id))
		putF(t.Out(id))
		putF(t.Time(id))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sameContent reports whether a and b describe identical trees.
func sameContent(a, b *tree.Tree) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		id := tree.NodeID(i)
		if a.Parent(id) != b.Parent(id) ||
			a.Exec(id) != b.Exec(id) ||
			a.Out(id) != b.Out(id) ||
			a.Time(id) != b.Time(id) {
			return false
		}
	}
	return true
}

// knows reports whether d is a text alias, without counting a hit.
func (c *treeCache) knows(d textDigest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byText[d]
	return ok
}

// byTextDigest returns the resident tree that the literal with digest d
// last parsed to (a hit on both counters).
func (c *treeCache) byTextDigest(d textDigest) (r resident, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, ok := c.byText[d]
	if !ok {
		return resident{}, false
	}
	c.hits++
	c.textHits++
	return c.byKey[key], true
}

// canonical returns the cache-resident tree with t's content (a hit,
// counting one) or inserts t as the new canonical instance (a miss,
// evicting an arbitrary entry — and its memoized artefacts — when the
// cache is full). A non-nil text is the digest of the literal t was
// parsed from and validated: it becomes the resident tree's one alias,
// replacing any earlier one.
func (c *treeCache) canonical(t *tree.Tree, text *textDigest) resident {
	key := cacheKey(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	r, collided := c.byKey[key]
	if collided && sameContent(r.e.Tree(), t) {
		c.hits++
	} else {
		c.misses++
		r = c.insert(key, t, collided)
	}
	if text != nil {
		if r.aliased {
			delete(c.byText, r.text)
		}
		r.text, r.aliased = *text, true
		c.byKey[key] = r
		c.byText[*text] = key
	}
	return r
}

// insert makes t the resident tree under key, whose previous holder (a
// digest collision) it replaces. The caller holds c.mu.
func (c *treeCache) insert(key uint64, t *tree.Tree, collided bool) resident {
	if collided {
		c.forget(key)
	}
	// Evict until both budgets hold — the entry count and the total node
	// count, which bounds resident memory when every entry is large.
	for len(c.byKey) > 0 && (len(c.byKey) >= c.max || c.nodes+t.Len() > c.maxNodes) {
		for k := range c.byKey {
			c.forget(k)
			break
		}
	}
	r := resident{e: harness.NewEntry(t), answer: new(atomic.Pointer[answer])}
	c.byKey[key] = r
	c.nodes += t.Len()
	return r
}

// forget takes the tree under key out of the cache together with its
// alias and — they live in its resident entry — its answer slot and
// memoized artefacts: the one place a tree leaves byKey, so no alias or
// answer can outlive its tree. The caller holds c.mu.
func (c *treeCache) forget(key uint64) {
	r := c.byKey[key]
	delete(c.byKey, key)
	if r.aliased {
		delete(c.byText, r.text)
	}
	c.nodes -= r.e.Tree().Len()
}

// fill copies the cache's counters and gauges into st.
func (c *treeCache) fill(st *Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st.CacheHits, st.CacheTextHits, st.CacheMisses = c.hits, c.textHits, c.misses
	st.CachedTrees, st.CachedNodes = len(c.byKey), c.nodes
}
