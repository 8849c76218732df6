package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"
)

// checkAliases asserts the alias table's invariants under the cache
// lock: no more aliases than trees, every alias names a resident tree
// that owns exactly that alias, and the node gauge matches the trees.
// It holds the answer slots to their trees the same way: every resident
// tree owns a slot no other tree shares, and an answer in it is about
// that tree, so no answer outlives its tree or is reachable from another.
func checkAliases(c *treeCache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.byText) > len(c.byKey) {
		return fmt.Errorf("%d aliases for %d trees", len(c.byText), len(c.byKey))
	}
	for d, key := range c.byText {
		r, ok := c.byKey[key]
		if !ok {
			return fmt.Errorf("alias %x names key %016x, which holds no tree", d[:4], key)
		}
		if !r.aliased || r.text != d {
			return fmt.Errorf("alias %x names key %016x, whose tree owns alias %x (aliased %v)", d[:4], key, r.text[:4], r.aliased)
		}
	}
	nodes, aliased := 0, 0
	slots := make(map[*atomic.Pointer[answer]]bool, len(c.byKey))
	for key, r := range c.byKey {
		nodes += r.e.Tree().Len()
		if r.aliased {
			aliased++
			if c.byText[r.text] != key {
				return fmt.Errorf("tree %016x owns alias %x, which byText does not hold for it", key, r.text[:4])
			}
		}
		if r.answer == nil || slots[r.answer] {
			return fmt.Errorf("tree %016x has no answer slot of its own", key)
		}
		slots[r.answer] = true
		if a := r.answer.Load(); a != nil && a.resp != nil && a.resp.Nodes != r.e.Tree().Len() {
			return fmt.Errorf("tree %016x of %d nodes holds an answer about %d nodes", key, r.e.Tree().Len(), a.resp.Nodes)
		}
	}
	if aliased != len(c.byText) {
		return fmt.Errorf("%d trees own an alias, byText holds %d", aliased, len(c.byText))
	}
	if nodes != c.nodes {
		return fmt.Errorf("resident trees total %d nodes, the gauge says %d", nodes, c.nodes)
	}
	return nil
}

// TestAliasNeverOutlivesItsTree churns a 4-tree cache with 64 distinct
// trees, each submitted as four texts of the same content (as written,
// re-commented, CRLF with trailing blanks, lines reversed) and each text
// twice in a row, from 4 clients at once. Each request is decoded from
// its marshalled body against the live cache, as the handler does, so a
// literal known at decode may lose its alias before it is resolved.
// After every request the alias table must be consistent with the
// resident set, and every text of a tree must get that tree's response.
// Run under -race in CI.
func TestAliasNeverOutlivesItsTree(t *testing.T) {
	const trees, clients = 64, 4
	s := New(&Options{MaxCachedTrees: 4})
	defer s.CloseStreams()
	ref := New(nil) // sees each tree once, as written: no alias is ever used
	defer ref.CloseStreams()
	bodies := make([][][]byte, trees)
	want := make([]*Response, trees)
	for i := range bodies {
		tr := workload.MustSynthetic(workload.NewRNG(uint64(900+i)), workload.SyntheticOptions{Nodes: 20 + i})
		var buf bytes.Buffer
		if err := tree.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		plain := buf.String()
		lines := strings.Split(strings.TrimSuffix(plain, "\n"), "\n")
		reversed := make([]string, len(lines))
		for k, l := range lines {
			reversed[len(lines)-1-k] = l
		}
		for _, text := range []string{
			plain,
			"# resubmitted\n" + plain + "\n# end\n",
			strings.ReplaceAll(plain, "\n", "  \r\n"),
			strings.Join(reversed, "\n"),
		} {
			body, err := json.Marshal(Request{Tree: text})
			if err != nil {
				t.Fatal(err)
			}
			bodies[i] = append(bodies[i], body)
		}
		resp, herr := ref.schedule(&Request{Tree: plain})
		if herr != nil {
			t.Fatalf("tree %d: %+v", i, herr)
		}
		want[i] = resp
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < trees; k++ {
				// Neighbouring clients overlap on some trees and evict each
				// other's on the rest.
				i := (c*trees/clients/2 + k) % trees
				for v, body := range bodies[i] {
					for rep := 0; rep < 2; rep++ {
						req, err := decodeBody(body, s.cache.knows)
						if err != nil {
							t.Errorf("client %d tree %d text %d: %v", c, i, v, err)
							return
						}
						resp, herr := s.schedule(req)
						if herr != nil {
							t.Errorf("client %d tree %d text %d: %+v", c, i, v, herr)
							return
						}
						if !reflect.DeepEqual(resp, want[i]) {
							t.Errorf("client %d tree %d text %d: got %+v, want %+v", c, i, v, resp, want[i])
							return
						}
						if err := checkAliases(s.cache); err != nil {
							t.Errorf("client %d after tree %d text %d: %v", c, i, v, err)
							return
						}
						if st := s.Stats(); st.CachedTrees > 4 {
							t.Errorf("cache grew to %d trees", st.CachedTrees)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	s.cache.mu.Lock()
	nodes := s.cache.nodes
	s.cache.mu.Unlock()
	if st.CachedNodes != nodes {
		t.Fatalf("Stats().CachedNodes = %d, cache holds %d", st.CachedNodes, nodes)
	}
	// Every request is a miss or a hit; a text posted twice in a row is
	// recognised the second time unless another client evicted its tree
	// in between, so text hits must be common, and content-only hits (a
	// new text of a resident tree, which moves the alias) must occur.
	total := clients * trees * 4 * 2
	if st.CacheHits+st.CacheMisses != total {
		t.Fatalf("hits %d + misses %d != %d requests", st.CacheHits, st.CacheMisses, total)
	}
	if st.CacheTextHits < total/4 || st.CacheHits == st.CacheTextHits {
		t.Fatalf("text hits %d of %d hits over %d requests: the alias paths were not exercised", st.CacheTextHits, st.CacheHits, total)
	}
}

// TestOneTextTwoLiterals posts one tree as two literals that unquote
// to the same text — the second writes a comment's / as \/ — and then
// the first again. The text level keys the literal, so the second and
// third posts miss it and are content hits, each moving the tree's one
// alias to the literal just posted; all three answers are the same
// bytes, and the alias table stays consistent after every post.
func TestOneTextTwoLiterals(t *testing.T) {
	s := New(nil)
	t.Cleanup(s.CloseStreams)
	h := s.Handler()
	first := `{"tree":"# a/b\n0 -1 1 2 1\n1 0 1 1 3\n"}`
	second := strings.Replace(first, "a/b", `a\/b`, 1)
	var answer []byte
	for i, body := range []string{first, second, first} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("post %d: %d %s", i+1, rec.Code, rec.Body)
		}
		if answer == nil {
			answer = rec.Body.Bytes()
		} else if !bytes.Equal(rec.Body.Bytes(), answer) {
			t.Fatalf("post %d answered %s, the first %s", i+1, rec.Body, answer)
		}
		if err := checkAliases(s.cache); err != nil {
			t.Fatalf("after post %d: %v", i+1, err)
		}
		lit := body[len(`{"tree":"`) : len(body)-len(`"}`)]
		s.cache.mu.Lock()
		_, aliased := s.cache.byText[sha256.Sum256([]byte(lit))]
		aliases := len(s.cache.byText)
		s.cache.mu.Unlock()
		if !aliased || aliases != 1 {
			t.Fatalf("after post %d: %d aliases, the literal just posted among them: %v", i+1, aliases, aliased)
		}
		st := s.Stats()
		if st.CacheMisses != 1 || st.CacheHits != i || st.CacheTextHits != 0 {
			t.Fatalf("after post %d: misses/hits/text hits = %d/%d/%d, want 1/%d/0",
				i+1, st.CacheMisses, st.CacheHits, st.CacheTextHits, i)
		}
	}
}

// TestEvictionDropsArtefacts holds an evicted tree's entry the way a
// request racing the eviction does, and stores artefacts into it late:
// the preparation, a named order, and an answer filed under a real
// request's options but wrong on purpose. Nothing of the evicted tree
// may be reachable from the cache afterwards, the gauges must describe
// exactly the resident trees, and re-posting that request must miss on
// every level and answer what a fresh server answers.
func TestEvictionDropsArtefacts(t *testing.T) {
	s := New(&Options{MaxCachedTrees: 1})
	defer s.CloseStreams()
	ref := New(nil)
	defer ref.CloseStreams()
	req := &Request{Synthetic: &SyntheticSpec{Seed: 1, Nodes: 300}}
	want, herr := ref.schedule(req)
	if herr != nil {
		t.Fatalf("%+v", herr)
	}
	stored, _ := ref.resolve(req)
	orig := stored.answer.Load()
	if orig == nil {
		t.Fatal("the reference server stored no answer")
	}

	held, herr := s.resolve(req)
	if herr != nil {
		t.Fatalf("%+v", herr)
	}
	next, herr := s.resolve(&Request{Synthetic: &SyntheticSpec{Seed: 2, Nodes: 200}})
	if herr != nil {
		t.Fatalf("%+v", herr)
	}
	// The late stores: the preparation, a named order and the answer.
	if pr := held.e.Prepare(); pr.AO == nil {
		t.Fatal("evicted entry no longer prepares")
	}
	if _, err := held.e.Order("CP"); err != nil {
		t.Fatal(err)
	}
	held.answer.Store(&answer{key: orig.key, resp: &Response{Makespan: -1}})
	s.cache.mu.Lock()
	for key, r := range s.cache.byKey {
		if r.e == held.e || r.e.Tree() == held.e.Tree() || r.answer == held.answer {
			t.Errorf("key %016x still reaches the evicted tree", key)
		}
		if r.e != next.e {
			t.Errorf("key %016x holds an entry no request resolved to", key)
		}
	}
	s.cache.mu.Unlock()
	if err := checkAliases(s.cache); err != nil {
		t.Error(err)
	}
	if st := s.Stats(); st.CachedTrees != 1 || st.CachedNodes != 200 {
		t.Errorf("CachedTrees %d, CachedNodes %d after the eviction; want 1 and 200", st.CachedTrees, st.CachedNodes)
	}
	// The evicted content comes back as a miss with a fresh entry and an
	// empty answer slot, so the re-post is evaluated again.
	got, herr := s.schedule(req)
	if herr != nil {
		t.Fatalf("%+v", herr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-post after the eviction answered %+v, a fresh server %+v", got, want)
	}
	if st := s.Stats(); st.CacheMisses != 3 || st.CacheHits != 0 || st.CacheAnswerHits != 0 || st.CachedTrees != 1 || st.CachedNodes != 300 {
		t.Errorf("after resubmitting the evicted tree: %+v", st)
	}
	again, herr := s.resolve(req)
	if herr != nil {
		t.Fatalf("%+v", herr)
	}
	if again.e == held.e || again.answer == held.answer {
		t.Error("the evicted entry was served again")
	}
}

// The instance identity seeds every perturbed realisation, so its value
// is part of every perturbed answer: pinned here on one fixed tree.
func TestInstanceIDPinned(t *testing.T) {
	tr, err := tree.ParseLimited("0 -1 1 2 1\n1 0 1 1 3\n2 0 0.5 0.25 2\n", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := instanceID(tr), "46ffb92b50e265da"; got != want {
		t.Errorf("instanceID = %s, want %s: every perturbation seed would drift", got, want)
	}
}

// cacheKey allocates nothing and tells apart 200 trees: 50 synthetic
// trees and, for each, three near twins — one exec value an ulp away,
// exec and out swapped, and the last node moved to another parent.
func TestCacheKeyDistinct(t *testing.T) {
	keys := make(map[uint64]*tree.Tree)
	add := func(tr *tree.Tree) {
		k := cacheKey(tr)
		if prev, ok := keys[k]; ok {
			t.Errorf("key %016x shared by two trees of %d and %d nodes (same content %v)",
				k, prev.Len(), tr.Len(), sameContent(prev, tr))
		}
		keys[k] = tr
	}
	for seed := 0; seed < 50; seed++ {
		base := workload.MustSynthetic(workload.NewRNG(uint64(seed)), workload.SyntheticOptions{Nodes: 20 + 7*seed})
		n := base.Len()
		p, e, o, d := make([]tree.NodeID, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range p {
			id := tree.NodeID(i)
			p[i], e[i], o[i], d[i] = base.Parent(id), base.Exec(id), base.Out(id), base.Time(id)
		}
		add(base)
		nudged := slices.Clone(e)
		nudged[seed%n] = math.Nextafter(nudged[seed%n], math.Inf(1))
		add(tree.MustNew(p, nudged, o, d))
		add(tree.MustNew(p, o, e, d))
		moved := slices.Clone(p)
		if moved[n-1] = 0; p[n-1] == 0 {
			moved[n-1] = 1
		}
		add(tree.MustNew(moved, e, o, d))
	}
	if len(keys) != 200 {
		t.Fatalf("%d distinct keys over the 200-tree corpus", len(keys))
	}
	tr := workload.MustSynthetic(workload.NewRNG(1), workload.SyntheticOptions{Nodes: 1000})
	if allocs := testing.AllocsPerRun(10, func() { cacheKey(tr) }); allocs != 0 {
		t.Errorf("cacheKey allocates %.0f times per call, want 0", allocs)
	}
}

// answerHitAllocs is the allocation count of one answer-slot hit of req
// through schedule, after a first evaluation fills the slot.
func answerHitAllocs(t *testing.T, s *Server, req *Request) float64 {
	t.Helper()
	if _, herr := s.schedule(req); herr != nil {
		t.Fatalf("%d %s", herr.status, herr.body.Error)
	}
	hits := s.answerHits.Load()
	allocs := testing.AllocsPerRun(20, func() { s.schedule(req) })
	if got := s.answerHits.Load() - hits; got != 21 {
		t.Fatalf("%d answer hits in 21 calls", got)
	}
	return allocs
}

// A warm inline request — a known literal whose answer is stored, the
// svc_inline_warm path — allocates nothing through schedule's stages.
func TestWarmAnswerHitAllocatesNothing(t *testing.T) {
	s := New(nil)
	t.Cleanup(s.CloseStreams)
	_, text := inlineBody(t, 1000)
	body, err := json.Marshal(Request{Tree: text, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if req, err := decodeBody(body, s.cache.knows); err != nil || req.lit != nil {
		t.Fatalf("first decode: %v, literal carried %v", err, err == nil && req.lit != nil)
	} else if _, herr := s.schedule(req); herr != nil {
		t.Fatal(herr.body.Error)
	}
	req, err := decodeBody(body, s.cache.knows)
	if err != nil || req.lit == nil {
		t.Fatalf("second decode: %v, want the literal known", err)
	}
	if allocs := answerHitAllocs(t, s, req); allocs != 0 {
		t.Errorf("a warm inline answer hit allocates %.0f times, want 0", allocs)
	}
}

// A perturbed answer hit finds its model without building the default
// grid, so it allocates no more than the same request unperturbed (a
// synthetic spec regenerates its tree on every request, so neither is 0).
func TestPerturbedHitAllocatesAsUnperturbed(t *testing.T) {
	s := New(nil)
	t.Cleanup(s.CloseStreams)
	spec := &SyntheticSpec{Seed: 1, Nodes: 1000}
	plain := answerHitAllocs(t, s, &Request{Synthetic: spec})
	perturbed := answerHitAllocs(t, s, &Request{Synthetic: spec, Perturb: "lognormal(0.3)", PerturbSeed: 5})
	if perturbed > plain {
		t.Errorf("a perturbed answer hit allocates %.0f times, the unperturbed one %.0f", perturbed, plain)
	}
}

// BenchmarkContentKey times the cache key and the instance identity on
// a 10k-node tree: the first runs on every request that reaches the
// content level, the second only on a perturbed evaluation.
func BenchmarkContentKey(b *testing.B) {
	tr := workload.MustSynthetic(workload.NewRNG(7), workload.SyntheticOptions{Nodes: 10000})
	b.Run("cacheKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keySink = cacheKey(tr)
		}
	})
	b.Run("instanceID", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idSink = instanceID(tr)
		}
	})
}

var (
	keySink uint64
	idSink  string
)
