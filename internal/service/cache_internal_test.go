package service

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"
)

// checkAliases asserts the alias table's invariants under the cache
// lock: no more aliases than trees, every alias names a resident tree
// that owns exactly that alias, and the node gauge matches the trees.
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
	for key, r := range c.byKey {
		nodes += r.e.Tree().Len()
		if r.aliased {
			aliased++
			if c.byText[r.text] != key {
				return fmt.Errorf("tree %016x owns alias %x, which byText does not hold for it", key, r.text[:4])
			}
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
// twice in a row, from 4 clients at once. After every request the alias
// table must be consistent with the resident set, and every text of a
// tree must get that tree's response. Run under -race in CI.
func TestAliasNeverOutlivesItsTree(t *testing.T) {
	const trees, clients = 64, 4
	s := New(&Options{MaxCachedTrees: 4})
	defer s.CloseStreams()
	ref := New(nil) // sees each tree once, as written: no alias is ever used
	defer ref.CloseStreams()
	texts := make([][]string, trees)
	want := make([]*Response, trees)
	for i := range texts {
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
		texts[i] = []string{
			plain,
			"# resubmitted\n" + plain + "\n# end\n",
			strings.ReplaceAll(plain, "\n", "  \r\n"),
			strings.Join(reversed, "\n"),
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
				for v, text := range texts[i] {
					for rep := 0; rep < 2; rep++ {
						resp, herr := s.schedule(&Request{Tree: text})
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

// TestEvictionDropsArtefacts holds an evicted tree's entry the way a
// request racing the eviction does, and stores artefacts into it late.
// Nothing of the evicted tree may be reachable from the cache
// afterwards, and the gauges must describe exactly the resident trees.
func TestEvictionDropsArtefacts(t *testing.T) {
	s := New(&Options{MaxCachedTrees: 1})
	defer s.CloseStreams()
	held, _, herr := s.resolve(&Request{Synthetic: &SyntheticSpec{Seed: 1, Nodes: 300}})
	if herr != nil {
		t.Fatalf("%+v", herr)
	}
	next, _, herr := s.resolve(&Request{Synthetic: &SyntheticSpec{Seed: 2, Nodes: 200}})
	if herr != nil {
		t.Fatalf("%+v", herr)
	}
	// The late stores: the preparation and a named order.
	if pr := held.Prepare(); pr.AO == nil {
		t.Fatal("evicted entry no longer prepares")
	}
	if _, err := held.Order("CP"); err != nil {
		t.Fatal(err)
	}
	s.cache.mu.Lock()
	for key, r := range s.cache.byKey {
		if r.e == held || r.e.Tree() == held.Tree() {
			t.Errorf("key %016x still reaches the evicted tree", key)
		}
		if r.e != next {
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
	// The evicted content comes back as a miss with a fresh entry.
	again, _, herr := s.resolve(&Request{Synthetic: &SyntheticSpec{Seed: 1, Nodes: 300}})
	if herr != nil {
		t.Fatalf("%+v", herr)
	}
	if again == held {
		t.Error("the evicted entry was served again")
	}
	if st := s.Stats(); st.CacheMisses != 3 || st.CacheHits != 0 || st.CachedTrees != 1 || st.CachedNodes != 300 {
		t.Errorf("after resubmitting the evicted tree: %+v", st)
	}
}
