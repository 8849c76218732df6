package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"
)

// inlineBody is a json.Marshal-ed request carrying a synthetic tree of
// the given size as inline text, and that text.
func inlineBody(t testing.TB, nodes int) ([]byte, string) {
	t.Helper()
	var text strings.Builder
	tr := workload.MustSynthetic(workload.NewRNG(7), workload.SyntheticOptions{Nodes: nodes})
	if err := tree.Write(&text, tr); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(Request{Tree: text.String(), Procs: 4, Heuristic: "MemBooking", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return body, text.String()
}

// never and always stand for a cache that knows no tree literal and
// one that knows every literal.
func never(textDigest) bool  { return false }
func always(textDigest) bool { return true }

// checkDecodeAgrees fails unless decodeBody and the whole-body decode
// both fail with the same message, or both return equal requests once
// the tree is materialised as text. A body whose literal decodeBody
// lifted is decoded a second time with the literal reported known, as
// a cache that has seen it would: that decode must carry the literal
// instead of unquoting it, and agree all the same.
func checkDecodeAgrees(t *testing.T, body []byte) {
	t.Helper()
	want, werr := decodeWhole(bytes.NewReader(body))
	got, gerr := decodeBody(body, never)
	checkAgrees(t, body, got, gerr, want, werr)
	if gerr != nil || got.litKey == nil {
		return
	}
	known, kerr := decodeBody(body, always)
	if kerr == nil && (known.Tree != "" || known.lit == nil) {
		t.Fatalf("body %q: a known literal was unquoted at decode", body)
	}
	checkAgrees(t, body, known, kerr, want, werr)
}

func checkAgrees(t *testing.T, body []byte, got *Request, gerr error, want *Request, werr error) {
	t.Helper()
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("body %q: decodeBody error %v, whole-body decode error %v", body, gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("body %q: decodeBody error %q, whole-body decode error %q", body, gerr, werr)
	case gerr == nil && !reflect.DeepEqual(got.withText(), *want):
		t.Fatalf("body %q: decodeBody %+v, whole-body decode %+v", body, got, want)
	}
}

// FuzzDecodeBody is the differential check of the tree pre-pass: for
// any bytes, decodeBody and the whole-body encoding/json decode agree.
// Each input is tried as a body and as the tree text of a marshalled
// request.
func FuzzDecodeBody(f *testing.F) {
	for _, body := range decodeCorpus() {
		if len(body) < 4096 {
			f.Add([]byte(body))
		}
	}
	for _, req := range []Request{
		{Tree: "0 -1 1 2 1\n1 0 1 1 3\n"},
		{Tree: "# c\t<&>\n0 -1 1 1 1\r\n", Procs: 3, Heuristic: "Activation", AO: "memPO", EO: "CP"},
		{Tree: "# \\ \"q\" \x7f é\n0 -1 1 1 1\n", Mem: 7.5, Trace: true, Deadline: 1.5},
		{Tree: "0 -1 1 1 1\n", Perturb: "lognormal(0.3)", PerturbSeed: 9, MemFactor: 1.5},
		{Synthetic: &SyntheticSpec{Seed: 1, Nodes: 5}},
		{Tree: "0 -1 1 1 1\n", Grid2D: &GridSpec{N: 3}},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAgrees(t, body)
		wrapped, err := json.Marshal(Request{Tree: string(body), Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeAgrees(t, wrapped)
	})
}

// A json.Marshal-ed inline body — what every client library sends —
// takes the fast path, and decoding it allocates little beyond the
// tree text itself (the whole-body decode allocates about 5.5× the
// body).
func TestInlineBodyTakesFastPath(t *testing.T) {
	body, text := inlineBody(t, 10000)
	rest, lit, ok := liftTree(body)
	if !ok {
		t.Fatal("liftTree gave up on a json.Marshal-ed inline body")
	}
	if got, ok := unquoteTree(lit); !ok || got != text {
		t.Fatal("liftTree's literal does not unquote to the marshalled tree text")
	}
	if len(rest) > 200 {
		t.Fatalf("rest is %d bytes, want the body without its tree: %s", len(rest), rest)
	}
	checkDecodeAgrees(t, body)

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := decodeBody(body, never); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured runs.
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if limit := 1.2 * float64(len(body)); perRun > limit {
		t.Errorf("decoding a %d-byte inline body allocates %.0f bytes (%.0f allocations), want ≤ %.0f",
			len(body), perRun, allocs, limit)
	}
}

// A literal the cache knows is never unquoted at decode: decoding a
// known 10k-node body allocates the rest of the body, the Request and
// the digest, and no copy of the 600 kB text.
func TestKnownLiteralIsNotMaterialised(t *testing.T) {
	body, _ := inlineBody(t, 10000)
	const runs, limit = 50, 4 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		req, err := decodeBody(body, always)
		if err != nil || req.lit == nil {
			t.Fatalf("decode of a known literal: %v, literal carried %v", err, req != nil && req.lit != nil)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > limit {
		t.Errorf("decoding a %d-byte body with a known literal allocates %d bytes, want ≤ %d", len(body), perRun, limit)
	}
}

// The Content-Length header only sizes the read buffer: a header far
// past the limit on a small body answers as if it were truthful, and
// an over-limit body gets the same 413 whatever its header claims.
func TestDecodeIgnoresLyingContentLength(t *testing.T) {
	srv := New(&Options{MaxNodes: 100})
	t.Cleanup(srv.CloseStreams)
	h := srv.Handler()
	post := func(body string, contentLength int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(body))
		req.ContentLength = contentLength
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	small := `{"tree":` + goldenTree + `}`
	want := post(small, int64(len(small)))
	if want.Code != http.StatusOK {
		t.Fatalf("truthful header: %d %s", want.Code, want.Body)
	}
	for _, cl := range []int64{1 << 40, -1, 0, 3} {
		if got := post(small, cl); got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("Content-Length %d: %d %s, want %d %s", cl, got.Code, got.Body, want.Code, want.Body)
		}
	}

	big := `{"tree":"` + strings.Repeat(`0 -1 1 1 1\n`, 110000) + `"}`
	const tooBig = `{"error":"request body over 1061376 bytes"}` + "\n"
	for _, cl := range []int64{1 << 40, int64(len(big)), -1, 10} {
		if got := post(big, cl); got.Code != http.StatusRequestEntityTooLarge || got.Body.String() != tooBig {
			t.Errorf("over-limit body, Content-Length %d: %d %s, want 413 %s", cl, got.Code, got.Body, tooBig)
		}
	}
}

// plain8 agrees with the byte-at-a-time rule for every byte value at
// every position, among plain bytes on either side.
func TestPlain8(t *testing.T) {
	for pos := 0; pos < 8; pos++ {
		for v := 0; v < 256; v++ {
			chunk := []byte("a~ Z0 !a")
			chunk[pos] = byte(v)
			want := v >= 0x20 && v < 0x80 && v != '\\'
			if got := plain8(binary.LittleEndian.Uint64(chunk)); got != want {
				t.Errorf("byte %#x at %d: plain8 %v, want %v", v, pos, got, want)
			}
		}
	}
}

// BenchmarkDecodeBody times a request's decode — a json.Marshal-ed
// 10k-node inline body — through the pre-pass with its literal unknown
// (first sight) and known (a warm request), and through the whole-body
// decode the pre-pass stands in for.
func BenchmarkDecodeBody(b *testing.B) {
	body, _ := inlineBody(b, 10000)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*Request, error)
	}{
		{"prepass", func(body []byte) (*Request, error) { return decodeBody(body, never) }},
		{"known", func(body []byte) (*Request, error) { return decodeBody(body, always) }},
		{"whole", func(body []byte) (*Request, error) { return decodeWhole(bytes.NewReader(body)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
