package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

var updateDecode = flag.Bool("update", false, "rewrite testdata/decode.golden with the digests this run computes")

// goldenTree is a valid two-node .tree text as a JSON string literal.
const goldenTree = `"0 -1 1 2 1\n1 0 1 1 3\n"`

// decodeCorpus is a set of awkward request bodies for a server with
// MaxNodes 100: every placement, spelling and escaping of the tree
// member the decoder must get right, the ways a body can be malformed,
// and bodies past the size limit.
func decodeCorpus() []string {
	T, T2 := goldenTree, `"0 -1 2 2 2\n"`
	c := []string{
		// Placement and whitespace.
		`{"tree":` + T + `}`,
		`{"tree":` + T + `,"procs":3,"heuristic":"Activation"}`,
		`{"procs":3,"heuristic":"Activation","tree":` + T + `}`,
		`{"procs":3,"tree":` + T + `,"mem_factor":1.5}`,
		" \n\t{ \r\n\"procs\" : 3 ,\t\"tree\"\n:\n " + T + " , \"trace\" : true } \n",
		`{"trace":true,"tree":` + T + `,"ao":"memPO","eo":"CP","perturb":"lognormal(0.3)","perturb_seed":9}`,
		// Spellings, duplicates and case variants in both orders.
		`{"Tree":` + T + `}`,
		`{"TREE":` + T + `}`,
		`{"tReE":` + T + `}`,
		`{"tree":` + T + `,"tree":` + T2 + `}`,
		`{"tree":` + T2 + `,"tree":` + T + `}`,
		`{"tree":` + T + `,"Tree":` + T2 + `}`,
		`{"TREE":` + T2 + `,"tree":` + T + `}`,
		`{"tree":` + T + `,"Tree":""}`,
		`{"tree":"","tree":` + T + `}`,
		`{"tree":` + T + `,"tree":null}`,
		`{"tree":null,"tree":` + T + `}`,
		`{"tree":` + T + `,"TREE":5}`,
		`{"tr\u0065e":` + T + `}`,
		`{"\u0074ree":` + T + `}`,
		`{"tree":` + T + `,"tr\u0065e":` + T2 + `}`,
		`{"pro\u0063s":3,"tree":` + T + `}`,
		`{"tree ":` + T + `}`,
		`{"trees":` + T + `}`,
		// Escapes inside the literal.
		`{"tree":"0 -1 1 2 1\u000a1 0 1 1 3\u000A"}`,
		`{"tree":"# a \u003c b\n0 -1 1 1 1\n"}`,
		`{"tree":"# a < b \u0026 c\n0 -1 1 1 1\n"}`,
		`{"tree":"# \ud83d\ude00\n0 -1 1 1 1\n"}`,
		`{"tree":"# \ud83d\n0 -1 1 1 1\n"}`,
		`{"tree":"# \ude00\ud83d\n0 -1 1 1 1\n"}`,
		`{"tree":"# say \"hi\"\n0 -1 1 1 1\n"}`,
		`{"tree":"# a\/b\n0 -1 1 1 1\n"}`,
		`{"tree":"# back\\slash\\\n0 -1 1 1 1\n"}`,
		`{"tree":"# \b\f\r\t\n0 -1 1 1 1\r\n"}`,
		`{"tree":"0\t-1\t1\t1\t1\n"}`,
		`{"tree":"# bad \x\n0 -1 1 1 1\n"}`,
		`{"tree":"# bad \a\n0 -1 1 1 1\n"}`,
		`{"tree":"# bad \u12\n0 -1 1 1 1\n"}`,
		`{"tree":"0 -1 1 1 1\n\"}`,
		`{"tree":"0 -1 1 1 1\n\\"}`,
		`{"tree":"0 -1 1 1 1\n\`,
		`{"tree":"é ü 中\n0 -1 1 1 1\n"}`,
		// Invalid UTF-8 and raw control bytes inside the literal.
		"{\"tree\":\"# \xff\\n0 -1 1 1 1\\n\"}",
		"{\"tree\":\"# \xc3\\n0 -1 1 1 1\\n\"}",
		"{\"tree\":\"# \xc0\xaf\\n0 -1 1 1 1\\n\"}",
		"{\"tree\":\"# \xed\xa0\x80\\n0 -1 1 1 1\\n\"}",
		"{\"tree\":\"0 -1 1 1 1\x01\\n\"}",
		"{\"tree\":\"0 -1 1 1 1\n\"}",
		"{\"tree\":\"0\t-1 1 1 1\\n\"}",
		"{\"tree\":\"0 -1 1 1 1\\n\x7f\"}",
		// Non-string and empty values.
		`{"tree":null}`,
		`{"tree":5}`,
		`{"tree":""}`,
		`{"tree":true}`,
		`{"tree":["0 -1 1 1 1\n"]}`,
		`{"tree":{}}`,
		// Two sources, nested look-alikes, unknown fields.
		`{"tree":` + T + `,"synthetic":{"seed":1,"nodes":5}}`,
		`{"synthetic":{"seed":1,"nodes":5},"tree":` + T + `}`,
		`{"synthetic":{"seed":1,"nodes":5,"tree":` + T + `}}`,
		`{"synthetic":{"seed":1,"nodes":5},"heuristic":"{\"tree\":\"x\"}"}`,
		`{"heuristic":"\"tree\":","tree":` + T + `}`,
		`{"tree":` + T + `,"bogus":1}`,
		`{"bogus":{"tree":` + T + `},"tree":` + T + `}`,
		`{"bogus":[` + T + `,{"tree":1}],"tree":` + T + `}`,
		`{"tree":` + T + `,"procs":"3"}`,
		`{"tree":` + T + `,"procs":1e400}`,
		`{"tree":` + T + `,"procs":2.5}`,
		`{"tree":` + T + `,"trace":"yes"}`,
		`{"tree":` + T + `,"retries":-1}`,
		`{"tree":` + T + `,"deadline":-1}`,
		`{"tree":` + T + `,}`,
		`{,"tree":` + T + `}`,
		`{"tree" ` + T + `}`,
		`{"tree":` + T + ` "procs":2}`,
		`{"tree":` + T + `]`,
		`{"tree":` + T + `,"procs":2}}`,
		// Trailing data and non-object bodies.
		`{"tree":` + T + `} x`,
		`{"tree":` + T + `}{"tree":` + T + `}`,
		`{"tree":` + T + `} `,
		"{\"tree\":" + T + "}\n\n",
		`{"tree":` + T + `} {}`,
		`{"tree":` + T + `} "tree"`,
		`[{"tree":` + T + `}]`,
		`"tree"`,
		`null`,
		`5`,
		``,
		"  \n",
		`{}`,
	}
	// Truncation at, and just past, every structural byte.
	full := `{"procs": 2, "tree": ` + T + `, "synthetic": null, "grid2d": {"n": [1]}, "ao": "memPO"}`
	for i := 0; i < len(full); i++ {
		if strings.IndexByte(`{}[]:,"\`, full[i]) >= 0 {
			c = append(c, full[:i], full[:i+1])
		}
	}
	// Past the size limit (MaxNodes 100 allows 100×128 + 1 MiB bytes):
	// an in-order tree literal, garbage, a valid object padded with
	// whitespace, and one followed by garbage.
	big := strings.Repeat(`0 -1 1 1 1\n`, 110000)
	pad := strings.Repeat(" ", 1<<21)
	c = append(c,
		`{"tree":"`+big+`"}`,
		"x"+pad,
		`{"tree":`+T+`}`+pad,
		`{"tree":`+T+`} x`+pad,
		`{"tree":"`+big[:1<<20]+`"}`,
	)
	return c
}

// TestDecodeGolden pins the status and body of every /schedule and
// /jobs post of decodeCorpus — for an accepted job, also the view it
// settles in — as one FNV-64a digest per post in testdata/decode.golden.
// A change to how a request body is read or decoded must leave every
// line alone; -update rewrites the file and is only for a change that
// means to move a reply.
func TestDecodeGolden(t *testing.T) {
	srv := New(&Options{MaxNodes: 100})
	t.Cleanup(srv.CloseStreams)
	h := srv.Handler()
	do := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	var got bytes.Buffer
	for i, body := range decodeCorpus() {
		for _, path := range []string{"/schedule", "/jobs"} {
			rec := do(http.MethodPost, path, body)
			d := fnv.New64a()
			fmt.Fprintf(d, "%d\n%s", rec.Code, rec.Body.Bytes())
			if rec.Code == http.StatusAccepted {
				var v JobView
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Fatalf("body %d: 202 %q: %v", i, rec.Body, err)
				}
				for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
					poll := do(http.MethodGet, fmt.Sprintf("/jobs/%d", v.ID), "")
					if err := json.Unmarshal(poll.Body.Bytes(), &v); err != nil {
						t.Fatalf("body %d: poll %q: %v", i, poll.Body, err)
					}
					if v.Status == JobDone || v.Status == JobFailed {
						fmt.Fprintf(d, "\n%s", poll.Body.Bytes())
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("body %d: job %d still %s", i, v.ID, v.Status)
					}
				}
			}
			fmt.Fprintf(&got, "%d %s %016x\n", i, path, d.Sum64())
		}
	}
	const file = "testdata/decode.golden"
	if *updateDecode {
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d digests, %s holds %d", len(gl)-1, file, len(wl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("got %q, %s holds %q", gl[i], file, wl[i])
		}
	}
}
