package repro

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestScriptsNamedInDocsExist keeps CI, the README and the verify skill
// from naming a script or a ./internal/… or ./cmd/… package directory
// that a later change deleted: a dangling step fails here, not on the
// first push after the merge.
func TestScriptsNamedInDocsExist(t *testing.T) {
	script := regexp.MustCompile(`\b(?:scripts|bench)/[\w.-]+\.sh\b|\./(?:internal|cmd)/[\w/-]+`)
	for _, doc := range []string{".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		names := script.FindAllString(string(text), -1)
		if len(names) == 0 {
			t.Errorf("%s names no script: the pattern no longer matches how it writes them", doc)
		}
		for _, name := range names {
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s names %s: %v", doc, name, err)
			}
		}
	}
}

// TestDocumentedRequestsAccepted posts every `curl … /schedule -d '…'`
// and `curl … /jobs -d '…'` body the README and treeschedd's package
// comment show to a live service handler, and follows each accepted
// job to its end: a documented request the service answers with a 4xx
// — a field it no longer knows, a value it refuses — fails here.
func TestDocumentedRequestsAccepted(t *testing.T) {
	curl := regexp.MustCompile(`curl [^\n']*/(schedule|jobs) -d '([^']*)'`)
	comment := regexp.MustCompile(`(?m)^//\t?`)
	ts := httptest.NewServer(NewServiceHandler(nil))
	defer ts.Close()
	for _, doc := range []string{"README.md", "cmd/treeschedd/main.go"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if strings.HasSuffix(doc, ".go") {
			text = comment.ReplaceAllString(text, "")
		}
		found := curl.FindAllStringSubmatch(text, -1)
		if len(found) == 0 {
			t.Errorf("%s shows no request body: the pattern no longer matches how it writes them", doc)
		}
		for _, m := range found {
			path, body := m[1], m[2]
			status, reply := postDoc(t, ts.URL+"/"+path, body)
			if path == "jobs" && status == http.StatusAccepted {
				status, reply = awaitDocJob(t, ts.URL, reply)
			}
			if status >= 400 && status < 500 {
				t.Errorf("%s: POST /%s %s answers %d %s", doc, path, body, status, reply)
			}
		}
	}
}

func postDoc(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// awaitDocJob polls the job a 202 reply names until it ends, and
// returns its verdict's status (200 when it is done) and its view.
func awaitDocJob(t *testing.T, base string, accepted []byte) (int, []byte) {
	t.Helper()
	var v struct {
		ID          uint64 `json:"id"`
		Status      string `json:"status"`
		ErrorStatus int    `json:"error_status"`
	}
	if err := json.Unmarshal(accepted, &v); err != nil {
		t.Fatalf("202 body %q: %v", accepted, err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/jobs/" + strconv.FormatUint(v.ID, 10))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("poll body %q: %v", b, err)
		}
		switch {
		case v.Status == "done":
			return http.StatusOK, b
		case v.Status == "failed":
			return v.ErrorStatus, b
		case time.Now().After(deadline):
			t.Fatalf("job %d still %s", v.ID, v.Status)
		}
	}
}
