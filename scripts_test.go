package repro

import (
	"os"
	"regexp"
	"testing"
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
