package imrdmd

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunListsNameTests reads the CI workflow and checks every test a
// `-run '…'` list names: each |-separated alternative that starts with
// Test must match at least one func Test… in the repository. A renamed or
// deleted test otherwise drops out of its CI leg without a failure.
func TestCIRunListsNameTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	testFunc := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	lists := regexp.MustCompile(`-run '([^']*)'`).FindAllSubmatch(ci, -1)
	checked := 0
	for _, l := range lists {
		for _, alt := range strings.Split(string(l[1]), "|") {
			if !strings.HasPrefix(strings.TrimPrefix(alt, "^"), "Test") {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			checked++
			found := false
			for _, n := range names {
				if re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml: -run alternative %q names no func Test… in the repository", alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("test lost its shape: ci.yml has no -run list naming a test")
	}
	t.Logf("%d test names checked in %d -run lists", checked, len(lists))
}
