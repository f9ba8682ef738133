package hypercube_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// artifactRecipe matches a documented command line in EXPERIMENTS.md that
// writes one of the traffic-engine table families into results/, e.g.
//
//	go run ./cmd/traffic -dir results          # traffic_{mean,p95,util}.{txt,csv}
var artifactRecipe = regexp.MustCompile(`^go run \./cmd/(\w+) (.*-dir results.*?) +# +(?:traffic|chaos|lanes)_`)

// TestCommittedTrafficArtifacts is the artifact wall for the traffic
// tables: every committed results/{traffic,chaos,lanes}_*.{txt,csv} file
// must regenerate byte-identically from the recipe EXPERIMENTS.md
// documents for it. The recipes are read from the document itself, so a
// recipe that drifts from the committed output fails here.
func TestCommittedTrafficArtifacts(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var committed []string
	for _, family := range []string{"traffic", "chaos", "lanes"} {
		m, err := filepath.Glob(filepath.Join("results", family+"_*"))
		if err != nil {
			t.Fatal(err)
		}
		committed = append(committed, m...)
	}
	sort.Strings(committed)
	if len(committed) != 18 {
		t.Fatalf("found %d committed traffic artifacts, want 18: %v", len(committed), committed)
	}

	bin := t.TempDir()
	built := map[string]string{}
	regenerated := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		m := artifactRecipe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cmd, dir := m[1], t.TempDir()
		args := strings.Fields(strings.Replace(m[2], "-dir results", "-dir "+dir, 1))
		exe, ok := built[cmd]
		if !ok {
			exe = filepath.Join(bin, cmd)
			if out, err := exec.Command("go", "build", "-o", exe, "./cmd/"+cmd).CombinedOutput(); err != nil {
				t.Fatalf("building cmd/%s: %v\n%s", cmd, err, out)
			}
			built[cmd] = exe
		}
		if out, err := exec.Command(exe, args...).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", line, err, out)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			got, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("results", f.Name())
			want, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s: writes %s, which is not committed: %v", line, f.Name(), err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s differs from the committed file", line, path)
			}
			regenerated[path] = true
		}
	}
	for _, path := range committed {
		if !regenerated[path] {
			t.Errorf("%s: no EXPERIMENTS.md recipe regenerates it", path)
		}
	}
}
