package exp

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// goldenFile is the committed `discbench -exp all -seed 1` output.
const goldenFile = "../../experiments_output.txt"

// goldenIDs are the experiments the golden gate reruns: together about
// seven seconds, and none of their tables has a timing column. fig9 (GPS,
// 2-D) saves through the grid index; fig5 pins the full-count
// NeighborCounts path, which must stay uncapped.
var goldenIDs = []string{"fig4", "fig5", "fig9", "fig10"}

// goldenSections splits discbench output into the text printed under each
// "== <id> — <title> (<seconds>)" header, keyed by id. The header itself
// carries the wall time, so it is left out of the comparison.
func goldenSections(out string) map[string]string {
	sections := map[string]string{}
	id := ""
	var body strings.Builder
	flush := func() {
		if id != "" {
			sections[id] = strings.TrimSpace(body.String())
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "== ") {
			flush()
			id = strings.Fields(line)[1]
			continue
		}
		body.WriteString(line)
	}
	flush()
	return sections
}

// TestGoldenPaperNumbers reruns the deterministic paper figures at seed 1
// and requires every table cell to match experiments_output.txt, so a
// change that moves a reproduced number must regenerate that file in the
// same commit.
func TestGoldenPaperNumbers(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenSections(string(raw))
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			want, ok := golden[id]
			if !ok {
				t.Fatalf("%s has no %s section", goldenFile, id)
			}
			e, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			res, err := e.Run(Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res.Fprint(&buf)
			if got := strings.TrimSpace(buf.String()); got != want {
				t.Fatalf("%s output differs from %s:\n--- got\n%s\n--- want\n%s", id, goldenFile, got, want)
			}
		})
	}
}
