package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// recordedOutput is the committed full run, `go run ./cmd/experiments >
// experiments_output.md` from the repository root.
const recordedOutput = "../../experiments_output.md"

// captureRun executes run(fig, quick) with stdout captured.
func captureRun(t *testing.T, fig string, quick bool) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	outCh := make(chan string, 1)
	go func() {
		buf, _ := io.ReadAll(r)
		outCh <- string(buf)
	}()
	runErr := run(fig, quick)
	w.Close()
	os.Stdout = old
	out := <-outCh
	if runErr != nil {
		t.Fatalf("run(%q, quick=%v): %v", fig, quick, runErr)
	}
	return out
}

// TestFigureBuildersSmoke runs a representative set of the figure
// builders in -quick mode (tiny topologies, reduced budgets) and asserts
// each emits a non-empty markdown table under its header.
func TestFigureBuildersSmoke(t *testing.T) {
	cases := map[string]string{
		"3":     "Fig. 3",
		"6":     "Fig. 6",
		"tab2":  "TABLE II",
		"abl":   "Ablations",
		"adapt": "Adaptive caching",
	}
	for fig, wantHeader := range cases {
		out := captureRun(t, fig, true)
		if !strings.Contains(out, wantHeader) {
			t.Errorf("fig %s: output missing header %q:\n%s", fig, wantHeader, out)
		}
		dataRows := 0
		for _, line := range strings.Split(out, "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "|") && !strings.HasPrefix(trimmed, "| ---") {
				dataRows++
			}
		}
		// Header row plus at least one data row.
		if dataRows < 2 {
			t.Errorf("fig %s: no table rows in output:\n%s", fig, out)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run("nope", true); err == nil {
		t.Fatal("run with unknown figure should fail")
	}
}

// TestFiguresMatchRecordedOutput reruns every figure whose full-size run
// is fast and deterministic and compares each of its sections with the
// recorded output line for line. Timing cells are skipped: table columns
// headed in ms or µs (Fig. 5, adapt and phases, which time throughout,
// are not rerun; neither are Figs. 1 and 2, which take minutes).
func TestFiguresMatchRecordedOutput(t *testing.T) {
	raw, err := os.ReadFile(recordedOutput)
	if err != nil {
		t.Fatal(err)
	}
	want := sections(string(raw))
	for _, fig := range []string{"3", "4", "6", "7", "8", "9", "tab2", "abl", "part"} {
		got := sections(captureRun(t, fig, false))
		if len(got) == 0 {
			t.Errorf("fig %s printed no section", fig)
		}
		for title, lines := range got {
			rec, ok := want[title]
			if !ok {
				t.Errorf("fig %s: section %q is not in %s", fig, title, recordedOutput)
				continue
			}
			compareSection(t, title, lines, rec)
		}
	}
}

// sections splits printed output at its "## " headers into each
// section's lines, keyed by the header text.
func sections(out string) map[string][]string {
	secs := map[string][]string{}
	title := ""
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			title = rest
			continue
		}
		if title != "" {
			secs[title] = append(secs[title], line)
		}
	}
	for title, lines := range secs {
		for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
			lines = lines[:len(lines)-1]
		}
		secs[title] = lines
	}
	return secs
}

// compareSection checks a section's lines against the recorded ones.
// Table rows compare cell by cell, skipping the cells of timing columns,
// which the row opening each table names.
func compareSection(t *testing.T, title string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d lines, recorded %d:\n%s", title, len(got), len(want), strings.Join(got, "\n"))
		return
	}
	var timing []bool
	for i := range got {
		gc, wc := cells(got[i]), cells(want[i])
		if gc == nil || wc == nil {
			timing = nil
			if got[i] != want[i] {
				t.Errorf("%s line %d: %q, recorded %q", title, i, got[i], want[i])
			}
			continue
		}
		if timing == nil {
			timing = make([]bool, len(gc))
			for c, h := range gc {
				timing[c] = h == "ms" || strings.HasSuffix(h, " ms") || strings.HasSuffix(h, "µs")
			}
		}
		if len(gc) != len(wc) || len(gc) != len(timing) {
			t.Errorf("%s line %d: %q, recorded %q", title, i, got[i], want[i])
			continue
		}
		for c := range gc {
			if !timing[c] && gc[c] != wc[c] {
				t.Errorf("%s line %d column %d: %q, recorded %q", title, i, c, gc[c], wc[c])
			}
		}
	}
}

// cells returns a markdown table row's trimmed cells, or nil for a line
// that is not a table row.
func cells(line string) []string {
	if !strings.HasPrefix(line, "|") {
		return nil
	}
	parts := strings.Split(strings.Trim(line, "|"), "|")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}
