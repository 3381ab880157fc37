package eval

import (
	"fmt"
	"io"
	"strings"
)

// Table is what every runner returns: one figure as a markdown table
// under a title, with the prose lines the figure prints before and after
// it. Each cell keeps the number it shows beside its text, so tests and
// benchmarks read a figure's quantities from the table the harness
// prints.
type Table struct {
	Title  string
	Before []string
	Header []string
	Rows   [][]Cell
	After  []string
}

// Cell is one table entry: its printed text and the number it shows (0
// for a label).
type Cell struct {
	Text string
	Num  float64
}

// num prints v with format, a verb taking one float64.
func num(format string, v float64) Cell {
	return Cell{Text: fmt.Sprintf(format, v), Num: v}
}

// Print writes the table as markdown: a "## " title, the lines before
// the table, the table and the lines after it, each block set off by a
// blank line.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n## %s\n\n", t.Title)
	if len(t.Before) > 0 {
		fmt.Fprintf(w, "%s\n\n", strings.Join(t.Before, "\n"))
	}
	line := func(texts []string) { fmt.Fprintf(w, "| %s |\n", strings.Join(texts, " | ")) }
	line(t.Header)
	texts := make([]string, len(t.Header))
	for i := range texts {
		texts[i] = "---"
	}
	line(texts)
	for _, row := range t.Rows {
		texts = texts[:0]
		for _, c := range row {
			texts = append(texts, c.Text)
		}
		line(texts)
	}
	if len(t.After) > 0 {
		fmt.Fprintf(w, "\n%s\n", strings.Join(t.After, "\n"))
	}
}

// Column returns the numbers under header, top to bottom. It panics if
// the table has no such column.
func (t *Table) Column(header string) []float64 {
	c := t.column(header)
	out := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = row[c].Num
	}
	return out
}

// Value returns the number under header in the row whose first cell
// reads key. It panics if the table has no such row or column.
func (t *Table) Value(key, header string) float64 {
	c := t.column(header)
	for _, row := range t.Rows {
		if row[0].Text == key {
			return row[c].Num
		}
	}
	panic(fmt.Sprintf("eval: %q has no row %q", t.Title, key))
}

func (t *Table) column(header string) int {
	for c, h := range t.Header {
		if h == header {
			return c
		}
	}
	panic(fmt.Sprintf("eval: %q has no column %q", t.Title, header))
}
