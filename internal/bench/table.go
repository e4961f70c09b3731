// Package bench regenerates every table and figure of the paper's
// evaluation (§VI) from the models and simulators in this repository. Each
// experiment returns a Table whose rows mirror what the paper reports —
// epoch times, speedups, utilizations, prediction errors — so the output
// can be compared against the published artifact line by line (PAPER.md's
// "Results reproduced here" records that comparison). The analytic models
// of the systems the paper compares against live here too
// (comparators.go).
package bench

import (
	"fmt"
	"strings"
)

// Cell is one table value: either text or a number with a format.
type Cell struct {
	Text  string
	Value float64
	Fmt   string // e.g. "%.2f"; empty means Text is used
}

// num makes a numeric cell.
func num(v float64, format string) Cell { return Cell{Value: v, Fmt: format} }

// txt makes a text cell.
func txt(s string) Cell { return Cell{Text: s} }

func (c Cell) render() string {
	if c.Fmt != "" {
		return fmt.Sprintf(c.Fmt, c.Value)
	}
	return c.Text
}

// Table is a titled grid with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]Cell
}

// addRow appends a row.
func (t *Table) addRow(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	rendered := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		rendered[r] = make([]string, len(row))
		for i, c := range row {
			s := c.render()
			rendered[r][i] = s
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for i, h := range t.Header {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteString("\n")
	for i := range t.Header {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, row := range rendered {
		for i, s := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], s)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// lookup returns the first numeric cell in the row whose leading text cells
// match the given labels (helper for tests asserting on table content).
func (t *Table) lookup(col int, labels ...string) (float64, bool) {
	for _, row := range t.Rows {
		match := true
		for i, l := range labels {
			if i >= len(row) || row[i].render() != l {
				match = false
				break
			}
		}
		if match && col < len(row) {
			return row[col].Value, true
		}
	}
	return 0, false
}
