package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// readCSV parses CSV with an optional row-count hint used to
// preallocate the typed columns.
func readCSV(r io.Reader, rowHint int) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("table: empty CSV input")
	}
	if err != nil {
		return nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	names := make([]string, len(header))
	for i := range header {
		names[i] = strings.TrimSpace(header[i])
	}
	t := New(names...)
	for i := range t.st.cols {
		t.st.cols[i].grow(rowHint)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading CSV row: %w", err)
		}
		if len(rec) != len(t.cols) {
			return nil, fmt.Errorf("table: row has %d values, table has %d columns", len(rec), len(t.cols))
		}
		for i, f := range rec {
			col := &t.st.cols[i]
			trimmed := strings.TrimSpace(f)
			if trimmed != "" {
				if v, err := strconv.ParseFloat(trimmed, 64); err == nil {
					col.nums = append(col.nums, v)
					col.ids = append(col.ids, -1)
					continue
				}
			}
			col.nums = append(col.nums, 0)
			col.ids = append(col.ids, t.st.dict.intern(f))
		}
	}
	return t, nil
}

// ParseCSV loads a table from CSV with a header row; cells are
// auto-typed and streamed straight into typed columns: numbers land in
// the float storage, strings are interned (the record buffer is reused,
// so only first-occurrence strings are retained). The input length
// yields a row-count estimate that presizes the columns.
func ParseCSV(s string) (*Table, error) {
	return readCSV(strings.NewReader(s), strings.Count(s, "\n"))
}

// WriteCSV renders the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.cols); err != nil {
		return err
	}
	rec := make([]string, len(t.cols))
	n := t.Len()
	for i := 0; i < n; i++ {
		r := t.phys(i)
		for c := range t.cols {
			rec[c] = t.valueAt(c, r).Text()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSV renders the table as a CSV string.
func (t *Table) CSV() string {
	var sb strings.Builder
	_ = t.WriteCSV(&sb)
	return sb.String()
}

// Format renders a human-readable aligned text table (for CLI output).
func (t *Table) Format() string {
	n := t.Len()
	widths := make([]int, len(t.cols))
	for c, name := range t.cols {
		widths[c] = len(name)
		for i := 0; i < n; i++ {
			if w := len(t.valueAt(c, t.phys(i)).Text()); w > widths[c] {
				widths[c] = w
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for c, cell := range cells {
			if c > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for i := len(cell); i < widths[c]; i++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.cols)
	sep := make([]string, len(t.cols))
	for c := range sep {
		sep[c] = strings.Repeat("-", widths[c])
	}
	writeRow(sep)
	cells := make([]string, len(t.cols))
	for i := 0; i < n; i++ {
		for c := range t.cols {
			cells[c] = t.valueAt(c, t.phys(i)).Text()
		}
		writeRow(cells)
	}
	return sb.String()
}
