package table

import "fmt"

// Window is an append-only columnar stream buffer: result rows arrive
// in batches and accumulate in one shared store (interned dictionary,
// typed columns), while readers hold zero-copy views of individual
// batches or of any prefix. It is the ingestion side of streaming
// validation — metrics pivots and incremental experiment results land
// here batch by batch, and the Aver stream evaluator consumes each
// appended window in O(delta).
//
// A Window is not safe for concurrent use; one producer owns it.
type Window struct {
	t     *Table
	spans []int // batch boundaries: spans[i] = first row of batch i, plus a final total
}

// NewWindow creates an empty windowed buffer with the given schema.
func NewWindow(cols ...string) *Window {
	return &Window{t: New(cols...), spans: []int{0}}
}

// Append ingests one batch. The batch's columns must match the window's
// schema exactly (order included): streaming evaluation compiles kernels
// against the schema once and indexes columns positionally.
func (w *Window) Append(batch *Table) error {
	bc := batch.Columns()
	wc := w.t.Columns()
	if len(bc) != len(wc) {
		return fmt.Errorf("table: window batch has %d columns, window has %d", len(bc), len(wc))
	}
	for i := range bc {
		if bc[i] != wc[i] {
			return fmt.Errorf("table: window batch column %d is %q, want %q", i, bc[i], wc[i])
		}
	}
	if err := w.t.AppendFrom(batch, nil); err != nil {
		return err
	}
	w.spans = append(w.spans, w.t.Len())
	return nil
}

// Table returns the full accumulated table. The handle stays valid
// across appends (direct tables grow in place); row count at read time
// is Len().
func (w *Window) Table() *Table { return w.t }

// Len returns the total number of buffered rows.
func (w *Window) Len() int { return w.t.Len() }

// Batches returns how many batches have been appended.
func (w *Window) Batches() int { return len(w.spans) - 1 }
