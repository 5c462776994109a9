// Package table implements a small column-oriented dataframe used
// throughout the Popper toolchain: experiment results (results.csv) are
// loaded into a Table, post-processing scripts filter and aggregate it,
// the Aver evaluator queries it, and plot renderers consume it.
//
// A Table has named columns; every cell is a Value which is either a
// string or a float64. Numeric parsing happens on CSV load, so metric
// columns can be used directly in computations while categorical columns
// (workload, machine) stay as strings.
//
// # Storage model
//
// Storage is typed and columnar: each column is a contiguous []float64
// for the numeric payload plus a parallel []int32 of interned string
// ids (negative means "this cell is the number"). String cells share a
// per-store dictionary, so a categorical column holding a handful of
// distinct labels costs 12 bytes per cell regardless of label length.
//
// Row-subset operations (Filter, Where, Select, View) are zero-copy:
// they return *views* — tables that share the backing columns and carry
// only a row-index (and column-reference) slice. SortBy reorders the
// permutation, never the data. Views follow a copy-on-write contract:
// mutating a view (Append, Concat) first detaches it into
// its own storage, so the parent table and sibling views are never
// affected. Appending to the table a view was taken from is also safe:
// the view captured its row indices and does not see later rows.
//
// A Table is safe for concurrent *reads* (the Aver evaluator checks
// groups of one table in parallel); mutation requires external
// synchronization, as before the columnar rebuild.
package table

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Value is a single cell: either a numeric or a string observation.
type Value struct {
	Num   float64
	Str   string
	IsNum bool
}

// Number builds a numeric value.
func Number(f float64) Value { return Value{Num: f, IsNum: true} }

// String builds a string value.
func String(s string) Value { return Value{Str: s} }

// Float returns the numeric interpretation of the value; strings yield NaN.
func (v Value) Float() float64 {
	if v.IsNum {
		return v.Num
	}
	return math.NaN()
}

// Text renders the value the way it is written to CSV.
func (v Value) Text() string {
	if v.IsNum {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// Equal reports cell equality (numeric compare for numbers).
func (v Value) Equal(o Value) bool {
	if v.IsNum != o.IsNum {
		return false
	}
	if v.IsNum {
		return v.Num == o.Num || (math.IsNaN(v.Num) && math.IsNaN(o.Num))
	}
	return v.Str == o.Str
}

// dict interns the strings of one store. Ids are dense and append-only,
// so views sharing a store can resolve and compare strings by id.
type dict struct {
	ids  map[string]int32
	strs []string
}

func newDict() *dict { return &dict{ids: make(map[string]int32)} }

func (d *dict) intern(s string) int32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := int32(len(d.strs))
	d.strs = append(d.strs, s)
	d.ids[s] = id
	return id
}

func (d *dict) lookup(s string) (int32, bool) {
	id, ok := d.ids[s]
	return id, ok
}

func (d *dict) str(id int32) string { return d.strs[id] }

func (d *dict) clone() *dict {
	out := &dict{
		ids:  make(map[string]int32, len(d.ids)),
		strs: append([]string(nil), d.strs...),
	}
	for s, id := range d.ids {
		out.ids[s] = id
	}
	return out
}

// column is typed cell storage: ids[r] >= 0 marks a string cell holding
// that interned id; ids[r] < 0 marks a numeric cell in nums[r].
type column struct {
	nums []float64
	ids  []int32
}

func (c *column) appendValue(v Value, d *dict) {
	if v.IsNum {
		c.nums = append(c.nums, v.Num)
		c.ids = append(c.ids, -1)
	} else {
		c.nums = append(c.nums, 0)
		c.ids = append(c.ids, d.intern(v.Str))
	}
}

func (c *column) grow(hint int) {
	if hint > 0 && cap(c.nums) == 0 {
		c.nums = make([]float64, 0, hint)
		c.ids = make([]int32, 0, hint)
	}
}

// store is the shared backing of a table and every view derived from
// it: the columns plus the string dictionary they intern into.
type store struct {
	dict *dict
	cols []column
}

func (s *store) length() int {
	if len(s.cols) == 0 {
		return 0
	}
	return len(s.cols[0].ids)
}

// Table is a column-oriented frame with equal-length columns. The zero
// value is not usable; construct with New, ParseCSV or a view-producing
// method.
//
// Invariant: rows == nil means the table is "direct" — it owns its
// store end-to-end (refs is the identity over every store column) and
// mutates in place. rows != nil means the table is a view; mutating it
// detaches it into fresh storage first (copy-on-write).
type Table struct {
	cols  []string
	index map[string]int
	st    *store
	refs  []int   // visible column -> store column
	rows  []int32 // nil = all store rows in order
}

// New creates an empty table with the given column names.
func New(cols ...string) *Table {
	t := &Table{
		cols:  append([]string(nil), cols...),
		index: make(map[string]int, len(cols)),
		st:    &store{dict: newDict(), cols: make([]column, len(cols))},
		refs:  identity(len(cols)),
	}
	for i, c := range cols {
		t.index[c] = i
	}
	return t
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// phys maps a logical row index to its physical store row.
func (t *Table) phys(i int) int32 {
	if t.rows != nil {
		return t.rows[i]
	}
	return int32(i)
}

// allRows materializes the logical->physical row mapping. The result is
// freshly allocated and owned by the caller.
func (t *Table) allRows() []int32 {
	if t.rows != nil {
		return append([]int32(nil), t.rows...)
	}
	n := t.st.length()
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// view builds a table sharing this table's store. rows is owned by the
// view; names is copied, refs is shared (it is never mutated in place).
func (t *Table) view(rows []int32, names []string, refs []int) *Table {
	idx := make(map[string]int, len(names))
	for i, c := range names {
		idx[c] = i
	}
	return &Table{
		cols:  append([]string(nil), names...),
		index: idx,
		st:    t.st,
		refs:  refs,
		rows:  rows,
	}
}

// detach is the copy-on-write step: it materializes a view into its own
// store so it can be mutated without touching the shared columns.
func (t *Table) detach() {
	if t.rows == nil {
		return
	}
	nst := &store{dict: t.st.dict.clone(), cols: make([]column, len(t.refs))}
	n := len(t.rows)
	for ci, ref := range t.refs {
		src := &t.st.cols[ref]
		dst := &nst.cols[ci]
		dst.nums = make([]float64, n)
		dst.ids = make([]int32, n)
		for i, r := range t.rows {
			dst.nums[i] = src.nums[r]
			dst.ids[i] = src.ids[r]
		}
	}
	t.st = nst
	t.refs = identity(len(t.cols))
	t.rows = nil
}

// valueAt builds the Value at (visible column ci, physical row r).
func (t *Table) valueAt(ci int, r int32) Value {
	c := &t.st.cols[t.refs[ci]]
	if id := c.ids[r]; id >= 0 {
		return Value{Str: t.st.dict.str(id)}
	}
	return Value{Num: c.nums[r], IsNum: true}
}

// Columns returns the column names in order.
func (t *Table) Columns() []string { return append([]string(nil), t.cols...) }

// HasColumn reports whether the column exists.
func (t *Table) HasColumn(name string) bool { _, ok := t.index[name]; return ok }

// Len returns the number of rows.
func (t *Table) Len() int {
	if t.rows != nil {
		return len(t.rows)
	}
	return t.st.length()
}

// Append adds one row; the number of values must match the column count.
// Appending to a view detaches it first (copy-on-write).
func (t *Table) Append(vals ...Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("table: row has %d values, table has %d columns", len(vals), len(t.cols))
	}
	t.detach()
	for i, v := range vals {
		t.st.cols[t.refs[i]].appendValue(v, t.st.dict)
	}
	return nil
}

// MustAppend is Append that panics on arity mismatch; for test fixtures
// and generators where the shape is statically known.
func (t *Table) MustAppend(vals ...Value) {
	if err := t.Append(vals...); err != nil {
		panic(err)
	}
}

// Cell returns the value at (row, column name).
func (t *Table) Cell(row int, col string) (Value, error) {
	ci, ok := t.index[col]
	if !ok {
		return Value{}, fmt.Errorf("table: no column %q", col)
	}
	if row < 0 || row >= t.Len() {
		return Value{}, fmt.Errorf("table: row %d out of range [0,%d)", row, t.Len())
	}
	return t.valueAt(ci, t.phys(row)), nil
}

// MustCell is Cell that panics on error.
func (t *Table) MustCell(row int, col string) Value {
	v, err := t.Cell(row, col)
	if err != nil {
		panic(err)
	}
	return v
}

// Column returns a copy of an entire column.
func (t *Table) Column(col string) ([]Value, error) {
	ci, ok := t.index[col]
	if !ok {
		return nil, fmt.Errorf("table: no column %q", col)
	}
	n := t.Len()
	out := make([]Value, n)
	for i := 0; i < n; i++ {
		out[i] = t.valueAt(ci, t.phys(i))
	}
	return out, nil
}

// Floats returns a column as float64s; string cells become NaN.
func (t *Table) Floats(col string) ([]float64, error) {
	c, err := t.Col(col)
	if err != nil {
		return nil, err
	}
	n := c.Len()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = c.Float(i)
	}
	return out, nil
}

// Row returns a copy of one row in column order.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	r := t.phys(i)
	for c := range t.cols {
		out[c] = t.valueAt(c, r)
	}
	return out
}

// Select returns a zero-copy view with only the named columns, in order.
func (t *Table) Select(cols ...string) (*Table, error) {
	refs := make([]int, len(cols))
	for i, c := range cols {
		ci, ok := t.index[c]
		if !ok {
			return nil, fmt.Errorf("table: no column %q", c)
		}
		refs[i] = t.refs[ci]
	}
	return t.view(t.allRows(), cols, refs), nil
}

// Filter returns a zero-copy view of the rows for which keep returns true.
func (t *Table) Filter(keep func(row int) bool) *Table {
	n := t.Len()
	rows := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if keep(i) {
			rows = append(rows, t.phys(i))
		}
	}
	return t.view(rows, t.cols, t.refs)
}

// Where returns a zero-copy view of the rows whose column equals the
// given value. The scan is vectorized: string probes compare interned
// ids, numeric probes compare the float column directly.
func (t *Table) Where(col string, v Value) (*Table, error) {
	ci, ok := t.index[col]
	if !ok {
		return nil, fmt.Errorf("table: no column %q", col)
	}
	c := &t.st.cols[t.refs[ci]]
	n := t.Len()
	rows := make([]int32, 0, n)
	if v.IsNum {
		nan := math.IsNaN(v.Num)
		for i := 0; i < n; i++ {
			r := t.phys(i)
			if c.ids[r] < 0 && (c.nums[r] == v.Num || (nan && math.IsNaN(c.nums[r]))) {
				rows = append(rows, r)
			}
		}
	} else if id, found := t.st.dict.lookup(v.Str); found {
		for i := 0; i < n; i++ {
			r := t.phys(i)
			if c.ids[r] == id {
				rows = append(rows, r)
			}
		}
	}
	return t.view(rows, t.cols, t.refs), nil
}

// View returns a zero-copy view of the given rows (indices relative to
// this table), in the given order. Rows may repeat.
func (t *Table) View(rows []int) (*Table, error) {
	n := t.Len()
	phys := make([]int32, len(rows))
	for i, r := range rows {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("table: row %d out of range [0,%d)", r, n)
		}
		phys[i] = t.phys(r)
	}
	return t.view(phys, t.cols, t.refs), nil
}

// SortBy sorts rows by the given columns ascending (stable). The sort
// permutes the table's row view; column storage is never rewritten.
func (t *Table) SortBy(cols ...string) error {
	keyRefs := make([]int, len(cols))
	for i, c := range cols {
		ci, ok := t.index[c]
		if !ok {
			return fmt.Errorf("table: no column %q", c)
		}
		keyRefs[i] = t.refs[ci]
	}
	rows := t.allRows()
	d := t.st.dict
	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for _, ref := range keyRefs {
			c := &t.st.cols[ref]
			ida, idb := c.ids[ra], c.ids[rb]
			switch {
			case ida < 0 && idb < 0: // both numeric
				na, nb := c.nums[ra], c.nums[rb]
				if na == nb || (math.IsNaN(na) && math.IsNaN(nb)) {
					continue
				}
				return na < nb
			case ida >= 0 && idb >= 0: // both strings
				if ida == idb {
					continue
				}
				return d.str(ida) < d.str(idb)
			default: // mixed: numbers order before strings
				return ida < 0
			}
		}
		return false
	})
	t.rows = rows
	return nil
}

// Concat appends the rows of other; column sets must match exactly.
// On a view this detaches first.
func (t *Table) Concat(other *Table) error {
	if len(t.cols) != len(other.cols) {
		return fmt.Errorf("table: concat column count mismatch %d vs %d", len(t.cols), len(other.cols))
	}
	for i, c := range t.cols {
		if other.cols[i] != c {
			return fmt.Errorf("table: concat column mismatch %q vs %q", c, other.cols[i])
		}
	}
	t.detach()
	n := other.Len()
	sameDict := t.st.dict == other.st.dict
	for ci := range t.cols {
		dst := &t.st.cols[t.refs[ci]]
		src := &other.st.cols[other.refs[ci]]
		if sameDict {
			// Fast path: ids are valid across views of one store.
			for i := 0; i < n; i++ {
				r := other.phys(i)
				dst.nums = append(dst.nums, src.nums[r])
				dst.ids = append(dst.ids, src.ids[r])
			}
			continue
		}
		for i := 0; i < n; i++ {
			dst.appendValue(other.valueAt(ci, other.phys(i)), t.st.dict)
		}
	}
	return nil
}

// AppendFrom bulk-appends every row of other. Columns the two tables
// share are copied column-wise (interned ids move directly when the
// tables share a dictionary); columns other lacks are filled from fill,
// defaulting to the empty string. Source columns t lacks are ignored.
func (t *Table) AppendFrom(other *Table, fill map[string]Value) error {
	t.detach()
	n := other.Len()
	sameDict := t.st.dict == other.st.dict
	for ci, name := range t.cols {
		dst := &t.st.cols[t.refs[ci]]
		oci, ok := other.index[name]
		if !ok {
			v, okf := fill[name]
			if !okf {
				v = String("")
			}
			for i := 0; i < n; i++ {
				dst.appendValue(v, t.st.dict)
			}
			continue
		}
		src := &other.st.cols[other.refs[oci]]
		if sameDict {
			for i := 0; i < n; i++ {
				r := other.phys(i)
				dst.nums = append(dst.nums, src.nums[r])
				dst.ids = append(dst.ids, src.ids[r])
			}
			continue
		}
		for i := 0; i < n; i++ {
			dst.appendValue(other.valueAt(oci, other.phys(i)), t.st.dict)
		}
	}
	return nil
}

// Clone deep-copies the table into fully independent storage.
func (t *Table) Clone() *Table {
	out := New(t.cols...)
	n := t.Len()
	for ci := range t.cols {
		dst := &out.st.cols[ci]
		dst.nums = make([]float64, n)
		dst.ids = make([]int32, n)
		src := &t.st.cols[t.refs[ci]]
		for i := 0; i < n; i++ {
			r := t.phys(i)
			dst.nums[i] = src.nums[r]
			if id := src.ids[r]; id >= 0 {
				dst.ids[i] = out.st.dict.intern(t.st.dict.str(id))
			} else {
				dst.ids[i] = -1
			}
		}
	}
	return out
}
