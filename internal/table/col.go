package table

import (
	"fmt"
	"math"
	"strconv"
)

// Col is a zero-copy, read-only handle on one column of a (possibly
// viewed) table. It indexes by the table's logical row order and reads
// straight from the shared columnar storage, so evaluators can run
// aggregate and comparison kernels without materializing []Value rows.
// A Col is a value type and safe for concurrent use as long as the
// underlying table is not mutated.
type Col struct {
	nums []float64
	ids  []int32
	d    *dict
	rows []int32 // nil = identity
	n    int
}

// Col returns a zero-copy handle on the named column.
func (t *Table) Col(name string) (Col, error) {
	ci, ok := t.index[name]
	if !ok {
		return Col{}, fmt.Errorf("table: no column %q", name)
	}
	c := &t.st.cols[t.refs[ci]]
	return Col{nums: c.nums, ids: c.ids, d: t.st.dict, rows: t.rows, n: t.Len()}, nil
}

// Len returns the number of cells.
func (c Col) Len() int { return c.n }

func (c Col) phys(i int) int32 {
	if c.rows != nil {
		return c.rows[i]
	}
	return int32(i)
}

// IsNum reports whether cell i is numeric.
func (c Col) IsNum(i int) bool { return c.ids[c.phys(i)] < 0 }

// Float returns cell i as a float64; string cells yield NaN.
func (c Col) Float(i int) float64 {
	r := c.phys(i)
	if c.ids[r] >= 0 {
		return math.NaN()
	}
	return c.nums[r]
}

// Num returns the raw numeric payload of cell i; only meaningful when
// IsNum(i) is true.
func (c Col) Num(i int) float64 { return c.nums[c.phys(i)] }

// StrID returns the interned string id of cell i, or a negative value
// for numeric cells. Ids are comparable across every Col of the same
// table (and its views); resolve probe strings with Lookup.
func (c Col) StrID(i int) int32 { return c.ids[c.phys(i)] }

// Lookup resolves a string to its interned id in this column's
// dictionary; ok is false when the string occurs nowhere in the table,
// in which case no StrID can equal it.
func (c Col) Lookup(s string) (int32, bool) { return c.d.lookup(s) }

// Text renders cell i the way it is written to CSV. String cells are
// returned from the dictionary without allocating; numeric cells format.
func (c Col) Text(i int) string {
	r := c.phys(i)
	if id := c.ids[r]; id >= 0 {
		return c.d.str(id)
	}
	return strconv.FormatFloat(c.nums[r], 'g', -1, 64)
}

// Value builds the Value of cell i.
func (c Col) Value(i int) Value {
	r := c.phys(i)
	if id := c.ids[r]; id >= 0 {
		return Value{Str: c.d.str(id)}
	}
	return Value{Num: c.nums[r], IsNum: true}
}

// Sum returns the sum of the numeric cells, iterating in row order.
func (c Col) Sum() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		r := c.phys(i)
		if c.ids[r] < 0 {
			s += c.nums[r]
		}
	}
	return s
}

// MinMax returns the smallest and largest numeric cell; ok is false
// when the column has no numeric cells.
func (c Col) MinMax() (min, max float64, ok bool) {
	for i := 0; i < c.n; i++ {
		r := c.phys(i)
		if c.ids[r] >= 0 {
			continue
		}
		v := c.nums[r]
		if !ok {
			min, max, ok = v, v, true
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, ok
}

// AppendFloats appends the numeric cells to dst in row order and
// returns it; use with a reused scratch slice to gather without
// steady-state allocation.
func (c Col) AppendFloats(dst []float64) []float64 {
	for i := 0; i < c.n; i++ {
		r := c.phys(i)
		if c.ids[r] < 0 {
			dst = append(dst, c.nums[r])
		}
	}
	return dst
}
