package table

import (
	"fmt"
	"math"
)

// cellKey is an allocation-free composite-map key for one cell: the
// interned string id for string cells, the float bit pattern for
// numeric cells (NaNs canonicalized so all NaN payloads group together,
// matching Value.Equal).
type cellKey struct {
	bits  uint64
	isStr bool
}

var canonicalNaN = math.Float64bits(math.NaN())

func (c *column) key(r int32) cellKey {
	if id := c.ids[r]; id >= 0 {
		return cellKey{bits: uint64(id), isStr: true}
	}
	bits := math.Float64bits(c.nums[r])
	if math.IsNaN(c.nums[r]) {
		bits = canonicalNaN
	}
	return cellKey{bits: bits}
}

// Unique returns the distinct values of a column in first-seen order.
func (t *Table) Unique(col string) ([]Value, error) {
	ci, ok := t.index[col]
	if !ok {
		return nil, fmt.Errorf("table: no column %q", col)
	}
	c := &t.st.cols[t.refs[ci]]
	n := t.Len()
	seen := make(map[cellKey]bool, n)
	var out []Value
	for i := 0; i < n; i++ {
		r := t.phys(i)
		k := c.key(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, t.valueAt(ci, r))
		}
	}
	return out, nil
}

// Agg names an aggregation over a column within a group.
type Agg struct {
	Col string // source column
	Op  string // one of: mean, sum, min, max, count, median, stddev, first
	As  string // output column name; defaults to Op+"_"+Col
}

func (a Agg) name() string {
	if a.As != "" {
		return a.As
	}
	return a.Op + "_" + a.Col
}

// groupRows assigns every row of t a dense group id keyed on the given
// store columns, in a single pass per key column with no per-row string
// building: group ids thread through a (parent-group, cell) hash. Ids
// are numbered in first-seen row order. Returns the per-row ids and the
// group count.
func (t *Table) groupRows(keyRefs []int) ([]int32, int) {
	n := t.Len()
	if n == 0 {
		return nil, 0
	}
	gid := make([]int32, n)
	ngroups := 1
	type gkey struct {
		parent int32
		cell   cellKey
	}
	for _, ref := range keyRefs {
		c := &t.st.cols[ref]
		seen := make(map[gkey]int32, ngroups*2)
		next := int32(0)
		for i := 0; i < n; i++ {
			k := gkey{parent: gid[i], cell: c.key(t.phys(i))}
			g, ok := seen[k]
			if !ok {
				g = next
				next++
				seen[k] = g
			}
			gid[i] = g
		}
		ngroups = int(next)
	}
	return gid, ngroups
}

// GroupIDs assigns every row a dense group id keyed on the named
// columns, numbered in first-seen row order. It exposes the single-pass
// grouping primitive GroupBy is built on, so evaluators can bucket rows
// into zero-copy views without building per-row key strings.
func (t *Table) GroupIDs(keys ...string) ([]int32, int, error) {
	keyRefs := make([]int, len(keys))
	for i, k := range keys {
		ci, ok := t.index[k]
		if !ok {
			return nil, 0, fmt.Errorf("table: no column %q", k)
		}
		keyRefs[i] = t.refs[ci]
	}
	gid, ngroups := t.groupRows(keyRefs)
	return gid, ngroups, nil
}

// GroupBy groups rows by key columns and computes the aggregations.
// Groups appear in first-seen order.
func (t *Table) GroupBy(keys []string, aggs ...Agg) (*Table, error) {
	keyRefs := make([]int, len(keys))
	for i, k := range keys {
		ci, ok := t.index[k]
		if !ok {
			return nil, fmt.Errorf("table: no column %q", k)
		}
		keyRefs[i] = t.refs[ci]
	}
	aggRefs := make([]int, len(aggs))
	for i, a := range aggs {
		ci, ok := t.index[a.Col]
		if !ok {
			return nil, fmt.Errorf("table: no column %q", a.Col)
		}
		aggRefs[i] = t.refs[ci]
		switch a.Op {
		case "mean", "sum", "min", "max", "count", "median", "stddev", "first":
		default:
			return nil, fmt.Errorf("table: unknown aggregation %q", a.Op)
		}
	}
	outCols := append([]string(nil), keys...)
	for _, a := range aggs {
		outCols = append(outCols, a.name())
	}
	out := New(outCols...)

	gid, ngroups := t.groupRows(keyRefs)
	n := t.Len()

	// Bucket physical rows by group, preserving row order within each.
	counts := make([]int32, ngroups)
	firstRow := make([]int32, ngroups)
	for i := range firstRow {
		firstRow[i] = -1
	}
	for i := 0; i < n; i++ {
		g := gid[i]
		counts[g]++
		if firstRow[g] < 0 {
			firstRow[g] = t.phys(i)
		}
	}
	offsets := make([]int32, ngroups+1)
	for g := 0; g < ngroups; g++ {
		offsets[g+1] = offsets[g] + counts[g]
	}
	bucketed := make([]int32, n)
	fill := append([]int32(nil), offsets[:ngroups]...)
	for i := 0; i < n; i++ {
		g := gid[i]
		bucketed[fill[g]] = t.phys(i)
		fill[g]++
	}

	var scratch []float64
	row := make([]Value, 0, len(outCols))
	for g := 0; g < ngroups; g++ {
		rows := bucketed[offsets[g]:offsets[g+1]]
		row = row[:0]
		for i := range keys {
			row = append(row, t.valueAt(t.index[keys[i]], firstRow[g]))
		}
		for i, a := range aggs {
			var v Value
			v, scratch = aggregateRows(a.Op, &t.st.cols[aggRefs[i]], t.st.dict, rows, scratch)
			row = append(row, v)
		}
		if err := out.Append(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// aggregateRows computes one aggregate over a set of physical rows of a
// store column, reusing scratch for the kernels that need a gathered
// slice (median). Streaming kernels (sum, mean, min, max) run directly
// over the columnar storage.
func aggregateRows(op string, c *column, d *dict, rows []int32, scratch []float64) (Value, []float64) {
	switch op {
	case "count":
		return Number(float64(len(rows))), scratch
	case "first":
		if len(rows) == 0 {
			return String(""), scratch
		}
		r := rows[0]
		if id := c.ids[r]; id >= 0 {
			return String(d.str(id)), scratch
		}
		return Number(c.nums[r]), scratch
	}
	nnum := 0
	sum := 0.0
	var min, max float64
	for _, r := range rows {
		if c.ids[r] >= 0 {
			continue
		}
		v := c.nums[r]
		if nnum == 0 {
			min, max = v, v
		} else {
			// Seed-first with strict compares: NaN seeds stick, later
			// NaNs are ignored (row-oriented semantics).
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		nnum++
		sum += v
	}
	if nnum == 0 {
		return Number(math.NaN()), scratch
	}
	switch op {
	case "sum":
		return Number(sum), scratch
	case "mean":
		return Number(sum / float64(nnum)), scratch
	case "min":
		return Number(min), scratch
	case "max":
		return Number(max), scratch
	case "stddev":
		if nnum < 2 {
			return Number(0), scratch
		}
		m := sum / float64(nnum)
		ss := 0.0
		for _, r := range rows {
			if c.ids[r] >= 0 {
				continue
			}
			dv := c.nums[r] - m
			ss += float64(dv * dv)
		}
		return Number(math.Sqrt(ss / float64(nnum-1))), scratch
	case "median":
		scratch = scratch[:0]
		for _, r := range rows {
			if c.ids[r] < 0 {
				scratch = append(scratch, c.nums[r])
			}
		}
		return Number(Median(scratch)), scratch
	}
	return Number(math.NaN()), scratch
}

// Join performs an inner join on equal values of the named column.
// Right-hand columns that collide are suffixed with "_r".
func (t *Table) Join(right *Table, on string) (*Table, error) {
	li, ok := t.index[on]
	if !ok {
		return nil, fmt.Errorf("table: left has no column %q", on)
	}
	ri, ok := right.index[on]
	if !ok {
		return nil, fmt.Errorf("table: right has no column %q", on)
	}
	outCols := append([]string(nil), t.cols...)
	var rightKeep []int
	for ci, c := range right.cols {
		if ci == ri {
			continue
		}
		rightKeep = append(rightKeep, ci)
		if t.HasColumn(c) {
			c += "_r"
		}
		outCols = append(outCols, c)
	}
	out := New(outCols...)
	// Hash the right side by rendered text (numbers join strings with
	// equal canonical text, as the row-oriented implementation did).
	rIndex := make(map[string][]int)
	for r := 0; r < right.Len(); r++ {
		k := right.valueAt(ri, right.phys(r)).Text()
		rIndex[k] = append(rIndex[k], r)
	}
	for lr := 0; lr < t.Len(); lr++ {
		for _, rr := range rIndex[t.valueAt(li, t.phys(lr)).Text()] {
			row := t.Row(lr)
			for _, ci := range rightKeep {
				row = append(row, right.valueAt(ci, right.phys(rr)))
			}
			if err := out.Append(row...); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
