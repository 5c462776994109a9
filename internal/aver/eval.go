package aver

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"popper/internal/sched"
	"popper/internal/table"
)

// SlopeMethod selects how scaling tests estimate the growth exponent.
type SlopeMethod int

// Slope estimation methods (the DESIGN.md ablation compares them).
const (
	// SlopeRegression fits least squares on (ln x, ln y) over the group
	// means — robust to noise, the default.
	SlopeRegression SlopeMethod = iota
	// SlopePairwise requires every consecutive pair of x values to
	// satisfy the bound individually — stricter, noise-sensitive.
	SlopePairwise
)

// Evaluator checks assertions against result tables.
//
// Evaluation is vectorized over the table's columnar storage: `when`
// filters compute a row mask and wrap it in a zero-copy view, wildcard
// groups are built in a single hash pass, and aggregate/scaling kernels
// stream over the float columns — no sub-table is ever materialized.
type Evaluator struct {
	// Method selects the slope estimator for scaling tests.
	Method SlopeMethod
	// DefaultTol is the tolerance used when an assertion does not pass
	// one explicitly (scaling tests and constant()).
	DefaultTol float64
	// Jobs bounds the evaluator's concurrency: assertions, `when`
	// groups, and (for large tables) row chunks are checked across a
	// worker pool of this size. Values <= 1 keep evaluation strictly
	// serial. Parallel evaluation is deterministic — results, details
	// and errors are always identical to a serial run.
	Jobs int
}

// rowChunkMin is the table size below which row-level comparisons stay
// serial even when Jobs > 1 — chunking overhead beats the win there.
const rowChunkMin = 512

// NewEvaluator returns an evaluator with the default configuration
// (serial evaluation).
func NewEvaluator() *Evaluator {
	return &Evaluator{Method: SlopeRegression, DefaultTol: 0.05}
}

// GroupResult is the outcome of an assertion on one `when` group.
type GroupResult struct {
	Keys   map[string]string // wildcard column -> value
	Passed bool
	Detail string
}

// Result is the outcome of one assertion over a table.
type Result struct {
	Assertion *Assertion
	Passed    bool
	Groups    []GroupResult
}

// String renders a validation report line.
func (r Result) String() string {
	status := "PASS"
	if !r.Passed {
		status = "FAIL"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  %s", status, r.Assertion.Source)
	for _, g := range r.Groups {
		if !g.Passed {
			fmt.Fprintf(&sb, "\n      group %v: %s", formatKeys(g.Keys), g.Detail)
		}
	}
	return sb.String()
}

func formatKeys(keys map[string]string) string {
	if len(keys) == 0 {
		return "(all rows)"
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = k + "=" + keys[k]
	}
	return strings.Join(parts, ",")
}

// Check evaluates an assertion against a results table.
func (e *Evaluator) Check(a *Assertion, t *table.Table) (Result, error) {
	res := Result{Assertion: a, Passed: true}
	filtered, wildcards, err := applyWhen(a.When, t)
	if err != nil {
		return res, err
	}
	groups, err := splitGroups(filtered, wildcards)
	if err != nil {
		return res, err
	}
	if len(groups) == 0 {
		return Result{Assertion: a, Passed: false, Groups: []GroupResult{{
			Keys: map[string]string{}, Passed: false,
			Detail: "no rows matched the when clause",
		}}}, nil
	}
	if e.Jobs > 1 && len(groups) > 1 {
		type outcome struct {
			passed bool
			detail string
		}
		outs := make([]outcome, len(groups))
		errs := sched.NewPool(e.Jobs).Each(len(groups), func(i int) error {
			passed, detail, err := e.evalExpr(a.Expect, groups[i].rows)
			outs[i] = outcome{passed: passed, detail: detail}
			return err
		})
		for i, g := range groups {
			if errs[i] != nil {
				// Match serial semantics: groups before the first
				// erroring one are reported, the rest dropped.
				return res, errs[i]
			}
			gr := GroupResult{Keys: g.keys, Passed: outs[i].passed, Detail: outs[i].detail}
			if !gr.Passed {
				res.Passed = false
			}
			res.Groups = append(res.Groups, gr)
		}
		return res, nil
	}
	for _, g := range groups {
		passed, detail, err := e.evalExpr(a.Expect, g.rows)
		if err != nil {
			return res, err
		}
		gr := GroupResult{Keys: g.keys, Passed: passed, Detail: detail}
		if !passed {
			res.Passed = false
		}
		res.Groups = append(res.Groups, gr)
	}
	return res, nil
}

// CheckAll evaluates every assertion in a validations file. With
// Jobs > 1 the assertions are checked concurrently; results and errors
// are reported in file order exactly as a serial run would.
func (e *Evaluator) CheckAll(src string, t *table.Table) ([]Result, error) {
	asserts, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	return e.CheckAssertions(asserts, t)
}

// CheckAssertions is CheckAll over a file ParseFile already parsed.
// Checking only reads the assertions, so one parsed file may be
// checked by any number of evaluators at once.
func (e *Evaluator) CheckAssertions(asserts []*Assertion, t *table.Table) ([]Result, error) {
	if e.Jobs > 1 && len(asserts) > 1 {
		out := make([]Result, len(asserts))
		errs := sched.NewPool(e.Jobs).Each(len(asserts), func(i int) error {
			r, err := e.Check(asserts[i], t)
			out[i] = r
			return err
		})
		for i, err := range errs {
			if err != nil {
				return out[:i], err
			}
		}
		return out, nil
	}
	out := make([]Result, 0, len(asserts))
	for _, a := range asserts {
		r, err := e.Check(a, t)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// AllPassed reports whether every result passed.
func AllPassed(results []Result) bool {
	for _, r := range results {
		if !r.Passed {
			return false
		}
	}
	return true
}

// FormatResults renders a full validation report.
func FormatResults(results []Result) string {
	var sb strings.Builder
	for _, r := range results {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// strLit is a string literal compiled against a table: equality checks
// run on interned ids for string cells and on a pre-parsed canonical
// float for numeric cells (a numeric cell matches when its rendered
// text would equal the literal), so the row loop never formats or
// allocates.
type strLit struct {
	str   string
	id    int32 // interned id, valid when found
	found bool
	numOK bool // literal is the canonical text of some float
	num   float64
	nan   bool
}

func compileStrLit(c table.Col, s string) strLit {
	l := strLit{str: s}
	l.id, l.found = c.Lookup(s)
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		if math.IsNaN(f) {
			l.numOK, l.nan = s == "NaN", true
		} else if strconv.FormatFloat(f, 'g', -1, 64) == s {
			l.numOK, l.num = true, f
		}
	}
	return l
}

// eqCell reports whether cell i of c renders to exactly the literal.
func (l strLit) eqCell(c table.Col, i int) bool {
	if id := c.StrID(i); id >= 0 {
		return l.found && id == l.id
	}
	if !l.numOK {
		return false
	}
	v := c.Num(i)
	if l.nan {
		return math.IsNaN(v)
	}
	return v == l.num && math.Signbit(v) == math.Signbit(l.num)
}

// whenFilter is one compiled non-wildcard clause.
type whenFilter struct {
	cl  Clause
	col table.Col
	lit strLit // string clauses only
}

func (f *whenFilter) match(i int) bool {
	if f.cl.IsNum {
		return f.col.IsNum(i) && compareFloats(f.col.Num(i), f.cl.Op, f.cl.Num)
	}
	eq := f.lit.eqCell(f.col, i)
	switch f.cl.Op {
	case "=":
		return eq
	case "!=":
		return !eq
	}
	return false
}

// applyWhen filters rows by non-wildcard clauses and collects wildcard
// column names. All clauses evaluate in one pass over the columnar
// storage, producing a row mask wrapped in a zero-copy view — the
// original table is never copied.
func applyWhen(clauses []Clause, t *table.Table) (*table.Table, []string, error) {
	var wildcards []string
	var filters []whenFilter
	for _, cl := range clauses {
		if !t.HasColumn(cl.Column) {
			return nil, nil, fmt.Errorf("aver: when clause references unknown column %q", cl.Column)
		}
		if cl.Wildcard {
			wildcards = append(wildcards, cl.Column)
			continue
		}
		c, err := t.Col(cl.Column)
		if err != nil {
			return nil, nil, err
		}
		f := whenFilter{cl: cl, col: c}
		if !cl.IsNum {
			f.lit = compileStrLit(c, cl.Str)
		}
		filters = append(filters, f)
	}
	if len(filters) == 0 {
		return t, wildcards, nil
	}
	n := t.Len()
	rows := make([]int, 0, n)
	for i := 0; i < n; i++ {
		keep := true
		for fi := range filters {
			if !filters[fi].match(i) {
				keep = false
				break
			}
		}
		if keep {
			rows = append(rows, i)
		}
	}
	view, err := t.View(rows)
	if err != nil {
		return nil, nil, err
	}
	return view, wildcards, nil
}

func compareFloats(a float64, op string, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	case ">=":
		return a >= b
	}
	return false
}

type group struct {
	keys map[string]string
	rows *table.Table
}

// splitGroups builds every wildcard group in a single hash pass over
// the columnar key columns (no per-row key strings), returning
// zero-copy views in first-seen order.
func splitGroups(t *table.Table, wildcards []string) ([]group, error) {
	if t.Len() == 0 {
		return nil, nil
	}
	if len(wildcards) == 0 {
		return []group{{keys: map[string]string{}, rows: t}}, nil
	}
	gid, ngroups, err := t.GroupIDs(wildcards...)
	if err != nil {
		return nil, err
	}
	cols := make([]table.Col, len(wildcards))
	for i, w := range wildcards {
		c, err := t.Col(w)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	n := t.Len()
	counts := make([]int32, ngroups)
	firstRow := make([]int32, ngroups)
	for i := range firstRow {
		firstRow[i] = -1
	}
	for i := 0; i < n; i++ {
		g := gid[i]
		counts[g]++
		if firstRow[g] < 0 {
			firstRow[g] = int32(i)
		}
	}
	offsets := make([]int32, ngroups+1)
	for g := 0; g < ngroups; g++ {
		offsets[g+1] = offsets[g] + counts[g]
	}
	bucketed := make([]int, n)
	fill := append([]int32(nil), offsets[:ngroups]...)
	for i := 0; i < n; i++ {
		g := gid[i]
		bucketed[fill[g]] = i
		fill[g]++
	}
	out := make([]group, 0, ngroups)
	for g := 0; g < ngroups; g++ {
		keys := make(map[string]string, len(wildcards))
		for i, w := range wildcards {
			keys[w] = cols[i].Text(int(firstRow[g]))
		}
		view, err := t.View(bucketed[offsets[g]:offsets[g+1]])
		if err != nil {
			return nil, err
		}
		out = append(out, group{keys: keys, rows: view})
	}
	return out, nil
}

func (e *Evaluator) evalExpr(expr Expr, t *table.Table) (bool, string, error) {
	switch ex := expr.(type) {
	case LogicalExpr:
		lp, ld, err := e.evalExpr(ex.Left, t)
		if err != nil {
			return false, "", err
		}
		if ex.Op == "and" {
			if !lp {
				return false, ld, nil
			}
			return e.evalExpr(ex.Right, t)
		}
		// or
		if lp {
			return true, ld, nil
		}
		rp, rd, err := e.evalExpr(ex.Right, t)
		if err != nil {
			return false, "", err
		}
		if rp {
			return true, rd, nil
		}
		return false, ld + "; " + rd, nil
	case CallExpr:
		return e.evalCall(ex, t)
	case CompareExpr:
		return e.evalCompare(ex, t)
	}
	return false, "", fmt.Errorf("aver: unknown expression %T", expr)
}

func (e *Evaluator) tol(args []Operand, base int) float64 {
	if len(args) > base {
		if args[base].Kind == OpNumber {
			return args[base].Num
		}
	}
	return e.DefaultTol
}

func (e *Evaluator) evalCall(c CallExpr, t *table.Table) (bool, string, error) {
	colOf := func(i int) (string, error) {
		if c.Args[i].Kind != OpColumn {
			return "", fmt.Errorf("aver: %s: argument %d must be a column name", c.Func, i+1)
		}
		col := c.Args[i].Col
		if !t.HasColumn(col) {
			return "", fmt.Errorf("aver: %s: unknown column %q", c.Func, col)
		}
		return col, nil
	}
	switch c.Func {
	case "sublinear", "linear", "superlinear":
		xcol, err := colOf(0)
		if err != nil {
			return false, "", err
		}
		ycol, err := colOf(1)
		if err != nil {
			return false, "", err
		}
		slope, err := e.scalingSlope(t, xcol, ycol)
		if err != nil {
			return false, "", err
		}
		tol := e.tol(c.Args, 2)
		mag := math.Abs(slope)
		var ok bool
		switch c.Func {
		case "sublinear":
			ok = mag < 1-tol
		case "linear":
			ok = math.Abs(mag-1) <= tol
		case "superlinear":
			ok = mag > 1+tol
		}
		return ok, fmt.Sprintf("%s(%s,%s): slope=%.3f tol=%.3g", c.Func, xcol, ycol, slope, tol), nil
	case "increasing", "decreasing":
		xcol, err := colOf(0)
		if err != nil {
			return false, "", err
		}
		ycol, err := colOf(1)
		if err != nil {
			return false, "", err
		}
		xs, ys, err := meansByX(t, xcol, ycol)
		if err != nil {
			return false, "", err
		}
		if len(xs) < 2 {
			return false, fmt.Sprintf("%s(%s,%s): need at least 2 distinct %s values", c.Func, xcol, ycol, xcol), nil
		}
		ok := true
		for i := 1; i < len(ys); i++ {
			if c.Func == "increasing" && ys[i] <= ys[i-1] {
				ok = false
			}
			if c.Func == "decreasing" && ys[i] >= ys[i-1] {
				ok = false
			}
		}
		return ok, fmt.Sprintf("%s(%s,%s) over %d points", c.Func, xcol, ycol, len(xs)), nil
	case "constant":
		ycol, err := colOf(0)
		if err != nil {
			return false, "", err
		}
		yc, err := numericCol(t, ycol)
		if err != nil {
			return false, "", err
		}
		tol := e.tol(c.Args, 1)
		cv := table.CoeffVar(yc.AppendFloats(nil))
		if math.IsNaN(cv) {
			return false, fmt.Sprintf("constant(%s): undefined CV (zero mean or empty)", ycol), nil
		}
		return cv <= tol, fmt.Sprintf("constant(%s): cv=%.4f tol=%.3g", ycol, cv, tol), nil
	case "within":
		ycol, err := colOf(0)
		if err != nil {
			return false, "", err
		}
		if c.Args[1].Kind != OpNumber || c.Args[2].Kind != OpNumber {
			return false, "", fmt.Errorf("aver: within bounds must be numbers")
		}
		lo, hi := c.Args[1].Num, c.Args[2].Num
		yc, err := numericCol(t, ycol)
		if err != nil {
			return false, "", err
		}
		for i := 0; i < yc.Len(); i++ {
			if y := yc.Num(i); y < lo || y > hi {
				return false, fmt.Sprintf("within(%s,%g,%g): value %g out of range", ycol, lo, hi, y), nil
			}
		}
		return true, fmt.Sprintf("within(%s,%g,%g): %d values", ycol, lo, hi, yc.Len()), nil
	}
	return false, "", fmt.Errorf("aver: unknown test function %q", c.Func)
}

// scalingSlope estimates d(ln y)/d(ln x) per the evaluator's method.
func (e *Evaluator) scalingSlope(t *table.Table, xcol, ycol string) (float64, error) {
	xs, ys, err := meansByX(t, xcol, ycol)
	if err != nil {
		return 0, err
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("aver: scaling test needs at least 2 distinct %s values, have %d", xcol, len(xs))
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, fmt.Errorf("aver: scaling test requires positive %s and %s values", xcol, ycol)
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	switch e.Method {
	case SlopePairwise:
		// Worst-case (largest magnitude) pairwise slope: the strictest
		// reading of "sublinear everywhere".
		worst := 0.0
		for i := 1; i < len(lx); i++ {
			s := (ly[i] - ly[i-1]) / (lx[i] - lx[i-1])
			if math.Abs(s) > math.Abs(worst) {
				worst = s
			}
		}
		return worst, nil
	default:
		mx, my := table.Mean(lx), table.Mean(ly)
		num, den := 0.0, 0.0
		for i := range lx {
			num += (lx[i] - mx) * (ly[i] - my)
			den += (lx[i] - mx) * (lx[i] - mx)
		}
		if den == 0 {
			return 0, fmt.Errorf("aver: all %s values identical", xcol)
		}
		return num / den, nil
	}
}

// meansByX aggregates mean y per distinct numeric x, sorted by x. Both
// columns stream from the columnar storage.
func meansByX(t *table.Table, xcol, ycol string) ([]float64, []float64, error) {
	xc, err := numericCol(t, xcol)
	if err != nil {
		return nil, nil, err
	}
	yc, err := numericCol(t, ycol)
	if err != nil {
		return nil, nil, err
	}
	sums := make(map[float64]float64)
	counts := make(map[float64]int)
	for i := 0; i < xc.Len(); i++ {
		x := xc.Num(i)
		sums[x] += yc.Num(i)
		counts[x]++
	}
	ux := make([]float64, 0, len(sums))
	for x := range sums {
		ux = append(ux, x)
	}
	sort.Float64s(ux)
	uy := make([]float64, len(ux))
	for i, x := range ux {
		uy[i] = sums[x] / float64(counts[x])
	}
	return ux, uy, nil
}

// numericCol returns a zero-copy handle on a column after validating
// every cell is a non-NaN number (strings and NaN cells both fail, as
// the row-oriented evaluator's float materialization did).
func numericCol(t *table.Table, col string) (table.Col, error) {
	if !t.HasColumn(col) {
		return table.Col{}, fmt.Errorf("aver: unknown column %q", col)
	}
	c, err := t.Col(col)
	if err != nil {
		return table.Col{}, err
	}
	for i := 0; i < c.Len(); i++ {
		if math.IsNaN(c.Float(i)) {
			return table.Col{}, fmt.Errorf("aver: column %q row %d is not numeric", col, i)
		}
	}
	return c, nil
}

// compiledOperand is an operand resolved against a table: numbers and
// aggregates collapse to a scalar before the row loop (the row-oriented
// evaluator recomputed aggregates per row), columns become zero-copy
// handles.
type compiledOperand struct {
	kind OperandKind
	num  float64   // OpNumber value or precomputed OpAgg result
	col  table.Col // OpColumn handle
	name string    // OpColumn name, for error messages
}

func (e *Evaluator) compileOperand(o Operand, t *table.Table) (compiledOperand, error) {
	switch o.Kind {
	case OpNumber:
		return compiledOperand{kind: OpNumber, num: o.Num}, nil
	case OpAgg:
		v, err := e.aggregate(o, t)
		if err != nil {
			return compiledOperand{}, err
		}
		return compiledOperand{kind: OpNumber, num: v}, nil
	case OpColumn:
		if !t.HasColumn(o.Col) {
			return compiledOperand{}, fmt.Errorf("aver: unknown column %q", o.Col)
		}
		c, err := t.Col(o.Col)
		if err != nil {
			return compiledOperand{}, err
		}
		return compiledOperand{kind: OpColumn, col: c, name: o.Col}, nil
	}
	return compiledOperand{}, fmt.Errorf("aver: bad operand")
}

func (co *compiledOperand) at(row int) (float64, error) {
	if co.kind != OpColumn {
		return co.num, nil
	}
	if !co.col.IsNum(row) {
		return 0, fmt.Errorf("aver: column %q row %d is not numeric", co.name, row)
	}
	return co.col.Num(row), nil
}

// compiledTerm is a term with every operand resolved; rowLevel reports
// whether any operand reads per-row cells.
type compiledTerm struct {
	first   compiledOperand
	factors []struct {
		op byte
		cp compiledOperand
	}
}

func (e *Evaluator) compileTerm(term Term, t *table.Table) (compiledTerm, error) {
	ct := compiledTerm{}
	first, err := e.compileOperand(term.First, t)
	if err != nil {
		return ct, err
	}
	ct.first = first
	for _, f := range term.Factors {
		cp, err := e.compileOperand(f.Operand, t)
		if err != nil {
			return ct, err
		}
		ct.factors = append(ct.factors, struct {
			op byte
			cp compiledOperand
		}{f.Op, cp})
	}
	return ct, nil
}

func (ct *compiledTerm) at(row int) (float64, error) {
	v, err := ct.first.at(row)
	if err != nil {
		return 0, err
	}
	for i := range ct.factors {
		fv, err := ct.factors[i].cp.at(row)
		if err != nil {
			return 0, err
		}
		switch ct.factors[i].op {
		case '*':
			v *= fv
		case '/':
			if fv == 0 {
				return 0, fmt.Errorf("aver: division by zero in term")
			}
			v /= fv
		}
	}
	return v, nil
}

func (e *Evaluator) evalCompare(c CompareExpr, t *table.Table) (bool, string, error) {
	// A bare word that names no column is a string literal
	// (machine = cloudlab); only plain single-operand terms qualify.
	if len(c.Left.Factors) == 0 && len(c.Right.Factors) == 0 {
		l, r := c.Left.First, c.Right.First
		if l.Kind == OpColumn && !t.HasColumn(l.Col) && r.Kind == OpColumn && t.HasColumn(r.Col) {
			c.Left = termOf(Operand{Kind: OpString, Str: l.Col})
		}
		if r.Kind == OpColumn && !t.HasColumn(r.Col) && l.Kind == OpColumn && t.HasColumn(l.Col) {
			c.Right = termOf(Operand{Kind: OpString, Str: r.Col})
		}
		// String comparisons are row-level equality tests.
		if c.Left.First.Kind == OpString || c.Right.First.Kind == OpString {
			return e.evalStringCompare(c, t)
		}
	}
	rowLevel := termHasColumn(c.Left) || termHasColumn(c.Right)
	if !rowLevel {
		lt, err := e.compileTerm(c.Left, t)
		if err != nil {
			return false, "", err
		}
		lv, err := lt.at(-1)
		if err != nil {
			return false, "", err
		}
		rt, err := e.compileTerm(c.Right, t)
		if err != nil {
			return false, "", err
		}
		rv, err := rt.at(-1)
		if err != nil {
			return false, "", err
		}
		ok := compareFloats(lv, c.Op, rv)
		return ok, fmt.Sprintf("%s %s %s: %.4g %s %.4g",
			describeTerm(c.Left), c.Op, describeTerm(c.Right), lv, c.Op, rv), nil
	}
	// Row-level: every row must satisfy.
	if t.Len() == 0 {
		return false, "no rows", nil
	}
	lt, err := e.compileTerm(c.Left, t)
	if err != nil {
		return false, "", err
	}
	rt, err := e.compileTerm(c.Right, t)
	if err != nil {
		return false, "", err
	}
	if e.Jobs > 1 && t.Len() >= rowChunkMin {
		return e.evalCompareChunked(c, t, &lt, &rt)
	}
	for r := 0; r < t.Len(); r++ {
		ok, detail, err := compareRow(c.Op, &lt, &rt, r)
		if err != nil || !ok {
			return false, detail, err
		}
	}
	return true, fmt.Sprintf("%s %s %s holds for all %d rows",
		describeTerm(c.Left), c.Op, describeTerm(c.Right), t.Len()), nil
}

// compareRow evaluates one row of a row-level comparison over the
// compiled terms.
func compareRow(op string, lt, rt *compiledTerm, r int) (bool, string, error) {
	lv, err := lt.at(r)
	if err != nil {
		return false, "", err
	}
	rv, err := rt.at(r)
	if err != nil {
		return false, "", err
	}
	if !compareFloats(lv, op, rv) {
		return false, fmt.Sprintf("row %d: %.4g %s %.4g is false", r, lv, op, rv), nil
	}
	return true, "", nil
}

// evalCompareChunked scans the rows of a row-level comparison in
// parallel chunks over the shared compiled terms (read-only, so no
// synchronization is needed). Each chunk stops at its first violation
// or error; the lowest-row event wins, so the verdict, detail string
// and error are exactly what a serial scan would report.
func (e *Evaluator) evalCompareChunked(c CompareExpr, t *table.Table, lt, rt *compiledTerm) (bool, string, error) {
	type event struct {
		row    int
		detail string
		err    error
	}
	spans := sched.Chunks(t.Len(), sched.Jobs(e.Jobs))
	events := make([]*event, len(spans))
	sched.NewPool(len(spans)).Each(len(spans), func(i int) error {
		for r := spans[i].Lo; r < spans[i].Hi; r++ {
			ok, detail, err := compareRow(c.Op, lt, rt, r)
			if err != nil || !ok {
				events[i] = &event{row: r, detail: detail, err: err}
				return nil
			}
		}
		return nil
	})
	var first *event
	for _, ev := range events {
		if ev != nil && (first == nil || ev.row < first.row) {
			first = ev
		}
	}
	if first != nil {
		return false, first.detail, first.err
	}
	return true, fmt.Sprintf("%s %s %s holds for all %d rows",
		describeTerm(c.Left), c.Op, describeTerm(c.Right), t.Len()), nil
}

func termHasColumn(t Term) bool {
	if t.First.Kind == OpColumn {
		return true
	}
	for _, f := range t.Factors {
		if f.Operand.Kind == OpColumn {
			return true
		}
	}
	return false
}

func describeTerm(t Term) string {
	s := describe(t.First)
	for _, f := range t.Factors {
		s += " " + string(f.Op) + " " + describe(f.Operand)
	}
	return s
}

func (e *Evaluator) evalStringCompare(c CompareExpr, t *table.Table) (bool, string, error) {
	if c.Op != "=" && c.Op != "!=" {
		return false, "", fmt.Errorf("aver: string comparison supports only = and !=")
	}
	col, lit := c.Left.First, c.Right.First
	if col.Kind == OpString {
		col, lit = lit, col
	}
	if col.Kind != OpColumn {
		return false, "", fmt.Errorf("aver: string comparison needs a column operand")
	}
	if !t.HasColumn(col.Col) {
		return false, "", fmt.Errorf("aver: unknown column %q", col.Col)
	}
	if t.Len() == 0 {
		return false, "no rows", nil
	}
	cc, err := t.Col(col.Col)
	if err != nil {
		return false, "", err
	}
	clit := compileStrLit(cc, lit.Str)
	for r := 0; r < t.Len(); r++ {
		ok := clit.eqCell(cc, r)
		if c.Op == "!=" {
			ok = !ok
		}
		if !ok {
			return false, fmt.Sprintf("row %d: %s=%q fails %s %q", r, col.Col, cc.Text(r), c.Op, lit.Str), nil
		}
	}
	return true, fmt.Sprintf("%s %s %q for all rows", col.Col, c.Op, lit.Str), nil
}

// aggregate computes a scalar aggregate by streaming over the column.
func (e *Evaluator) aggregate(o Operand, t *table.Table) (float64, error) {
	if o.Agg == "count" {
		return float64(t.Len()), nil
	}
	c, err := numericCol(t, o.Col)
	if err != nil {
		return 0, err
	}
	n := c.Len()
	if n == 0 {
		return 0, fmt.Errorf("aver: %s(%s) over empty group", o.Agg, o.Col)
	}
	switch o.Agg {
	case "avg":
		return c.Sum() / float64(n), nil
	case "sum":
		return c.Sum(), nil
	case "min":
		m, _, _ := c.MinMax()
		return m, nil
	case "max":
		_, m, _ := c.MinMax()
		return m, nil
	case "median":
		return table.Median(c.AppendFloats(nil)), nil
	case "stddev":
		return table.StdDev(c.AppendFloats(nil)), nil
	case "cv":
		return table.CoeffVar(c.AppendFloats(nil)), nil
	}
	return 0, fmt.Errorf("aver: unknown aggregate %q", o.Agg)
}

func describe(o Operand) string {
	switch o.Kind {
	case OpNumber:
		return fmt.Sprintf("%g", o.Num)
	case OpString:
		return fmt.Sprintf("%q", o.Str)
	case OpColumn:
		return o.Col
	case OpAgg:
		if o.Agg == "count" && o.Col == "" {
			return "count(*)"
		}
		return o.Agg + "(" + o.Col + ")"
	}
	return "?"
}
