package aver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"popper/internal/table"
)

// Streaming evaluation: assertions are checked incrementally as result
// rows arrive in batches, so a violation surfaces after O(delta) work
// per batch instead of a full-table re-scan. The stream evaluator
// classifies each assertion at compile time:
//
//   - Incremental: `when` filters run per appended row, wildcard groups
//     are keyed on interned cell identities (the same identities the
//     batch evaluator's GroupIDs pass uses), and the expectation
//     compiles into kernels over per-group running state —
//     count/sum/min/max (and mean as sum/count) for aggregate
//     comparisons, frozen first-event cells for row-level, string and
//     within() kernels. Accumulation follows the batch evaluator's row
//     order exactly, so every verdict, detail string and error is
//     byte-identical to Check on the same prefix.
//   - Deferred: shapes without an O(1) running form (median/stddev/cv
//     aggregates, scaling tests, malformed references) fall back to the
//     batch evaluator over the consumed prefix whenever results are
//     assembled; Observe stays O(delta) regardless.
//
// Periodic full-table rechecks (doubling schedule by default) re-run
// the batch evaluator over the whole prefix and fail loudly if any
// incremental verdict diverges — the proof obligation that keeps the
// fast path honest.
//
// A kernel whose group can never pass again (a row-level violation is
// permanent: the failing row never leaves the table) marks the
// assertion unsatisfiable — the fail-fast signal sweeps use to cancel
// doomed configurations mid-run.

// ErrUnsatisfiable marks a streamed assertion that no future rows can
// satisfy; fail-fast cancellation wraps it.
var ErrUnsatisfiable = errors.New("aver: assertion unsatisfiable")

// StreamOptions tunes a stream evaluator.
type StreamOptions struct {
	// RecheckEvery is the full-table recheck cadence in consumed rows:
	// > 0 rechecks every that-many rows, 0 (the default) rechecks on a
	// doubling row schedule (amortized O(1) per row), < 0 disables
	// automatic rechecks (explicit Recheck calls still work).
	RecheckEvery int
}

// StreamViolation is one currently-violated assertion group.
type StreamViolation struct {
	Assertion *Assertion
	Keys      map[string]string // wildcard column -> value
	Detail    string            // batch-identical detail (or error text)
	Row       int               // consumed prefix length when surfaced
	// Final reports that no future rows can flip the group back to
	// passing (row-level kernels fail permanently; aggregate
	// comparisons stay provisional).
	Final bool
}

// Err renders the violation as a fail-fast error wrapping
// ErrUnsatisfiable.
func (v *StreamViolation) Err() error {
	return fmt.Errorf("%w: %s: group %s: %s",
		ErrUnsatisfiable, v.Assertion.Source, formatKeys(v.Keys), v.Detail)
}

// StreamEvaluator evaluates a validations file incrementally over a
// growing results table. Not safe for concurrent use — one producer
// feeds it.
type StreamEvaluator struct {
	ev      *Evaluator
	asserts []*Assertion
	states  []*assertState

	tab      *table.Table
	rows     int // consumed prefix length
	compiled bool

	// shared column registry: every column any kernel reads, with
	// handles rebound at each Observe (appends can regrow the backing
	// arrays).
	colNames []string
	colIdx   map[string]int
	cols     []table.Col

	recheckEvery int
	nextRecheck  int
	lastRecheck  int
	rechecks     int

	unsat *StreamViolation
}

// Stream parses a validations file into a streaming evaluator. The
// evaluator's Method/DefaultTol/Jobs govern the batch side (rechecks
// and deferred assertions) exactly as in CheckAll.
func (e *Evaluator) Stream(src string, opts StreamOptions) (*StreamEvaluator, error) {
	asserts, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	return e.StreamAssertions(asserts, opts), nil
}

// StreamAssertions is Stream over a file ParseFile already parsed; the
// assertions are only read, as in CheckAssertions.
func (e *Evaluator) StreamAssertions(asserts []*Assertion, opts StreamOptions) *StreamEvaluator {
	return &StreamEvaluator{
		ev:           e,
		asserts:      asserts,
		colIdx:       make(map[string]int),
		recheckEvery: opts.RecheckEvery,
		nextRecheck:  1024,
	}
}

// colRef registers a referenced column and returns its handle index.
func (s *StreamEvaluator) colRef(name string) int {
	if i, ok := s.colIdx[name]; ok {
		return i
	}
	i := len(s.colNames)
	s.colIdx[name] = i
	s.colNames = append(s.colNames, name)
	return i
}

// Rows returns the consumed prefix length.
func (s *StreamEvaluator) Rows() int { return s.rows }

// Rechecks returns how many full-table rechecks have run.
func (s *StreamEvaluator) Rechecks() int { return s.rechecks }

// Incremental returns how many assertions compiled to incremental
// kernels (the rest are deferred to batch evaluation).
func (s *StreamEvaluator) Incremental() int {
	n := 0
	for _, st := range s.states {
		if !st.deferred {
			n++
		}
	}
	return n
}

// Unsatisfiable returns the first assertion group proven impossible to
// satisfy, or nil. The verdict is permanent: once set it never clears.
func (s *StreamEvaluator) Unsatisfiable() *StreamViolation { return s.unsat }

// Observe consumes rows [Rows(), t.Len()) of the growing results table.
// Every call must pass the same logically-growing table (append-only:
// consumed rows never change). The work is O(new rows); automatic
// rechecks add an amortized O(1) per row on the default schedule. An
// error means either misuse (shrinking table) or — from a recheck — an
// incremental/batch divergence, which is a bug worth failing loudly on.
func (s *StreamEvaluator) Observe(t *table.Table) error {
	if !s.compiled {
		s.compile(t)
		s.compiled = true
	}
	s.tab = t
	n := t.Len()
	if n < s.rows {
		return fmt.Errorf("aver: stream table shrank from %d to %d rows", s.rows, n)
	}
	if n > s.rows {
		s.bind(t)
		for _, st := range s.states {
			if st.deferred {
				continue
			}
			for row := s.rows; row < n; row++ {
				st.stepRow(s, row)
			}
		}
		s.rows = n
		if s.unsat == nil {
			s.findUnsat()
		}
	}
	if s.recheckDue() {
		return s.Recheck()
	}
	return nil
}

func (s *StreamEvaluator) recheckDue() bool {
	if s.recheckEvery < 0 {
		return false
	}
	if s.recheckEvery > 0 {
		return s.rows-s.lastRecheck >= s.recheckEvery
	}
	return s.rows >= s.nextRecheck
}

// bind refreshes the shared column handles against the current storage.
func (s *StreamEvaluator) bind(t *table.Table) {
	if s.cols == nil {
		s.cols = make([]table.Col, len(s.colNames))
	}
	for i, name := range s.colNames {
		c, err := t.Col(name)
		if err != nil {
			// compile only registers existing columns; a vanished column
			// means the caller swapped tables — the recheck will report it.
			continue
		}
		s.cols[i] = c
	}
}

// prefix returns the consumed prefix as a table (the table itself when
// fully consumed, a zero-copy view otherwise).
func (s *StreamEvaluator) prefix() *table.Table {
	if s.tab == nil {
		return table.New()
	}
	if s.rows == s.tab.Len() {
		return s.tab
	}
	rows := make([]int, s.rows)
	for i := range rows {
		rows[i] = i
	}
	v, err := s.tab.View(rows)
	if err != nil {
		return s.tab
	}
	return v
}

// Results assembles the verdicts over the consumed prefix —
// byte-identical to CheckAll(src, prefix): incremental assertions from
// running state, deferred ones via the batch evaluator.
func (s *StreamEvaluator) Results() ([]Result, error) {
	t := s.prefix()
	out := make([]Result, 0, len(s.asserts))
	for _, st := range s.states {
		var r Result
		var err error
		if st.deferred || !s.compiled {
			r, err = s.ev.Check(st.a, t)
		} else {
			r, err = st.assemble()
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Violations lists the currently-violated groups of incremental
// assertions (deferred assertions report only through Results and
// rechecks). Provisional entries (Final=false) can clear as more rows
// arrive; Final ones cannot.
func (s *StreamEvaluator) Violations() []StreamViolation {
	var out []StreamViolation
	for _, st := range s.states {
		if st.deferred {
			continue
		}
		for _, g := range st.order {
			pass, detail, err := st.root.eval(g)
			if err != nil {
				detail = err.Error()
			}
			if err != nil || !pass {
				out = append(out, StreamViolation{
					Assertion: st.a, Keys: g.keys, Detail: detail,
					Row: s.rows, Final: st.root.unsat(g),
				})
			}
		}
	}
	return out
}

// findUnsat records the first definitively-failed group, scanning
// assertions in file order and groups in first-seen order.
func (s *StreamEvaluator) findUnsat() {
	for _, st := range s.states {
		if st.deferred {
			continue
		}
		for _, g := range st.order {
			if !st.root.unsat(g) {
				continue
			}
			_, detail, err := st.root.eval(g)
			if err != nil {
				detail = err.Error()
			}
			s.unsat = &StreamViolation{
				Assertion: st.a, Keys: g.keys, Detail: detail,
				Row: s.rows, Final: true,
			}
			return
		}
	}
}

// Recheck re-evaluates the full consumed prefix with the batch
// evaluator and errors if any incremental verdict diverges. Cheap
// relative to its cadence; the returned error is the byte-identity
// proof failing.
func (s *StreamEvaluator) Recheck() error {
	s.rechecks++
	s.lastRecheck = s.rows
	for s.nextRecheck <= s.rows {
		s.nextRecheck *= 2
	}
	t := s.prefix()
	want := make([]Result, 0, len(s.asserts))
	var wantErr error
	for _, a := range s.asserts {
		r, err := s.ev.Check(a, t)
		if err != nil {
			wantErr = err
			break
		}
		want = append(want, r)
	}
	got, gotErr := s.Results()
	if (gotErr == nil) != (wantErr == nil) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("aver: stream recheck diverged at %d rows: incremental error %v, batch error %v",
			s.rows, gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("aver: stream recheck diverged at %d rows: %d incremental results, %d batch",
			s.rows, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("aver: stream recheck diverged at %d rows on %q:\nincremental: %+v\nbatch:       %+v",
				s.rows, s.asserts[i].Source, got[i], want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Per-assertion streaming state
// ---------------------------------------------------------------------

type assertState struct {
	a        *Assertion
	deferred bool

	wildcards []string // wildcard clause columns, in clause order
	wcolIdx   []int    // their handle indices
	filters   []streamClause

	root     streamNode
	nAggs    int
	nKernels int

	matched int
	groups  map[string]*groupState
	order   []*groupState
	keyBuf  []byte
}

type groupState struct {
	keys    map[string]string
	n       int // rows in the group so far (== group-local next index)
	aggs    []aggCell
	kernels []kernelCell
}

// aggCell is the running state of one aggregate operand: count, sum and
// running min/max accumulated in the batch evaluator's row order, plus
// the first non-numeric row (which turns the aggregate into the same
// error numericCol would report).
type aggCell struct {
	n        int
	sum      float64
	min, max float64
	errRow   int
}

// kernelCell is the state of one row-level kernel. Plain comparisons
// freeze at their first event (the batch row loop stops there); within()
// keeps scanning for non-numeric cells because its numericCol pass
// precedes the range loop.
type kernelCell struct {
	frozen bool
	failed bool
	detail string
	err    error
	errRow int // within(): first non-numeric row, -1 none
}

// stepRow feeds one table row (physical index phys) through the
// assertion: when-filters, group routing, kernel updates.
func (st *assertState) stepRow(s *StreamEvaluator, phys int) {
	for i := range st.filters {
		if !st.filters[i].match(s, phys) {
			return
		}
	}
	st.matched++
	g := st.group(s, phys)
	local := g.n
	g.n++
	st.root.step(s, g, phys, local)
}

// group routes a matching row to its wildcard group, creating it (in
// first-seen order, with batch-identical keys) on first sight. The map
// key mirrors the batch GroupIDs cell identity: interned string ids and
// canonicalized float bit patterns.
func (st *assertState) group(s *StreamEvaluator, phys int) *groupState {
	if len(st.wildcards) == 0 {
		if len(st.order) == 0 {
			g := st.newGroup(map[string]string{})
			st.order = append(st.order, g)
		}
		return st.order[0]
	}
	buf := st.keyBuf[:0]
	for _, ci := range st.wcolIdx {
		c := s.cols[ci]
		if id := c.StrID(phys); id >= 0 {
			buf = append(buf, 's')
			buf = binary.BigEndian.AppendUint64(buf, uint64(id))
		} else {
			v := c.Num(phys)
			bits := math.Float64bits(v)
			if math.IsNaN(v) {
				bits = math.Float64bits(math.NaN())
			}
			buf = append(buf, 'n')
			buf = binary.BigEndian.AppendUint64(buf, bits)
		}
	}
	st.keyBuf = buf
	if g, ok := st.groups[string(buf)]; ok {
		return g
	}
	keys := make(map[string]string, len(st.wildcards))
	for i, w := range st.wildcards {
		keys[w] = s.cols[st.wcolIdx[i]].Text(phys)
	}
	g := st.newGroup(keys)
	if st.groups == nil {
		st.groups = make(map[string]*groupState)
	}
	st.groups[string(buf)] = g
	st.order = append(st.order, g)
	return g
}

func (st *assertState) newGroup(keys map[string]string) *groupState {
	g := &groupState{keys: keys}
	if st.nAggs > 0 {
		g.aggs = make([]aggCell, st.nAggs)
		for i := range g.aggs {
			g.aggs[i].errRow = -1
		}
	}
	if st.nKernels > 0 {
		g.kernels = make([]kernelCell, st.nKernels)
		for i := range g.kernels {
			g.kernels[i].errRow = -1
		}
	}
	return g
}

// assemble builds the assertion's Result from running state,
// byte-identical to the batch Check over the same prefix.
func (st *assertState) assemble() (Result, error) {
	res := Result{Assertion: st.a, Passed: true}
	if st.matched == 0 {
		return Result{Assertion: st.a, Passed: false, Groups: []GroupResult{{
			Keys: map[string]string{}, Passed: false,
			Detail: "no rows matched the when clause",
		}}}, nil
	}
	for _, g := range st.order {
		passed, detail, err := st.root.eval(g)
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

// ---------------------------------------------------------------------
// Compilation: classify each assertion and build incremental kernels
// ---------------------------------------------------------------------

// compile classifies every assertion against the stream's schema. It
// never fails: shapes the incremental engine cannot reproduce
// faithfully (including schema errors, which the batch evaluator turns
// into specific eval-time errors) defer to batch evaluation.
func (s *StreamEvaluator) compile(t *table.Table) {
	s.states = make([]*assertState, len(s.asserts))
	for i, a := range s.asserts {
		s.states[i] = s.compileAssert(a, t)
	}
}

func (s *StreamEvaluator) compileAssert(a *Assertion, t *table.Table) *assertState {
	st := &assertState{a: a}
	for _, cl := range a.When {
		if !t.HasColumn(cl.Column) {
			st.deferred = true
			return st
		}
		if cl.Wildcard {
			st.wildcards = append(st.wildcards, cl.Column)
			st.wcolIdx = append(st.wcolIdx, s.colRef(cl.Column))
			continue
		}
		sc := streamClause{cl: cl, colIdx: s.colRef(cl.Column)}
		if !cl.IsNum {
			sc.numOK, sc.num, sc.nan = compileLitNum(cl.Str)
		}
		st.filters = append(st.filters, sc)
	}
	c := &nodeCompiler{s: s, st: st, t: t}
	root, ok := c.compileExpr(a.Expect)
	if !ok {
		st.deferred = true
		return st
	}
	st.root = root
	return st
}

type nodeCompiler struct {
	s  *StreamEvaluator
	st *assertState
	t  *table.Table
}

func (c *nodeCompiler) compileExpr(e Expr) (streamNode, bool) {
	switch ex := e.(type) {
	case LogicalExpr:
		l, ok := c.compileExpr(ex.Left)
		if !ok {
			return nil, false
		}
		r, ok := c.compileExpr(ex.Right)
		if !ok {
			return nil, false
		}
		return &logicalNode{op: ex.Op, left: l, right: r}, true
	case CallExpr:
		return c.compileCall(ex)
	case CompareExpr:
		return c.compileCompare(ex)
	}
	return nil, false
}

func (c *nodeCompiler) compileCall(ex CallExpr) (streamNode, bool) {
	if ex.Func != "within" || len(ex.Args) != 3 {
		return nil, false
	}
	if ex.Args[0].Kind != OpColumn || !c.t.HasColumn(ex.Args[0].Col) {
		return nil, false
	}
	if ex.Args[1].Kind != OpNumber || ex.Args[2].Kind != OpNumber {
		return nil, false
	}
	n := &withinNode{
		kidx:    c.st.nKernels,
		colIdx:  c.s.colRef(ex.Args[0].Col),
		colName: ex.Args[0].Col,
		lo:      ex.Args[1].Num,
		hi:      ex.Args[2].Num,
	}
	c.st.nKernels++
	return n, true
}

func (c *nodeCompiler) compileCompare(ex CompareExpr) (streamNode, bool) {
	// Mirror evalCompare's preamble: a bare word naming no column is a
	// string literal when the other side is a real column.
	if len(ex.Left.Factors) == 0 && len(ex.Right.Factors) == 0 {
		l, r := ex.Left.First, ex.Right.First
		if l.Kind == OpColumn && !c.t.HasColumn(l.Col) && r.Kind == OpColumn && c.t.HasColumn(r.Col) {
			ex.Left = termOf(Operand{Kind: OpString, Str: l.Col})
		}
		if r.Kind == OpColumn && !c.t.HasColumn(r.Col) && l.Kind == OpColumn && c.t.HasColumn(l.Col) {
			ex.Right = termOf(Operand{Kind: OpString, Str: r.Col})
		}
		if ex.Left.First.Kind == OpString || ex.Right.First.Kind == OpString {
			return c.compileStringCompare(ex)
		}
	}
	if termHasColumn(ex.Left) || termHasColumn(ex.Right) {
		return c.compileRowCompare(ex)
	}
	return c.compileScalarCompare(ex)
}

func (c *nodeCompiler) compileStringCompare(ex CompareExpr) (streamNode, bool) {
	if ex.Op != "=" && ex.Op != "!=" {
		return nil, false
	}
	col, lit := ex.Left.First, ex.Right.First
	if col.Kind == OpString {
		col, lit = lit, col
	}
	if col.Kind != OpColumn || lit.Kind != OpString || !c.t.HasColumn(col.Col) {
		return nil, false
	}
	n := &strCmpNode{
		kidx:    c.st.nKernels,
		op:      ex.Op,
		colIdx:  c.s.colRef(col.Col),
		colName: col.Col,
		lit:     lit.Str,
	}
	n.numOK, n.num, n.nan = compileLitNum(lit.Str)
	c.st.nKernels++
	return n, true
}

func (c *nodeCompiler) compileScalarCompare(ex CompareExpr) (streamNode, bool) {
	l, ok := c.compileScalarTerm(ex.Left)
	if !ok {
		return nil, false
	}
	r, ok := c.compileScalarTerm(ex.Right)
	if !ok {
		return nil, false
	}
	return &scalarCmpNode{op: ex.Op, lAST: ex.Left, rAST: ex.Right, left: l, right: r}, true
}

func (c *nodeCompiler) compileScalarTerm(t Term) (scalarTerm, bool) {
	out := scalarTerm{}
	first, ok := c.compileScalarOp(t.First)
	if !ok {
		return out, false
	}
	out.first = first
	for _, f := range t.Factors {
		so, ok := c.compileScalarOp(f.Operand)
		if !ok {
			return out, false
		}
		out.factors = append(out.factors, scalarFactor{op: f.Op, so: so})
	}
	return out, true
}

func (c *nodeCompiler) compileScalarOp(o Operand) (scalarOp, bool) {
	switch o.Kind {
	case OpNumber:
		return scalarOp{kind: OpNumber, num: o.Num}, true
	case OpAgg:
		if o.Agg == "count" {
			return scalarOp{kind: OpAgg, agg: "count", aggIdx: -1}, true
		}
		switch o.Agg {
		case "avg", "sum", "min", "max":
		default:
			return scalarOp{}, false // median/stddev/cv have no O(1) running form
		}
		if !c.t.HasColumn(o.Col) {
			return scalarOp{}, false
		}
		so := scalarOp{
			kind: OpAgg, agg: o.Agg, colName: o.Col,
			colIdx: c.s.colRef(o.Col), aggIdx: c.st.nAggs,
		}
		c.st.nAggs++
		return so, true
	}
	return scalarOp{}, false
}

func (c *nodeCompiler) compileRowCompare(ex CompareExpr) (streamNode, bool) {
	l, ok := c.compileRowTerm(ex.Left)
	if !ok {
		return nil, false
	}
	r, ok := c.compileRowTerm(ex.Right)
	if !ok {
		return nil, false
	}
	n := &rowCmpNode{kidx: c.st.nKernels, op: ex.Op, lAST: ex.Left, rAST: ex.Right, left: l, right: r}
	c.st.nKernels++
	return n, true
}

func (c *nodeCompiler) compileRowTerm(t Term) (rowTerm, bool) {
	out := rowTerm{}
	first, ok := c.compileRowOp(t.First)
	if !ok {
		return out, false
	}
	out.first = first
	for _, f := range t.Factors {
		ro, ok := c.compileRowOp(f.Operand)
		if !ok {
			return out, false
		}
		out.factors = append(out.factors, rowFactor{op: f.Op, ro: ro})
	}
	return out, true
}

func (c *nodeCompiler) compileRowOp(o Operand) (rowOp, bool) {
	switch o.Kind {
	case OpNumber:
		return rowOp{kind: OpNumber, num: o.Num}, true
	case OpColumn:
		if !c.t.HasColumn(o.Col) {
			return rowOp{}, false
		}
		return rowOp{kind: OpColumn, colIdx: c.s.colRef(o.Col), colName: o.Col}, true
	}
	// Aggregates inside a row-level term re-aggregate as rows arrive,
	// invalidating already-checked rows — not incrementally evaluable.
	return rowOp{}, false
}

// compileLitNum pre-parses the numeric rendering of a literal: a
// numeric cell equals the literal iff the cell's canonical text would
// be exactly it (mirrors compileStrLit, minus the interned-id cache —
// a stream can intern the literal mid-batch, so string cells compare
// through the dictionary text instead).
func compileLitNum(s string) (numOK bool, num float64, nan bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return false, 0, false
	}
	if math.IsNaN(f) {
		return s == "NaN", 0, true
	}
	if strconv.FormatFloat(f, 'g', -1, 64) == s {
		return true, f, false
	}
	return false, 0, false
}

// eqText reports whether cell phys renders exactly to the literal —
// the streaming counterpart of strLit.eqCell.
func eqText(c table.Col, phys int, lit string, numOK bool, num float64, nan bool) bool {
	if c.StrID(phys) >= 0 {
		return c.Text(phys) == lit
	}
	if !numOK {
		return false
	}
	v := c.Num(phys)
	if nan {
		return math.IsNaN(v)
	}
	return v == num && math.Signbit(v) == math.Signbit(num)
}

// streamClause is one compiled non-wildcard when clause.
type streamClause struct {
	cl     Clause
	colIdx int
	numOK  bool
	num    float64
	nan    bool
}

func (f *streamClause) match(s *StreamEvaluator, phys int) bool {
	c := s.cols[f.colIdx]
	if f.cl.IsNum {
		return c.IsNum(phys) && compareFloats(c.Num(phys), f.cl.Op, f.cl.Num)
	}
	eq := eqText(c, phys, f.cl.Str, f.numOK, f.num, f.nan)
	switch f.cl.Op {
	case "=":
		return eq
	case "!=":
		return !eq
	}
	return false
}

// ---------------------------------------------------------------------
// Incremental kernels
// ---------------------------------------------------------------------

// streamNode is one compiled node of an expectation. step consumes a
// matching row; eval reproduces the batch verdict on the consumed
// prefix; unsat reports the group can never pass again.
type streamNode interface {
	step(s *StreamEvaluator, g *groupState, phys, local int)
	eval(g *groupState) (bool, string, error)
	unsat(g *groupState) bool
}

type logicalNode struct {
	op          string
	left, right streamNode
}

func (n *logicalNode) step(s *StreamEvaluator, g *groupState, phys, local int) {
	n.left.step(s, g, phys, local)
	n.right.step(s, g, phys, local)
}

func (n *logicalNode) eval(g *groupState) (bool, string, error) {
	lp, ld, err := n.left.eval(g)
	if err != nil {
		return false, "", err
	}
	if n.op == "and" {
		if !lp {
			return false, ld, nil
		}
		return n.right.eval(g)
	}
	if lp {
		return true, ld, nil
	}
	rp, rd, err := n.right.eval(g)
	if err != nil {
		return false, "", err
	}
	if rp {
		return true, rd, nil
	}
	return false, ld + "; " + rd, nil
}

func (n *logicalNode) unsat(g *groupState) bool {
	if n.op == "and" {
		return n.left.unsat(g) || n.right.unsat(g)
	}
	return n.left.unsat(g) && n.right.unsat(g)
}

// scalarCmpNode compares two aggregate-only terms. Running
// count/sum/min/max per operand reproduce the batch aggregates exactly
// (same row order, same arithmetic); verdicts are provisional — new
// rows can move an aggregate across the threshold in either direction.
type scalarCmpNode struct {
	op          string
	lAST, rAST  Term
	left, right scalarTerm
}

type scalarTerm struct {
	first   scalarOp
	factors []scalarFactor
}

type scalarFactor struct {
	op byte
	so scalarOp
}

type scalarOp struct {
	kind    OperandKind // OpNumber | OpAgg
	num     float64
	agg     string // count/avg/sum/min/max
	colName string
	colIdx  int
	aggIdx  int // -1 for count
}

func (n *scalarCmpNode) step(s *StreamEvaluator, g *groupState, phys, local int) {
	n.left.step(s, g, phys, local)
	n.right.step(s, g, phys, local)
}

func (t *scalarTerm) step(s *StreamEvaluator, g *groupState, phys, local int) {
	t.first.step(s, g, phys, local)
	for i := range t.factors {
		t.factors[i].so.step(s, g, phys, local)
	}
}

func (o *scalarOp) step(s *StreamEvaluator, g *groupState, phys, local int) {
	if o.kind != OpAgg || o.aggIdx < 0 {
		return
	}
	cell := &g.aggs[o.aggIdx]
	v := s.cols[o.colIdx].Float(phys)
	if math.IsNaN(v) {
		// numericCol reports the first non-numeric row; it scans the
		// whole group column, so keep accumulating the rest regardless.
		if cell.errRow < 0 {
			cell.errRow = local
		}
		return
	}
	if cell.n == 0 {
		cell.min, cell.max = v, v
	} else {
		if v < cell.min {
			cell.min = v
		}
		if v > cell.max {
			cell.max = v
		}
	}
	cell.n++
	cell.sum += v
}

// value resolves the term against the group's running state, mirroring
// the batch compileTerm/at(-1) split: every operand resolves (reporting
// numericCol errors in operand order) before division applies.
func (t *scalarTerm) value(g *groupState) (float64, error) {
	vals := make([]float64, 1+len(t.factors))
	v, err := t.first.value(g)
	if err != nil {
		return 0, err
	}
	vals[0] = v
	for i := range t.factors {
		fv, err := t.factors[i].so.value(g)
		if err != nil {
			return 0, err
		}
		vals[i+1] = fv
	}
	v = vals[0]
	for i := range t.factors {
		switch t.factors[i].op {
		case '*':
			v *= vals[i+1]
		case '/':
			if vals[i+1] == 0 {
				return 0, fmt.Errorf("aver: division by zero in term")
			}
			v /= vals[i+1]
		}
	}
	return v, nil
}

func (o *scalarOp) value(g *groupState) (float64, error) {
	if o.kind == OpNumber {
		return o.num, nil
	}
	if o.agg == "count" {
		return float64(g.n), nil
	}
	cell := &g.aggs[o.aggIdx]
	if cell.errRow >= 0 {
		return 0, fmt.Errorf("aver: column %q row %d is not numeric", o.colName, cell.errRow)
	}
	switch o.agg {
	case "avg":
		return cell.sum / float64(cell.n), nil
	case "sum":
		return cell.sum, nil
	case "min":
		return cell.min, nil
	case "max":
		return cell.max, nil
	}
	return 0, fmt.Errorf("aver: unknown aggregate %q", o.agg)
}

func (n *scalarCmpNode) eval(g *groupState) (bool, string, error) {
	lv, err := n.left.value(g)
	if err != nil {
		return false, "", err
	}
	rv, err := n.right.value(g)
	if err != nil {
		return false, "", err
	}
	ok := compareFloats(lv, n.op, rv)
	return ok, fmt.Sprintf("%s %s %s: %.4g %s %.4g",
		describeTerm(n.lAST), n.op, describeTerm(n.rAST), lv, n.op, rv), nil
}

func (n *scalarCmpNode) unsat(*groupState) bool { return false }

// rowCmpNode is a row-level comparison: every row must satisfy it. The
// batch row loop stops at the first violation or error, so the kernel
// freezes there — a permanently-failed group, hence unsat.
type rowCmpNode struct {
	kidx        int
	op          string
	lAST, rAST  Term
	left, right rowTerm
}

type rowTerm struct {
	first   rowOp
	factors []rowFactor
}

type rowFactor struct {
	op byte
	ro rowOp
}

type rowOp struct {
	kind    OperandKind // OpNumber | OpColumn
	num     float64
	colIdx  int
	colName string
}

func (o *rowOp) at(s *StreamEvaluator, phys, local int) (float64, error) {
	if o.kind == OpNumber {
		return o.num, nil
	}
	c := s.cols[o.colIdx]
	if !c.IsNum(phys) {
		return 0, fmt.Errorf("aver: column %q row %d is not numeric", o.colName, local)
	}
	return c.Num(phys), nil
}

// at mirrors compiledTerm.at: factor resolution and division interleave.
func (t *rowTerm) at(s *StreamEvaluator, phys, local int) (float64, error) {
	v, err := t.first.at(s, phys, local)
	if err != nil {
		return 0, err
	}
	for i := range t.factors {
		fv, err := t.factors[i].ro.at(s, phys, local)
		if err != nil {
			return 0, err
		}
		switch t.factors[i].op {
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

func (n *rowCmpNode) step(s *StreamEvaluator, g *groupState, phys, local int) {
	cell := &g.kernels[n.kidx]
	if cell.frozen {
		return
	}
	lv, err := n.left.at(s, phys, local)
	if err != nil {
		cell.frozen, cell.failed, cell.err = true, true, err
		return
	}
	rv, err := n.right.at(s, phys, local)
	if err != nil {
		cell.frozen, cell.failed, cell.err = true, true, err
		return
	}
	if !compareFloats(lv, n.op, rv) {
		cell.frozen, cell.failed = true, true
		cell.detail = fmt.Sprintf("row %d: %.4g %s %.4g is false", local, lv, n.op, rv)
	}
}

func (n *rowCmpNode) eval(g *groupState) (bool, string, error) {
	cell := &g.kernels[n.kidx]
	if cell.err != nil {
		return false, "", cell.err
	}
	if cell.failed {
		return false, cell.detail, nil
	}
	return true, fmt.Sprintf("%s %s %s holds for all %d rows",
		describeTerm(n.lAST), n.op, describeTerm(n.rAST), g.n), nil
}

func (n *rowCmpNode) unsat(g *groupState) bool { return g.kernels[n.kidx].failed }

// strCmpNode is a row-level string equality test (machine = cloudlab).
type strCmpNode struct {
	kidx    int
	op      string // "=" | "!="
	colIdx  int
	colName string
	lit     string
	numOK   bool
	num     float64
	nan     bool
}

func (n *strCmpNode) step(s *StreamEvaluator, g *groupState, phys, local int) {
	cell := &g.kernels[n.kidx]
	if cell.frozen {
		return
	}
	c := s.cols[n.colIdx]
	ok := eqText(c, phys, n.lit, n.numOK, n.num, n.nan)
	if n.op == "!=" {
		ok = !ok
	}
	if !ok {
		cell.frozen, cell.failed = true, true
		cell.detail = fmt.Sprintf("row %d: %s=%q fails %s %q",
			local, n.colName, c.Text(phys), n.op, n.lit)
	}
}

func (n *strCmpNode) eval(g *groupState) (bool, string, error) {
	cell := &g.kernels[n.kidx]
	if cell.failed {
		return false, cell.detail, nil
	}
	return true, fmt.Sprintf("%s %s %q for all rows", n.colName, n.op, n.lit), nil
}

func (n *strCmpNode) unsat(g *groupState) bool { return g.kernels[n.kidx].failed }

// withinNode is within(col, lo, hi). The batch version validates the
// whole group column numeric before scanning values, so a non-numeric
// cell anywhere outranks an earlier out-of-range value — the kernel
// tracks both independently.
type withinNode struct {
	kidx    int
	colIdx  int
	colName string
	lo, hi  float64
}

func (n *withinNode) step(s *StreamEvaluator, g *groupState, phys, local int) {
	cell := &g.kernels[n.kidx]
	v := s.cols[n.colIdx].Float(phys)
	if math.IsNaN(v) {
		if cell.errRow < 0 {
			cell.errRow = local
		}
		return
	}
	if !cell.failed && (v < n.lo || v > n.hi) {
		cell.failed = true
		cell.detail = fmt.Sprintf("within(%s,%g,%g): value %g out of range",
			n.colName, n.lo, n.hi, v)
	}
}

func (n *withinNode) eval(g *groupState) (bool, string, error) {
	cell := &g.kernels[n.kidx]
	if cell.errRow >= 0 {
		return false, "", fmt.Errorf("aver: column %q row %d is not numeric", n.colName, cell.errRow)
	}
	if cell.failed {
		return false, cell.detail, nil
	}
	return true, fmt.Sprintf("within(%s,%g,%g): %d values", n.colName, n.lo, n.hi, g.n), nil
}

func (n *withinNode) unsat(g *groupState) bool {
	cell := &g.kernels[n.kidx]
	return cell.failed || cell.errRow >= 0
}
