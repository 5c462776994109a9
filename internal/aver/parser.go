package aver

import (
	"fmt"
	"strconv"
	"strings"
)

// Assertion is one parsed `when ... expect ...` statement.
type Assertion struct {
	Source string   // original text, for reports
	When   []Clause // empty means "all rows, one group"
	Expect Expr
}

// Clause is one `when` condition: a filter or a grouping wildcard.
type Clause struct {
	Column string
	Op     string // "=", "!=", "<", ">", "<=", ">="
	// Wildcard means `col=*`: group by this column.
	Wildcard bool
	// Exactly one of Num/Str is meaningful when !Wildcard.
	Num   float64
	IsNum bool
	Str   string
}

// Expr is a boolean expectation expression.
type Expr interface{ exprNode() }

// LogicalExpr combines two expectations with "and" / "or".
type LogicalExpr struct {
	Op          string // "and" | "or"
	Left, Right Expr
}

// CallExpr is a scaling/range test: sublinear(x,y), within(y,lo,hi), ...
type CallExpr struct {
	Func string
	Args []Operand
}

// CompareExpr compares two arithmetic terms:
// avg(time) < 100, nodes >= 2, avg(baseline) > 10 * avg(algo).
type CompareExpr struct {
	Left  Term
	Op    string
	Right Term
}

// Term is an operand optionally scaled by further operands:
// `10 * avg(time)` or `sum(bytes) / count(*)`. Factors associate left.
type Term struct {
	First Operand
	// Factors are applied in order: each is {*, /} with an operand.
	Factors []Factor
}

// Factor is one multiplicative step of a term.
type Factor struct {
	Op      byte // '*' or '/'
	Operand Operand
}

// termOf wraps a bare operand as a term.
func termOf(o Operand) Term { return Term{First: o} }

func (LogicalExpr) exprNode() {}
func (CallExpr) exprNode()    {}
func (CompareExpr) exprNode() {}

// Operand is a column reference, a numeric literal, a string literal, or
// an aggregate over a column.
type Operand struct {
	Kind OperandKind
	Col  string  // Column, Agg
	Agg  string  // Agg: avg|min|max|count|median|stddev|cv|sum
	Num  float64 // Number
	Str  string  // String
}

// OperandKind discriminates Operand.
type OperandKind int

// Operand kinds.
const (
	OpColumn OperandKind = iota
	OpNumber
	OpString
	OpAgg
)

var aggFuncs = map[string]bool{
	"avg": true, "mean": true, "min": true, "max": true, "count": true,
	"median": true, "stddev": true, "cv": true, "sum": true,
}

var testFuncs = map[string]int{ // name -> arity (-1 = variable, see parser)
	"sublinear": 2, "linear": 2, "superlinear": 2,
	"increasing": 2, "decreasing": 2,
	"constant": 1, "within": 3,
}

// Parse parses a single assertion.
func Parse(src string) (*Assertion, error) {
	stmts, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("aver: expected one assertion, found %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseFile parses a validations file: one or more assertions separated
// by semicolons.
func ParseFile(src string) ([]*Assertion, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var out []*Assertion
	for !p.at(tokEOF) {
		start := p.cur().pos
		a, err := p.parseAssertion()
		if err != nil {
			return nil, err
		}
		end := p.cur().pos
		a.Source = trimSpaceAll(src[start:min(end, len(src))])
		out = append(out, a)
		for p.at(tokSemi) {
			p.next()
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("aver: no assertions found")
	}
	return out, nil
}

// trimSpaceAll renders an assertion's text for Source: each run of
// whitespace and comments between tokens becomes one space, and string
// literals are kept verbatim, so Source parses back to the same
// assertion. s has already been lexed: every literal is terminated.
func trimSpaceAll(s string) string {
	out := make([]byte, 0, len(s))
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case ' ', '\t', '\n', '\r':
			space = true
			continue
		case '#':
			for i+1 < len(s) && s[i+1] != '\n' {
				i++
			}
			space = true
			continue
		}
		if space && len(out) > 0 {
			out = append(out, ' ')
		}
		space = false
		if c == '\'' || c == '"' {
			if j := strings.IndexByte(s[i+1:], c); j >= 0 {
				out = append(out, s[i:i+j+2]...)
				i += j + 1
				continue
			}
		}
		out = append(out, c)
	}
	return string(out)
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) cur() token          { return p.toks[p.pos] }
func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, fmt.Errorf("aver: expected %s, got %s", what, p.cur())
	}
	return p.next(), nil
}

func (p *parser) parseAssertion() (*Assertion, error) {
	a := &Assertion{}
	if isKeyword(p.cur(), "when") {
		p.next()
		for {
			cl, err := p.parseClause()
			if err != nil {
				return nil, err
			}
			a.When = append(a.When, cl)
			if isKeyword(p.cur(), "and") {
				p.next()
				continue
			}
			break
		}
	}
	if !isKeyword(p.cur(), "expect") {
		return nil, fmt.Errorf("aver: expected 'expect', got %s", p.cur())
	}
	p.next()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	a.Expect = e
	return a, nil
}

func (p *parser) parseClause() (Clause, error) {
	name, err := p.expect(tokIdent, "column name")
	if err != nil {
		return Clause{}, err
	}
	op, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return Clause{}, err
	}
	cl := Clause{Column: name.text, Op: op.text}
	switch p.cur().kind {
	case tokStar:
		if op.text != "=" {
			return Clause{}, fmt.Errorf("aver: wildcard requires '=', got %q", op.text)
		}
		cl.Wildcard = true
		p.next()
	case tokNumber:
		f, err := strconv.ParseFloat(p.next().text, 64)
		if err != nil {
			return Clause{}, fmt.Errorf("aver: bad number in clause: %w", err)
		}
		cl.Num, cl.IsNum = f, true
	case tokString:
		cl.Str = p.next().text
	case tokIdent:
		// bare words act as strings: machine=cloudlab
		cl.Str = p.next().text
	default:
		return Clause{}, fmt.Errorf("aver: expected value after %s%s, got %s", name.text, op.text, p.cur())
	}
	if !cl.Wildcard && !cl.IsNum && (cl.Op != "=" && cl.Op != "!=") {
		return Clause{}, fmt.Errorf("aver: ordering comparison %q needs a numeric value", cl.Op)
	}
	return cl, nil
}

// parseExpr parses or-expressions (lowest precedence).
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for isKeyword(p.cur(), "or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = LogicalExpr{Op: "or", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for isKeyword(p.cur(), "and") {
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = LogicalExpr{Op: "and", Left: left, Right: right}
	}
	return left, nil
}

// parseTerm parses a parenthesized expression, a test-function call, or a
// comparison.
func (p *parser) parseTerm() (Expr, error) {
	if p.at(tokLParen) {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	}
	// A test function: ident '(' where ident is in testFuncs.
	if p.at(tokIdent) {
		if arity, ok := testFuncs[lower(p.cur().text)]; ok && p.toks[p.pos+1].kind == tokLParen {
			name := lower(p.next().text)
			p.next() // (
			var args []Operand
			for !p.at(tokRParen) {
				arg, err := p.parseOperand()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if p.at(tokComma) {
					p.next()
				}
			}
			p.next() // )
			// optional trailing tolerance argument for scaling tests
			minArity, maxArity := arity, arity
			switch name {
			case "sublinear", "linear", "superlinear", "constant":
				maxArity = arity + 1
			}
			if len(args) < minArity || len(args) > maxArity {
				return nil, fmt.Errorf("aver: %s expects %d argument(s), got %d", name, arity, len(args))
			}
			return CallExpr{Func: name, Args: args}, nil
		}
	}
	// Otherwise a comparison between arithmetic terms.
	left, err := p.parseArithTerm()
	if err != nil {
		return nil, err
	}
	op, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return nil, err
	}
	right, err := p.parseArithTerm()
	if err != nil {
		return nil, err
	}
	return CompareExpr{Left: left, Op: op.text, Right: right}, nil
}

// parseArithTerm parses operand {('*'|'/') operand}, e.g. `10 * avg(t)`.
func (p *parser) parseArithTerm() (Term, error) {
	first, err := p.parseOperand()
	if err != nil {
		return Term{}, err
	}
	t := Term{First: first}
	for p.at(tokStar) || p.at(tokSlash) {
		op := byte('*')
		if p.at(tokSlash) {
			op = '/'
		}
		p.next()
		f, err := p.parseOperand()
		if err != nil {
			return Term{}, err
		}
		if first.Kind == OpString || f.Kind == OpString {
			return Term{}, fmt.Errorf("aver: arithmetic on strings")
		}
		t.Factors = append(t.Factors, Factor{Op: op, Operand: f})
	}
	return t, nil
}

func (p *parser) parseOperand() (Operand, error) {
	switch p.cur().kind {
	case tokNumber:
		f, err := strconv.ParseFloat(p.next().text, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("aver: bad number: %w", err)
		}
		return Operand{Kind: OpNumber, Num: f}, nil
	case tokString:
		return Operand{Kind: OpString, Str: p.next().text}, nil
	case tokIdent:
		name := p.next().text
		if p.at(tokLParen) {
			if !aggFuncs[lower(name)] {
				return Operand{}, fmt.Errorf("aver: unknown aggregate %q", name)
			}
			p.next() // (
			var col string
			if p.at(tokStar) {
				p.next()
			} else if p.at(tokIdent) {
				col = p.next().text
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return Operand{}, err
			}
			agg := lower(name)
			if agg == "mean" {
				agg = "avg"
			}
			if col == "" && agg != "count" {
				return Operand{}, fmt.Errorf("aver: aggregate %s needs a column", name)
			}
			return Operand{Kind: OpAgg, Agg: agg, Col: col}, nil
		}
		return Operand{Kind: OpColumn, Col: name}, nil
	default:
		return Operand{}, fmt.Errorf("aver: expected operand, got %s", p.cur())
	}
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
