// Package yamlite implements a YAML subset sufficient for the configuration
// files used by the Popper convention (.popper.yml, setup.yml, vars.yml,
// .travis.yml and experiment templates).
//
// Supported syntax:
//
//   - block mappings (key: value) with arbitrary nesting by indentation
//   - block sequences (- item), including sequences of mappings
//   - scalars: strings (plain, single- and double-quoted), integers,
//     floats, booleans (true/false/yes/no), and null (~ / null / empty)
//   - block scalars: `key: |` (literal) and `key: >` (folded); note that
//     blank lines and trailing `#` comments are stripped before block
//     parsing, so block bodies cannot contain either
//   - inline flow sequences ([a, b, c]) and flow mappings ({k: v})
//   - full-line and trailing comments introduced by '#'
//   - multi-document input is not supported; a leading '---' is skipped
//
// Values decode into any-typed Go values: map[string]any, []any, string,
// int64, float64, bool and nil. Encode performs the reverse mapping with
// deterministic (sorted) key order so that generated files are stable
// under version control — a property the convention relies on.
package yamlite

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Decode parses a YAML-subset document and returns its root value.
// The root of an empty document is nil.
func Decode(src string) (any, error) {
	p := &parser{lines: splitLines(src)}
	if p.eof() {
		return nil, nil
	}
	v, err := p.parseValue(p.indent())
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("yamlite: line %d: trailing content %q", p.lineno(), p.cur().text)
	}
	return v, nil
}

// DecodeMap parses a document whose root must be a mapping.
func DecodeMap(src string) (map[string]any, error) {
	v, err := Decode(src)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return map[string]any{}, nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("yamlite: document root is %T, want mapping", v)
	}
	return m, nil
}

type line struct {
	num    int // 1-based line number in the original source
	indent int // number of leading spaces
	text   string
}

func splitLines(src string) []line {
	raw := strings.Split(src, "\n")
	out := make([]line, 0, len(raw))
	for i, r := range raw {
		// Strip comments that are not inside quotes.
		r = stripComment(r)
		trimmed := strings.TrimRight(r, " \t\r")
		body := strings.TrimLeft(trimmed, " \t")
		if body == "" {
			continue
		}
		if i == 0 && body == "---" {
			continue
		}
		if strings.ContainsRune(trimmed[:len(trimmed)-len(body)], '\t') {
			// Tabs in indentation are an error in YAML; normalize the message.
			out = append(out, line{num: i + 1, indent: -1, text: body})
			continue
		}
		out = append(out, line{num: i + 1, indent: len(trimmed) - len(body), text: body})
	}
	return out
}

// stripComment removes a trailing '#' comment, respecting quoted strings.
func stripComment(s string) string {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '\\':
			if inD {
				i++ // an escape inside double quotes: the next byte is literal
			}
		case '#':
			if !inS && !inD {
				// YAML requires '#' to be preceded by whitespace (or BOL).
				if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
					return s[:i]
				}
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) eof() bool   { return p.pos >= len(p.lines) }
func (p *parser) cur() line   { return p.lines[p.pos] }
func (p *parser) lineno() int { return p.lines[p.pos].num }
func (p *parser) indent() int { return p.lines[p.pos].indent }
func (p *parser) advance()    { p.pos++ }

// parseValue parses a block value whose first line is at exactly `min` indent.
func (p *parser) parseValue(min int) (any, error) {
	if p.eof() {
		return nil, nil
	}
	l := p.cur()
	if l.indent < 0 {
		return nil, fmt.Errorf("yamlite: line %d: tab character in indentation", l.num)
	}
	if strings.HasPrefix(l.text, "- ") || l.text == "-" {
		return p.parseSequence(l.indent)
	}
	if isMappingLine(l.text) {
		return p.parseMapping(l.indent)
	}
	p.advance()
	return parseScalar(l.text, l.num)
}

// isMappingLine reports whether a line starts a `key:` mapping entry.
func isMappingLine(s string) bool {
	k := keyEnd(s)
	return k >= 0
}

// keyEnd returns the index of the ':' terminating the key, or -1.
// The colon must be followed by space or end-of-line and must not be
// inside quotes or a flow collection.
func keyEnd(s string) int {
	inS, inD, depth := false, false, 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '\\':
			if inD {
				i++ // an escape inside double quotes: the next byte is literal
			}
		case '[', '{':
			if !inS && !inD {
				depth++
			}
		case ']', '}':
			if !inS && !inD {
				depth--
			}
		case ':':
			if !inS && !inD && depth == 0 {
				if i+1 == len(s) || s[i+1] == ' ' {
					return i
				}
			}
		}
	}
	return -1
}

func (p *parser) parseMapping(indent int) (map[string]any, error) {
	m := make(map[string]any)
	for !p.eof() {
		l := p.cur()
		if l.indent < 0 {
			return nil, fmt.Errorf("yamlite: line %d: tab character in indentation", l.num)
		}
		if l.indent != indent {
			if l.indent > indent {
				return nil, fmt.Errorf("yamlite: line %d: unexpected indent", l.num)
			}
			break
		}
		ke := keyEnd(l.text)
		if ke < 0 {
			return nil, fmt.Errorf("yamlite: line %d: expected 'key: value', got %q", l.num, l.text)
		}
		key, err := unquoteKey(strings.TrimSpace(l.text[:ke]), l.num)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("yamlite: line %d: duplicate key %q", l.num, key)
		}
		rest := strings.TrimSpace(l.text[ke+1:])
		p.advance()
		if rest == "|" || rest == ">" {
			v, err := p.parseBlockScalar(indent, rest == ">")
			if err != nil {
				return nil, err
			}
			m[key] = v
			continue
		}
		if rest != "" {
			v, err := parseScalar(rest, l.num)
			if err != nil {
				return nil, err
			}
			m[key] = v
			continue
		}
		// Value is a nested block (or null if nothing more indented follows).
		if p.eof() || p.cur().indent <= indent {
			m[key] = nil
			continue
		}
		v, err := p.parseValue(p.cur().indent)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	return m, nil
}

// parseBlockScalar consumes the indented lines of a `|` (literal) or `>`
// (folded) block scalar whose key sits at `keyIndent`. Literal blocks
// keep newlines; folded blocks join lines with spaces. The trailing
// newline is kept for literals, matching YAML's default clip chomping.
func (p *parser) parseBlockScalar(keyIndent int, folded bool) (string, error) {
	var lines []string
	blockIndent := -1
	for !p.eof() {
		l := p.cur()
		if l.indent <= keyIndent {
			break
		}
		if blockIndent < 0 {
			blockIndent = l.indent
		}
		if l.indent < blockIndent {
			return "", fmt.Errorf("yamlite: line %d: inconsistent block scalar indentation", l.num)
		}
		// preserve deeper indentation relative to the block
		lines = append(lines, strings.Repeat(" ", l.indent-blockIndent)+l.text)
		p.advance()
	}
	if len(lines) == 0 {
		return "", nil
	}
	if folded {
		return strings.Join(lines, " ") + "\n", nil
	}
	return strings.Join(lines, "\n") + "\n", nil
}

func (p *parser) parseSequence(indent int) ([]any, error) {
	var seq []any
	for !p.eof() {
		l := p.cur()
		if l.indent != indent || !(strings.HasPrefix(l.text, "- ") || l.text == "-") {
			if l.indent > indent {
				return nil, fmt.Errorf("yamlite: line %d: unexpected indent in sequence", l.num)
			}
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if rest == "" {
			p.advance()
			if p.eof() || p.cur().indent <= indent {
				seq = append(seq, nil)
				continue
			}
			v, err := p.parseValue(p.cur().indent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		// "- key: value" starts an inline mapping item. The following more
		// deeply indented lines belong to the same mapping. We rewrite the
		// current line in place, shifting the '-' into indentation.
		if ke := keyEnd(rest); ke >= 0 && !isFlow(rest) {
			p.lines[p.pos] = line{num: l.num, indent: l.indent + 2, text: rest}
			v, err := p.parseMapping(l.indent + 2)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		p.advance()
		v, err := parseScalar(rest, l.num)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
	}
	return seq, nil
}

func isFlow(s string) bool {
	return strings.HasPrefix(s, "[") || strings.HasPrefix(s, "{")
}

func unquoteKey(k string, num int) (string, error) {
	if len(k) >= 2 && (k[0] == '"' || k[0] == '\'') {
		v, err := parseScalar(k, num)
		if err != nil {
			return "", err
		}
		s, ok := v.(string)
		if !ok || s == "" {
			return "", fmt.Errorf("yamlite: line %d: invalid quoted key %q", num, k)
		}
		return s, nil
	}
	if k == "" {
		return "", fmt.Errorf("yamlite: line %d: empty mapping key", num)
	}
	return k, nil
}

// parseScalar parses a scalar or flow collection.
func parseScalar(s string, num int) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, nil
	case s[0] == '[':
		return parseFlowSeq(s, num)
	case s[0] == '{':
		return parseFlowMap(s, num)
	case s[0] == '"':
		if len(s) < 2 || s[len(s)-1] != '"' {
			return nil, fmt.Errorf("yamlite: line %d: unterminated double-quoted string", num)
		}
		return strconv.Unquote(s)
	case s[0] == '\'':
		if len(s) < 2 || s[len(s)-1] != '\'' {
			return nil, fmt.Errorf("yamlite: line %d: unterminated single-quoted string", num)
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	}
	switch s {
	case "null", "~", "Null", "NULL":
		return nil, nil
	case "true", "True", "yes", "Yes", "on":
		return true, nil
	case "false", "False", "no", "No", "off":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

// splitFlow splits a flow-collection body on top-level commas.
func splitFlow(s string, num int) ([]string, error) {
	var parts []string
	depth := 0
	inS, inD := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '\\':
			if inD {
				i++ // an escape inside double quotes: the next byte is literal
			}
		case '[', '{':
			if !inS && !inD {
				depth++
			}
		case ']', '}':
			if !inS && !inD {
				depth--
				if depth < 0 {
					return nil, fmt.Errorf("yamlite: line %d: unbalanced flow collection", num)
				}
			}
		case ',':
			if !inS && !inD && depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 || inS || inD {
		return nil, fmt.Errorf("yamlite: line %d: unbalanced flow collection", num)
	}
	parts = append(parts, s[start:])
	return parts, nil
}

func parseFlowSeq(s string, num int) (any, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("yamlite: line %d: unterminated flow sequence", num)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	if body == "" {
		return []any{}, nil
	}
	parts, err := splitFlow(body, num)
	if err != nil {
		return nil, err
	}
	seq := make([]any, 0, len(parts))
	for _, part := range parts {
		v, err := parseScalar(part, num)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
	}
	return seq, nil
}

func parseFlowMap(s string, num int) (any, error) {
	if !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("yamlite: line %d: unterminated flow mapping", num)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	m := make(map[string]any)
	if body == "" {
		return m, nil
	}
	parts, err := splitFlow(body, num)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		ke := keyEnd(strings.TrimSpace(part))
		if ke < 0 {
			// allow "k:v" without space inside flow maps
			if j := strings.IndexByte(part, ':'); j >= 0 {
				ke = j
				part = strings.TrimSpace(part)
			} else {
				return nil, fmt.Errorf("yamlite: line %d: invalid flow mapping entry %q", num, part)
			}
		} else {
			part = strings.TrimSpace(part)
			ke = keyEnd(part)
		}
		key, err := unquoteKey(strings.TrimSpace(part[:ke]), num)
		if err != nil {
			return nil, err
		}
		v, err := parseScalar(part[ke+1:], num)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	return m, nil
}

// Encode renders a value as a YAML-subset document with sorted map keys.
func Encode(v any) string {
	var b strings.Builder
	encodeValue(&b, v, 0, false)
	s := b.String()
	if s != "" && !strings.HasSuffix(s, "\n") {
		s += "\n"
	}
	return s
}

func encodeValue(b *strings.Builder, v any, indent int, inline bool) {
	switch t := v.(type) {
	case nil:
		b.WriteString("null\n")
	case map[string]any:
		if len(t) == 0 {
			b.WriteString("{}\n")
			return
		}
		if inline {
			b.WriteString("\n")
		}
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			pad(b, indent)
			b.WriteString(encodeKey(k))
			b.WriteString(":")
			child := t[k]
			if isComposite(child) {
				encodeValue(b, child, indent+2, true)
			} else {
				b.WriteString(" ")
				b.WriteString(encodeScalar(child))
				b.WriteString("\n")
			}
		}
	case []any:
		if len(t) == 0 {
			b.WriteString("[]\n")
			return
		}
		if inline {
			b.WriteString("\n")
		}
		for _, item := range t {
			pad(b, indent)
			b.WriteString("-")
			if m, ok := item.(map[string]any); ok && len(m) > 0 {
				// "- key: value" style: first key on the dash line.
				keys := make([]string, 0, len(m))
				for k := range m {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				first := true
				for _, k := range keys {
					if first {
						b.WriteString(" ")
						first = false
					} else {
						pad(b, indent+2)
					}
					b.WriteString(encodeKey(k))
					b.WriteString(":")
					if isComposite(m[k]) {
						encodeValue(b, m[k], indent+4, true)
					} else {
						b.WriteString(" ")
						b.WriteString(encodeScalar(m[k]))
						b.WriteString("\n")
					}
				}
				continue
			}
			if isComposite(item) {
				encodeValue(b, item, indent+2, true)
			} else {
				b.WriteString(" ")
				b.WriteString(encodeScalar(item))
				b.WriteString("\n")
			}
		}
	default:
		b.WriteString(encodeScalar(v))
		b.WriteString("\n")
	}
}

func isComposite(v any) bool {
	switch t := v.(type) {
	case map[string]any:
		return len(t) > 0
	case []any:
		return len(t) > 0
	}
	return false
}

func pad(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteByte(' ')
	}
}

func encodeKey(k string) string {
	if needsQuote(k) {
		return strconv.Quote(k)
	}
	return k
}

func encodeScalar(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case bool:
		if t {
			return "true"
		}
		return "false"
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		s := strconv.FormatFloat(t, 'g', -1, 64)
		// "NaN" and "±Inf" decode as floats already; a suffix would
		// turn them into strings.
		if !strings.ContainsAny(s, ".eEIN") {
			s += ".0"
		}
		return s
	case string:
		if t == "" || needsQuote(t) || looksLikeOtherScalar(t) {
			return strconv.Quote(t)
		}
		return t
	case map[string]any:
		return "{}"
	case []any:
		return "[]"
	default:
		return strconv.Quote(fmt.Sprint(t))
	}
}

func needsQuote(s string) bool {
	if s == "" {
		return false
	}
	// The decoder trims surrounding whitespace and reads a leading '-'
	// as a sequence item.
	if strings.TrimSpace(s) != s || s[0] == '-' {
		return true
	}
	if strings.ContainsAny(s, "#\"'\n\t[]{},&*!|>%@`") {
		return true
	}
	// ':' only matters before a space or at the end.
	return strings.Contains(s, ": ") || strings.HasSuffix(s, ":")
}

// looksLikeOtherScalar reports whether a plain rendering of s would decode
// as a non-string type, requiring quotes to round-trip.
func looksLikeOtherScalar(s string) bool {
	switch s {
	case "null", "~", "Null", "NULL", "true", "True", "yes", "Yes", "on",
		"false", "False", "no", "No", "off":
		return true
	}
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return true
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return true
	}
	return false
}

// Get navigates a decoded document by a dotted path ("a.b.c"); list
// indices are numeric path segments. The second result is false when any
// segment is missing.
func Get(doc any, path string) (any, bool) {
	cur := doc
	if path == "" {
		return cur, true
	}
	for _, seg := range strings.Split(path, ".") {
		switch t := cur.(type) {
		case map[string]any:
			v, ok := t[seg]
			if !ok {
				return nil, false
			}
			cur = v
		case []any:
			i, err := strconv.Atoi(seg)
			if err != nil || i < 0 || i >= len(t) {
				return nil, false
			}
			cur = t[i]
		default:
			return nil, false
		}
	}
	return cur, true
}

// GetString returns the string at path, or def when absent or non-string.
func GetString(doc any, path, def string) string {
	if v, ok := Get(doc, path); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

// GetInt returns the integer at path, or def when absent or non-integer.
func GetInt(doc any, path string, def int) int {
	if v, ok := Get(doc, path); ok {
		switch t := v.(type) {
		case int64:
			return int(t)
		case float64:
			return int(t)
		case int:
			return t
		}
	}
	return def
}

// GetBool returns the boolean at path, or def when absent or non-boolean.
func GetBool(doc any, path string, def bool) bool {
	if v, ok := Get(doc, path); ok {
		if b, ok := v.(bool); ok {
			return b
		}
	}
	return def
}

// GetSlice returns the list at path, or nil when absent.
func GetSlice(doc any, path string) []any {
	if v, ok := Get(doc, path); ok {
		if s, ok := v.([]any); ok {
			return s
		}
	}
	return nil
}

// GetStringSlice returns the list at path coerced to strings; non-string
// elements are rendered with their canonical scalar encoding.
func GetStringSlice(doc any, path string) []string {
	items := GetSlice(doc, path)
	if items == nil {
		return nil
	}
	out := make([]string, 0, len(items))
	for _, it := range items {
		if s, ok := it.(string); ok {
			out = append(out, s)
		} else {
			out = append(out, strings.TrimSuffix(encodeScalar(it), "\n"))
		}
	}
	return out
}
