package aver

import (
	"reflect"
	"testing"
)

// FuzzAverParseFile checks the validations parser on arbitrary input.
// A sweep parses an experiment's validations.aver once and checks every
// configuration against that one parse, so the parse must be a pure
// function of the text: it never panics, parsing the same text twice
// gives the same program, and each assertion's Source — the text
// reports print and a reader would copy — parses back to the same
// When and Expect.
func FuzzAverParseFile(f *testing.F) {
	for _, seed := range []string{
		"expect time > 0",
		"when workload=* and machine=* expect sublinear(nodes, time, 0.05)",
		"when nodes >= 2 expect time / nodes > 0.1;\nexpect avg(time) > 10 and count(*) = 16 or min(nodes) = 99",
		"expect status = ok; when nodes=1 and workload=compile expect constant(time, 0.5)",
		"when workload=compile and machine=cloudlab expect within(nodes, 1, 8)",
		"# comment\nwhen mode = 'quiet' expect cv(time) < 0.05 ;;\n",
		"expect avg(baseline) > 10 * avg(algo) / 2",
		"when x != \"a b\" expect increasing(nodes, time) and decreasing(nodes, err)",
		"expect",
		"when = expect (",
		// Source once collapsed whitespace inside string literals (the
		// fuzzer's counterexample: the newline literal below read back as
		// a space) and kept comments, which then swallowed the rest of
		// the assertion.
		"when A='\n'eXpeCt 0<0",
		"when a=1 # the first axis\nexpect b > 0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		asserts, err := ParseFile(src)
		again, err2 := ParseFile(src)
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
			t.Fatalf("two parses of %q disagree: %v / %v", src, err, err2)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(asserts, again) {
			t.Fatalf("two parses of %q give different programs", src)
		}
		for i, a := range asserts {
			b, err := Parse(a.Source)
			if err != nil {
				t.Fatalf("assertion %d's source %q does not parse: %v (file %q)", i, a.Source, err, src)
			}
			if !reflect.DeepEqual(a.When, b.When) || !reflect.DeepEqual(a.Expect, b.Expect) {
				t.Fatalf("assertion %d's source %q parses to a different assertion (file %q)", i, a.Source, src)
			}
		}
	})
}
