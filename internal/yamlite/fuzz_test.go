package yamlite

import (
	"math"
	"reflect"
	"testing"
)

// FuzzDecodeMapRoundTrip checks Encode against DecodeMap: whatever
// map-rooted document DecodeMap accepts, encoding the decoded value and
// decoding that again must give back the same value. A sweep decodes
// each experiment's vars.yml once and shares it across configurations,
// and SetParam writes vars.yml through Encode, so a value Encode cannot
// round-trip silently changes an experiment's parameters.
func FuzzDecodeMapRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"template: cloverleaf\nseed: 7\nnodes: [1, 2, 4, 8]\n",
		"version: \"1\"\nmetadata:\n  convention: popper\n",
		"hosts:\n  - name: a\n    cores: 4\n  - name: b\n    cores: 8\n",
		"note: |\n  line one\n  line two\nflag: yes\nempty:\nnull_value: ~\n",
		"flow: {a: 1, b: [x, y]}\nquoted: 'it''s'\ndq: \"tab\\there\"\n",
		"ratio: 0.5\nbig: 1e9\nneg: -3\ntext: 'true'\n",
		// Counterexamples the fuzzer found. Encode wrote the first value
		// unquoted as `0: :0 `, which decodes as ":0": a plain scalar
		// loses its trailing space. The second key is encoded as a
		// double-quoted string holding `\"`, which the decoder's quote
		// scanners read as the closing quote. Encode wrote the NaN of the
		// third as `NaN.0`, a string.
		"0: ':0 '",
		"\\\"'\":",
		"0: NAN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		v, err := DecodeMap(src)
		if err != nil {
			return
		}
		enc := Encode(v)
		got, err := DecodeMap(enc)
		if err != nil {
			t.Fatalf("Encode output does not decode: %v\ninput: %q\nencoded: %q", err, src, enc)
		}
		if !sameValue(got, v) {
			t.Fatalf("round trip changed the value\ninput:   %q\nencoded: %q\nwant: %#v\ngot:  %#v", src, enc, v, got)
		}
	})
}

// sameValue is reflect.DeepEqual on decoded values, except that NaN
// equals NaN: "nan" decodes to a float that round-trips as itself.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (x == y || math.IsNaN(x) && math.IsNaN(y))
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, xv := range x {
			yv, ok := y[k]
			if !ok || !sameValue(xv, yv) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}
