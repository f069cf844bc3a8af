package lexer_test

import (
	"slices"
	"testing"

	"aspen/internal/lang"
	"aspen/internal/lexer"
)

// The built-in lexers' self-loop runs that the scan skips rather than
// steps, pinned so that a spec edit which loses an acceleration shows
// here: JSON's STRING body by the SWAR test, XML's TEXT and tag STRING
// bodies by IndexByte.
func TestBuiltinAcceleration(t *testing.T) {
	want := map[string][]string{
		"Cool": {
			`main: swar "\n\"\\"`,
			`main: byte "*"`,
			`main: byte "\n" accepts LINECOMMENT`,
		},
		"DOT": {
			`main: swar "\"\\"`,
			`main: swar "<>"`,
			`main: byte "*"`,
			`main: byte "\n" accepts HASHCOMMENT`,
			`main: byte "\n" accepts LINECOMMENT`,
		},
		"JSON": {
			`main: swar <0x20 "\"\\"`,
		},
		"MiniC": {
			`main: swar "\n\"\\"`,
			`main: byte "*"`,
			`main: byte "\n" accepts LINECOMMENT`,
		},
		"XML": {
			`main: byte "?"`,
			`main: byte "-"`,
			`main: byte "?"`,
			`main: byte ">"`,
			`main: byte "]"`,
			`main: byte "<" accepts TEXT`,
			`tag: byte "\""`,
			`tag: byte "'"`,
		},
	}
	for _, l := range append(lang.All(), lang.MiniC()) {
		lx, err := l.Lexer()
		if err != nil {
			t.Fatal(err)
		}
		got := lexer.AccelRows(lx)
		if w, ok := want[l.Name]; !ok || !slices.Equal(got, w) {
			t.Errorf("%s: accelerated rows\n%#v", l.Name, got)
		}
	}
}
