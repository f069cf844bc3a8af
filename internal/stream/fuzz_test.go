package stream

import (
	"reflect"
	"sync"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
)

var fuzzJSONOnce struct {
	sync.Once
	l  *lang.Language
	cm *compile.Compiled
}

func fuzzJSON(t testing.TB) (*lang.Language, *compile.Compiled) {
	fuzzJSONOnce.Do(func() {
		fuzzJSONOnce.l = lang.JSON()
		cm, err := fuzzJSONOnce.l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		fuzzJSONOnce.cm = cm
	})
	return fuzzJSONOnce.l, fuzzJSONOnce.cm
}

// runStream pushes doc through a fresh parser in the given cut pattern
// and returns the outcome plus the first Write/Close error.
func runStream(t testing.TB, doc []byte, chunks [][]byte) (Outcome, error) {
	l, cm := fuzzJSON(t)
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, werr := p.Write(c); werr != nil {
			out, _ := p.Close()
			return out, werr
		}
	}
	return p.Close()
}

// FuzzStreamChunkedVsWhole is the streaming-equivalence property over
// the full lex→hDPDA pipeline: an arbitrary document split at arbitrary
// boundaries must yield the same verdict, token count, byte count, lexer
// stats, and machine result as presenting it whole — and the same error
// if it is not even tokenizable. Run `go test -fuzz=FuzzStreamChunkedVsWhole`;
// seeds run on plain `go test`.
func FuzzStreamChunkedVsWhole(f *testing.F) {
	seeds := []string{
		`{"k": [1, 2, {"n": null}], "s": "str"}`,
		`[[[[1], 2], 3], 4]`,
		`{"a": 1.5e-3, "b": [true, false]}`,
		`{"truncated": [`,
		`{"bad" 1}`,
		`"lone string"`,
		`{"u": "é\n"}`,
		``, `[]`, `{}`, `[1,]`,
		"\x01\x02", `{"x": 0x1}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), uint64(7))
		f.Add([]byte(s), uint64(0xdeadbeef))
	}

	f.Fuzz(func(t *testing.T, doc []byte, seed uint64) {
		wantOut, wantErr := runStream(t, doc, [][]byte{doc})

		var chunks [][]byte
		rng, pos := seed, 0
		for pos < len(doc) {
			rng = rng*6364136223846793005 + 1442695040888963407
			n := 1 + int((rng>>33)%9)
			if pos+n > len(doc) {
				n = len(doc) - pos
			}
			chunks = append(chunks, doc[pos:pos+n])
			pos += n
		}
		gotOut, gotErr := runStream(t, doc, chunks)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: whole=%v chunked=%v (doc %q seed %d)", wantErr, gotErr, doc, seed)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error diverged: whole=%q chunked=%q (doc %q seed %d)", wantErr, gotErr, doc, seed)
			}
			return // outcomes of failed runs are partial; nothing more to pin
		}
		if gotOut.Accepted != wantOut.Accepted || gotOut.Tokens != wantOut.Tokens || gotOut.Bytes != wantOut.Bytes {
			t.Fatalf("outcome diverged: whole=%+v chunked=%+v (doc %q seed %d)", wantOut, gotOut, doc, seed)
		}
		if !reflect.DeepEqual(gotOut.Result, wantOut.Result) {
			t.Fatalf("machine result diverged: whole=%+v chunked=%+v (doc %q seed %d)", wantOut.Result, gotOut.Result, doc, seed)
		}
		// Lexer stats are chunking-invariant, scan cycles included: the
		// lexer resumes its run across chunks instead of re-scanning.
		if gotOut.LexStats != wantOut.LexStats {
			t.Fatalf("lex stats diverged: whole=%+v chunked=%+v (doc %q seed %d)",
				wantOut.LexStats, gotOut.LexStats, doc, seed)
		}
	})
}
