package lexer

import (
	"reflect"
	"slices"
	"testing"
)

// modalSpec is the fuzz lexer: modal (text vs tag), with longest-match
// backtracking (AB/ABC), failed multi-byte lookaheads the memo records
// (DASH vs ARROW on "--x"), keyword-vs-identifier priority, and skip
// rules — every boundary-carrying feature the streaming protocol must
// get right.
func modalSpec() Spec {
	return Spec{Name: "fuzz", Rules: []Rule{
		{Name: "LT", Pattern: "<", SetMode: "tag"},
		{Name: "AB", Pattern: "ab"},
		{Name: "ABC", Pattern: "abc"},
		{Name: "IF", Pattern: "if"},
		{Name: "ID", Pattern: `[a-z][a-z0-9]*`},
		{Name: "INT", Pattern: `\d+`},
		{Name: "WS", Pattern: `[ \t\r\n]+`, Skip: true},
		{Name: "DASH", Pattern: `-`},
		{Name: "ARROW", Pattern: `-+>`},
		{Name: "NAME", Pattern: `[a-z]+`, Mode: "tag"},
		{Name: "EQ", Pattern: "=", Mode: "tag"},
		{Name: "STR", Pattern: `"[^"]*"`, Mode: "tag"},
		{Name: "GT", Pattern: ">", Mode: "tag", SetMode: DefaultMode},
		{Name: "TWS", Pattern: `[ \t\r\n]+`, Mode: "tag", Skip: true},
	}}
}

// accelSpec gives the scan a row of each acceleration kind: the
// comment body and STR's by IndexByte, QSTR's body by the SWAR test
// (control bytes, quote and backslash leave it), and TEXT, an accepting
// row, by the SWAR test with three exit bytes and no lower range. LT
// against COMMENT is a multi-byte lookahead through an accelerated
// body, so a comment left open fills the memo with a run.
func accelSpec() Spec {
	return Spec{Name: "accel", Rules: []Rule{
		{Name: "LT", Pattern: "<"},
		{Name: "COMMENT", Pattern: `<!--([^-]|-[^-])*-->`},
		{Name: "LB", Pattern: `\{`, SetMode: "obj"},
		{Name: "TEXT", Pattern: `[^<{}]+`},
		{Name: "STR", Pattern: `"[^"]*"`, Mode: "obj"},
		{Name: "QSTR", Pattern: `'([^'\\\x00-\x1f]|\\[^\x00-\x1f])*'`, Mode: "obj"},
		{Name: "NAME", Pattern: `[a-z]+`, Mode: "obj"},
		{Name: "WS", Pattern: `[ \n]+`, Mode: "obj", Skip: true},
		{Name: "RB", Pattern: `\}`, Mode: "obj", SetMode: DefaultMode},
	}}
}

// FuzzTokenizeChunkResume is the chunk-boundary resumption property:
// feeding arbitrary input through a Scan in arbitrary pieces, then
// Finish, must produce exactly the tokens, stats, and error — same
// absolute position, byte, and mode — as one whole-input Tokenize, and
// the tokens and error of the memo-free NFA reference, naiveTokenize,
// on both modalSpec and accelSpec.
// Run `go test -fuzz=FuzzTokenizeChunkResume` to explore; seeds run on
// plain `go test`.
func FuzzTokenizeChunkResume(f *testing.F) {
	seeds := []string{
		"if x1 + 42",
		"<a b=\"c\">abd abc ab<x>",
		"abcabdab",
		"text <tag key=\"v\" k2=\"\"> more 123",
		"x @ y",       // lex error in default mode
		"<a b=\"open", // unterminated string: error surfaces at flush
		"", " ", "<", "<>", "ifif if0if",
	}
	for _, s := range seeds {
		f.Add([]byte(s), uint64(1))
		f.Add([]byte(s), uint64(0x9e3779b97f4a7c15))
	}
	// Handoffs into and out of the compiled loop (see TestScanHandoffs);
	// seed 1 cuts chunks of 2, 2, 2, …, seed 4 cuts 3 then 7, seed 17
	// cuts 5 then 2.
	f.Add([]byte("--x -->-"), uint64(1)) // backtrack into the kept bytes
	f.Add([]byte("---x ab"), uint64(1))  // memo filled, hit, cleared
	f.Add([]byte("ab<x>ab"), uint64(4))  // LT switches mode on a chunk's last byte
	f.Add([]byte("ab<x>ab"), uint64(17)) // and GT back
	// Self-loop runs the accelerated scan skips, across chunk
	// boundaries: each kind, a comment left open (its failed lookahead
	// memoized over the run), and runs longer than a SWAR word.
	f.Add([]byte(`{'abcdefghij\'klmnopqrstuvwxyz' "0123456789 abc" x}`), uint64(1))
	f.Add([]byte("text before <!-- an open comment <!-- and another < more"), uint64(4))
	f.Add([]byte("<!-- a closed comment - with dashes -- -->text{}text"), uint64(17))
	f.Add([]byte("{'tab\tin a quoted body' \"\n\"}"), uint64(1))
	specs := []Spec{modalSpec(), accelSpec()}
	lexers := make([]*Lexer, len(specs))
	for k, spec := range specs {
		l, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		lexers[k] = l
	}

	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		for k, l := range lexers {
			chunkedMatchesWhole(t, l, specs[k], data, seed)
		}
	})
}

// chunkedMatchesWhole checks one input of FuzzTokenizeChunkResume on
// one lexer, cutting chunks of 1 to 7 bytes drawn from seed.
func chunkedMatchesWhole(t *testing.T, l *Lexer, spec Spec, data []byte, seed uint64) {
	wantToks, wantStats, wantErr := l.Tokenize(data)
	refToks, refErr := naiveTokenize(spec, data)
	if !reflect.DeepEqual(wantErr, refErr) || !slices.Equal(wantToks, refToks) {
		t.Fatalf("%s: whole scan %v %v, reference %v %v (input %q)", spec.Name, wantToks, wantErr, refToks, refErr, data)
	}
	var (
		s      Scan
		got    []Token
		gotErr error
		scan   Stats
		pos    = 0
		rng    = seed
	)
	if err := s.Reset(l, DefaultMode); err != nil {
		t.Fatal(err)
	}
	add := func(toks []Token, st Stats, err error) {
		got = toks
		scan.Bytes += st.Bytes
		scan.Tokens += st.Tokens
		scan.ScanCycles += st.ScanCycles
		scan.HandoffCycles += st.HandoffCycles
		gotErr = err
	}
	for pos < len(data) && gotErr == nil {
		rng = rng*6364136223846793005 + 1442695040888963407
		n := 1 + int((rng>>33)%7)
		if pos+n > len(data) {
			n = len(data) - pos
		}
		add(s.Feed(got, data[pos:pos+n]))
		pos += n
	}
	if gotErr == nil {
		// End of stream: the pending lexeme resolves its longest match.
		add(s.Finish(got))
	}

	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("%s: error mismatch: whole=%v chunked=%v (input %q seed %d)", spec.Name, wantErr, gotErr, data, seed)
	}
	if !slices.Equal(got, wantToks) {
		t.Fatalf("%s: tokens: chunked=%v whole=%v (input %q seed %d)", spec.Name, got, wantToks, data, seed)
	}
	// Every stat is chunking-invariant: the scan resumes its run
	// across boundaries instead of re-presenting the pending
	// lexeme, so even scan cycles match exactly.
	if wantErr == nil && scan != wantStats {
		t.Fatalf("%s: stats diverged: chunked=%+v whole=%+v (input %q seed %d)", spec.Name, scan, wantStats, data, seed)
	}
}
