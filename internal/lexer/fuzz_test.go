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

// FuzzTokenizeChunkResume is the chunk-boundary resumption property:
// feeding arbitrary input through a Scan in arbitrary pieces, then
// Finish, must produce exactly the tokens, stats, and error — same
// absolute position, byte, and mode — as one whole-input Tokenize, and
// the tokens and error of the memo-free NFA reference, naiveTokenize.
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
	l, err := New(modalSpec())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		wantToks, wantStats, wantErr := l.Tokenize(data)
		refToks, refErr := naiveTokenize(modalSpec(), data)
		if !reflect.DeepEqual(wantErr, refErr) || !slices.Equal(wantToks, refToks) {
			t.Fatalf("whole scan %v %v, reference %v %v (input %q)", wantToks, wantErr, refToks, refErr, data)
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
			t.Fatalf("error mismatch: whole=%v chunked=%v (input %q seed %d)", wantErr, gotErr, data, seed)
		}
		if !slices.Equal(got, wantToks) {
			t.Fatalf("tokens: chunked=%v whole=%v (input %q seed %d)", got, wantToks, data, seed)
		}
		// Every stat is chunking-invariant: the scan resumes its run
		// across boundaries instead of re-presenting the pending
		// lexeme, so even scan cycles match exactly.
		if wantErr == nil && scan != wantStats {
			t.Fatalf("stats diverged: chunked=%+v whole=%+v (input %q seed %d)", scan, wantStats, data, seed)
		}
	})
}
