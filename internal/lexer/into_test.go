package lexer

import (
	"reflect"
	"testing"
)

func intoSpec(t *testing.T) *Lexer {
	t.Helper()
	l, err := New(Spec{Name: "into", Rules: []Rule{
		{Name: "WORD", Pattern: "[a-z]+"},
		{Name: "NUM", Pattern: "[0-9]+"},
		{Name: "WS", Pattern: " +", Skip: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// The Into and Scan forms are pure buffer-reuse forms of
// TokenizeResume: identical tokens, stats and modes, appended into the
// caller's slice.
func TestTokenizeIntoEquivalence(t *testing.T) {
	input := []byte("abc 123 de 4 fgh")
	l := intoSpec(t)
	rToks, rStats, rMode, rErr := l.TokenizeResume(input, DefaultMode)
	iToks, iStats, iMode, iErr := l.TokenizeResumeInto(make([]Token, 0, 1), input, DefaultMode)
	if !reflect.DeepEqual(rToks, iToks) || rStats != iStats || rMode != iMode ||
		(rErr == nil) != (iErr == nil) {
		t.Errorf("resume-into mismatch")
	}

	sToks, sStats, err := scanAll(t, l, input, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rToks, sToks) || rStats != sStats {
		t.Errorf("chunked scan mismatch:\nwant %v %+v\ngot  %v %+v", rToks, rStats, sToks, sStats)
	}
}

// Reusing the destination slice across Feeds must not corrupt earlier
// results when the caller re-slices, and must reuse capacity.
func TestTokenizeIntoReuse(t *testing.T) {
	l := intoSpec(t)
	var s Scan
	if err := s.Reset(l, DefaultMode); err != nil {
		t.Fatal(err)
	}
	var buf []Token
	toks, _, err := s.Feed(buf[:0], []byte("aa 11 bb "))
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	buf = toks
	toks2, _, err := s.Feed(buf[:0], []byte("c 2 "))
	if err != nil {
		t.Fatal(err)
	}
	if len(toks2) != 2 || l.RuleName(toks2[0].Rule) != "WORD" || l.RuleName(toks2[1].Rule) != "NUM" {
		t.Fatalf("reused-buffer tokens wrong: %+v", toks2)
	}
	if toks2[0].Start != 9 || toks2[1].End != 12 {
		t.Fatalf("tokens not at absolute stream offsets: %+v", toks2)
	}
}

// Steady-state scans allocate nothing per lexeme: the scan steps the
// lexer's shared tables with its run in locals.
func TestTokenizeIntoSteadyStateAllocs(t *testing.T) {
	input := []byte("abc 123 de 4 fgh 55 iii 666 jj 7 kkk 88 l 9 mm 10")
	l := intoSpec(t)
	var buf []Token
	whole := func() {
		toks, _, _, err := l.TokenizeResumeInto(buf[:0], input, DefaultMode)
		if err != nil {
			t.Fatal(err)
		}
		buf = toks
	}
	var s Scan
	chunked := func() {
		if err := s.Reset(l, DefaultMode); err != nil {
			t.Fatal(err)
		}
		toks, _, err := s.Feed(buf[:0], input[:20])
		if err == nil {
			toks, _, err = s.Feed(toks, input[20:])
		}
		if err == nil {
			toks, _, err = s.Finish(toks)
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = toks
	}
	for name, f := range map[string]func(){"whole": whole, "chunked": chunked} {
		f() // warm-up: grow buf
		if allocs := testing.AllocsPerRun(500, f); allocs > 1 {
			t.Errorf("%s: steady-state scan = %v allocs, want ≤ 1", name, allocs)
		}
	}
}
