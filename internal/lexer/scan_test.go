package lexer

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"aspen/internal/core"
	"aspen/internal/nfa"
)

// munchSpec is the backtracking worst case for maximal munch: on a…a
// with no b, every lexeme's lookahead for a+b runs to the end of input.
func munchSpec() Spec {
	return Spec{Name: "munch", Rules: []Rule{
		{Name: "A", Pattern: "a"},
		{Name: "AB", Pattern: "a+b"},
	}}
}

// scanAll feeds input to a fresh scan in chunks of size chunk (0 =
// whole) and finishes it, summing the stats.
func scanAll(t testing.TB, l *Lexer, input []byte, chunk int) ([]Token, Stats, error) {
	t.Helper()
	var s Scan
	if err := s.Reset(l, DefaultMode); err != nil {
		t.Fatal(err)
	}
	if chunk <= 0 {
		chunk = len(input) + 1
	}
	var toks []Token
	var sum Stats
	add := func(st Stats) {
		sum.Bytes += st.Bytes
		sum.Tokens += st.Tokens
		sum.ScanCycles += st.ScanCycles
		sum.HandoffCycles += st.HandoffCycles
	}
	for len(input) > 0 {
		n := min(chunk, len(input))
		var st Stats
		var err error
		toks, st, err = s.Feed(toks, input[:n])
		add(st)
		if err != nil {
			return toks, sum, err
		}
		input = input[n:]
	}
	toks, st, err := s.Finish(toks)
	add(st)
	return toks, sum, err
}

// TestLinearMaximalMunch pins Reps' memoized backtracking: the
// quadratic a…a input costs a constant number of scan cycles per byte,
// whole or in 32 KiB chunks.
func TestLinearMaximalMunch(t *testing.T) {
	l, err := New(munchSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{4 << 10, 32 << 10, 256 << 10} {
		input := bytes.Repeat([]byte("a"), size)
		for _, chunk := range []int{0, 32 << 10} {
			toks, st, err := scanAll(t, l, input, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if len(toks) != size || toks[size-1] != (Token{Rule: 0, Start: size - 1, End: size}) {
				t.Fatalf("size %d: %d tokens, want %d single-a tokens", size, len(toks), size)
			}
			if per := float64(st.ScanCycles) / float64(size); per > 3 {
				t.Errorf("size %d chunk %d: %.2f scan cycles/byte, want ≤ 3", size, chunk, per)
			}
		}
	}
}

// TestScanResumeRoundTrip saves the scan at every chunk boundary,
// resumes a fresh scan from the image, and requires the continuation to
// be identical to the uninterrupted scan — tokens, stats, errors —
// including states with a pending accept, kept bytes and live memo
// entries.
func TestScanResumeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	inputs := [][]byte{
		[]byte(`text <tag key="v" k2=""> more 123 abcab ifx <a b="open`),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaab aaaaaaaaaaa"),
		[]byte("aaaac aaab aaaac aaa aaaaaaaaaac"),
		bytes.Repeat([]byte("ab abc abd "), 20),
	}
	specs := []Spec{modalSpec(), modeMunchSpec(), {Name: "munch-ws", Rules: append(munchSpec().Rules,
		Rule{Name: "WS", Pattern: " +", Skip: true}, Rule{Name: "ID", Pattern: "[a-z]+"})}}
	for si, spec := range specs {
		l, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			want, wantSt, wantErr := scanAll(t, l, in, 0)
			for trial := 0; trial < 20; trial++ {
				var s Scan
				if err := s.Reset(l, DefaultMode); err != nil {
					t.Fatal(err)
				}
				var got []Token
				var cycles int
				var gotErr error
				for pos := 0; pos < len(in) && gotErr == nil; {
					n := min(1+r.Intn(9), len(in)-pos)
					var st Stats
					got, st, gotErr = s.Feed(got, in[pos:pos+n])
					cycles += st.ScanCycles
					pos += n
					if gotErr != nil {
						break
					}
					img := s.AppendBinary(nil)
					var back Scan
					if err := back.Resume(l, img, s.End()); err != nil {
						t.Fatalf("spec %d: resume at %d: %v", si, pos, err)
					}
					if again := back.AppendBinary(nil); !bytes.Equal(again, img) {
						t.Fatalf("spec %d: re-encoded image differs at %d", si, pos)
					}
					s = back
				}
				if gotErr == nil {
					var st Stats
					got, st, gotErr = s.Finish(got)
					cycles += st.ScanCycles
				}
				if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) ||
					(gotErr == nil && cycles != wantSt.ScanCycles) {
					t.Fatalf("spec %d input %q: resumed scan diverged:\n got %v %d %v\nwant %v %d %v",
						si, in, got, cycles, gotErr, want, wantSt.ScanCycles, wantErr)
				}
			}
		}
	}
}

// modeMunchSpec makes a failed lookahead's memo entries outlive a chunk
// boundary: after A switches to mode w, the W lexeme runs on over the
// positions main's lookahead failed at.
func modeMunchSpec() Spec {
	return Spec{Name: "munch-mode", Rules: []Rule{
		{Name: "A", Pattern: "a", SetMode: "w"},
		{Name: "AB", Pattern: "a+b"},
		{Name: "WS", Pattern: " +", Skip: true},
		{Name: "W", Pattern: "[a-z]+", Mode: "w", SetMode: DefaultMode},
		{Name: "WWS", Pattern: " +", Mode: "w", Skip: true, SetMode: DefaultMode},
	}}
}

// TestScanResumeRejectsDamage damages saved scans — one with live memo
// entries, one with kept bytes, one saved after a lex error, which is
// refused undamaged — by flipping every bit, by writing every
// state number of the lexer into each state word, and by truncating
// them at every length: Resume either refuses the image or yields a scan
// that finishes, at once or after more input, without panicking. A damaged state must never
// index outside the lexer's tables, and a pending accept's state must
// accept the saved rule.
func TestScanResumeRejectsDamage(t *testing.T) {
	cases := []struct {
		spec    Spec
		in      string
		memo    bool
		keptLen int
		lexErr  bool
	}{
		{modeMunchSpec(), "aaaac", true, 0, false},
		{munchSpec(), "aaa", false, 2, false},
		{munchSpec(), "aac", false, 0, true},
	}
	for _, c := range cases {
		l, err := New(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var s Scan
		if err := s.Reset(l, DefaultMode); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Feed(nil, []byte(c.in)); (err != nil) != c.lexErr {
			t.Fatalf("%s: feeding %q: %v", c.spec.Name, c.in, err)
		}
		if (len(s.memo) > 0) != c.memo || len(s.kept) != c.keptLen {
			t.Fatalf("%s: scan holds %d memo entries and %d kept bytes, want memo=%v kept=%d",
				c.spec.Name, len(s.memo), len(s.kept), c.memo, c.keptLen)
		}
		img := s.AppendBinary(nil)
		if err := new(Scan).Resume(l, img, s.End()); c.lexErr && err == nil {
			t.Fatalf("%s: a scan saved after a lex error resumed", c.spec.Name)
		}
		try := func(data []byte) {
			for _, more := range []string{"", "ab a"} {
				var back Scan
				if back.Resume(l, data, s.End()) != nil {
					return
				}
				toks, _, err := back.Feed(nil, []byte(more))
				if err == nil {
					_, _, _ = back.Finish(toks)
				}
			}
		}
		for i := range img {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), img...)
				mut[i] ^= 1 << bit
				try(mut)
			}
		}
		states := 0
		for _, mn := range l.order {
			states = max(states, len(mn.orig))
		}
		for _, off := range stateWords(img) {
			for q := range states {
				mut := append([]byte(nil), img...)
				binary.LittleEndian.PutUint64(mut[off:], uint64(q))
				try(mut)
			}
		}
		for cut := 0; cut < len(img); cut++ {
			if err := new(Scan).Resume(l, img[:cut], s.End()); err == nil {
				t.Fatalf("%s: truncation at %d accepted", c.spec.Name, cut)
			}
		}
	}
}

// stateWords returns the offsets of the DFA state words in a scan image
// (see AppendBinary): the run's, the pending accept's, and each memo
// entry's.
func stateWords(img []byte) []int {
	var offs []int
	p := 4 + 8 + 1 // mode, lexeme start, first byte
	u32 := func() int {
		v := int(binary.LittleEndian.Uint32(img[p:]))
		p += 4
		return v
	}
	state := func() {
		for n := u32(); n > 0; n-- {
			offs = append(offs, p)
			p += 8
		}
	}
	state()
	if p++; img[p-1] == 1 {
		p += 8 + 4 // accept end, rule
		state()
	}
	p += u32() // kept bytes
	for n := u32(); n > 0; n-- {
		p += 8 + 4 // position, mode
		state()
	}
	return offs
}

// The fingerprint is a pure function of the compiled tables: equal for
// two compilations of one spec, different when a rule changes.
func TestFingerprint(t *testing.T) {
	mk := func(spec Spec) uint64 {
		l, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		return l.Fingerprint()
	}
	if mk(modalSpec()) != mk(modalSpec()) {
		t.Fatal("fingerprint differs between two compilations of one spec")
	}
	other := modalSpec()
	other.Rules[4].Pattern = `[a-z][a-z0-9_]*`
	if mk(other) == mk(modalSpec()) {
		t.Fatal("fingerprint ignores a changed pattern")
	}
}

// naiveTokenize is the reference maximal munch with no memo and no DFA:
// every lexeme runs a fresh NFA of its mode, compiled here from spec, to
// exhaustion or end of input and backtracks to its longest accept.
func naiveTokenize(spec Spec, input []byte) ([]Token, error) {
	type mode struct {
		n     *nfa.NFA
		rules []int // report code → rule index
	}
	modes := map[string]*mode{}
	pats := map[string][]string{}
	for i, r := range spec.Rules {
		name := cmp.Or(r.Mode, DefaultMode)
		if modes[name] == nil {
			modes[name] = &mode{}
		}
		modes[name].rules = append(modes[name].rules, i)
		pats[name] = append(pats[name], r.Pattern)
	}
	for name, m := range modes {
		n, err := nfa.CompilePatterns(spec.Name+":"+name, pats[name])
		if err != nil {
			return nil, err
		}
		m.n = n
	}
	var toks []Token
	name := DefaultMode
	for pos := 0; pos < len(input); {
		mode := modes[name]
		r := mode.n.NewRun()
		best, rule := -1, -1
		for i := pos; i < len(input); i++ {
			alive, rep := r.Step(core.Symbol(input[i]))
			if rep >= 0 {
				best, rule = i+1, mode.rules[rep]
			}
			if !alive {
				break
			}
		}
		if best < 0 {
			return toks, &Error{Spec: spec.Name, Pos: pos, Byte: input[pos], Mode: name}
		}
		if !spec.Rules[rule].Skip {
			toks = append(toks, Token{Rule: rule, Start: pos, End: best})
		}
		if next := spec.Rules[rule].SetMode; next != "" {
			name = next
		}
		pos = best
	}
	return toks, nil
}

// matchesNaive scans trials random inputs of up to maxLen bytes drawn
// from alphabet, every eighth with a lex error, and checks that whole and
// chunked scans emit the memo-free reference's tokens and error and
// agree on scan cycles.
func matchesNaive(t *testing.T, spec Spec, alphabet string, seed int64, trials, maxLen int) {
	t.Helper()
	l, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		in := make([]byte, r.Intn(maxLen))
		for i := range in {
			in[i] = alphabet[r.Intn(len(alphabet))]
		}
		if len(in) > 0 && trial%8 == 0 {
			in[r.Intn(len(in))] = '!' // a lex error
		}
		agreesNaive(t, l, spec, in, 0, 1+r.Intn(9))
	}
}

// agreesNaive scans in on l, built from spec, whole (chunk 0) or in
// each of the given chunk sizes, and checks that every scan emits the
// memo-free reference's tokens and error and that all agree on scan
// cycles.
func agreesNaive(t *testing.T, l *Lexer, spec Spec, in []byte, chunks ...int) {
	t.Helper()
	want, wantErr := naiveTokenize(spec, in)
	cycles := -1
	for _, chunk := range chunks {
		got, st, err := scanAll(t, l, in, chunk)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("%s input %q chunk %d: got %v %v, want %v %v", spec.Name, in, chunk, got, err, want, wantErr)
		}
		if cycles >= 0 && err == nil && st.ScanCycles != cycles {
			t.Fatalf("%s input %q chunk %d: %d scan cycles, the whole scan took %d",
				spec.Name, in, chunk, st.ScanCycles, cycles)
		}
		if err == nil {
			cycles = st.ScanCycles
		}
	}
}

// TestMemoMatchesNaiveMunch checks the failure memo against the
// memo-free reference on inputs dense in failed multi-byte lookaheads,
// across modes.
func TestMemoMatchesNaiveMunch(t *testing.T) {
	spec := Spec{Name: "memo", Rules: []Rule{
		{Name: "A", Pattern: "a"},
		{Name: "AB", Pattern: "a+b"},
		{Name: "ABC", Pattern: "(ab)+c"},
		{Name: "X", Pattern: "x"},
		{Name: "XYZ", Pattern: "xy*z"},
		{Name: "Y", Pattern: "[bcyz>]"},
		{Name: "WS", Pattern: " +", Skip: true},
		{Name: "LT", Pattern: "<", SetMode: "tag"},
		{Name: "T", Pattern: "a", Mode: "tag"},
		{Name: "TAB", Pattern: "(a|b)+c", Mode: "tag"},
		{Name: "TY", Pattern: "[bcxyz <]", Mode: "tag"},
		{Name: "GT", Pattern: ">", Mode: "tag", SetMode: DefaultMode},
	}}
	matchesNaive(t, spec, "aaaabbcxyyyz <>", 7, 2000, 80) // every byte lexes in both modes
}

// TestAccelMatchesNaive checks the accelerated scan against the
// memo-free reference on inputs dense in long self-loop runs of every
// acceleration kind, and in comments left open, whose failed lookahead
// puts a run under the memo.
func TestAccelMatchesNaive(t *testing.T) {
	l, err := New(accelSpec())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[uint8]bool{}
	accepting := false
	for _, mn := range l.order {
		for _, a := range mn.accels {
			kinds[a.kind] = true
		}
		accepting = accepting || mn.accelHi > mn.accLo
	}
	if len(kinds) != 2 || !accepting {
		t.Fatalf("accelSpec accelerates kinds %v (accepting row: %v), want both and an accepting row", kinds, accepting)
	}
	matchesNaive(t, accelSpec(), "aaaaaaaaaaaa   <<!--->{}{}\"\"''\\\x01\n", 23, 1500, 300)
	// Every run length up to past two SWAR words, so each exit falls at
	// every offset within a word.
	for n := range 40 {
		run := strings.Repeat("a", n)
		for _, in := range []string{
			"{'" + run + "'}", "{'" + run + "\x01'}",
			"{'" + run + "\\'" + run + "'}", `{"` + run + `"}`, run + "<" + run,
			"<!--" + run + "-->", "<!--" + run + "<!--" + run, "<!--" + run + "--x", run + "}",
		} {
			agreesNaive(t, l, accelSpec(), []byte(in), 0, 3, 8)
		}
	}
}

// TestScanHandoffs pins the scan's handoffs into and out of its DFA
// loop — across a chunk boundary, into and out of the kept bytes, the
// memo, and mode switches. Every chunking must emit the memo-free
// reference's tokens or error, and exactly the scan and handoff cycles
// of the hardware NFA, worked out by hand for each case.
func TestScanHandoffs(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		chunks  [][]int // chunk sizes; the rest of the input follows whole
		cycles  int
		handoff int
		err     *Error
	}{
		// DASH accepts at 1; ARROW's lookahead "-" is kept at the chunk
		// end and dies on "x", so the next lexeme starts in the kept
		// bytes and crosses into the chunk: 3+2+1 cycles.
		{"accept in kept bytes", "--x", [][]int{{2}, {1}, {1, 1}}, 6, 6, nil},
		// "---" then "x" fails ARROW two bytes past DASH's accept and
		// fills the memo; the second DASH stops on a failed entry, the
		// third passes the memo, which is cleared; the lexemes after it
		// run as usual: 4+2+2+2+2+2 cycles.
		{"memo filled, hit, cleared", "---x ab", [][]int{{2}, {3}, {4, 1}, {1, 1, 1, 1}}, 14, 10, nil},
		// LT switches to the tag mode on the last byte of a chunk, and
		// GT back: 3+2+2+2+2 cycles.
		{"mode switch at chunk end", "ab<x>ab", [][]int{{3}, {5}, {3, 2}}, 11, 10, nil},
		// The unterminated string starts in one chunk and fails at the
		// end of the stream: the error names its first byte.
		{"error after a boundary", `<a b="open`, [][]int{{3, 4}, {6}, {5}}, 0, 0,
			&Error{Spec: "fuzz", Pos: 5, Byte: '"', Mode: "tag"}},
	}
	l, err := New(modalSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		in := []byte(c.in)
		want, wantErr := naiveTokenize(modalSpec(), in)
		if c.err == nil && wantErr != nil || c.err != nil && !reflect.DeepEqual(wantErr, c.err) {
			t.Fatalf("%s: reference error %v, want %v", c.name, wantErr, c.err)
		}
		for _, sizes := range append([][]int{nil}, c.chunks...) {
			var s Scan
			if err := s.Reset(l, DefaultMode); err != nil {
				t.Fatal(err)
			}
			var got []Token
			var sum Stats
			var err error
			add := func(toks []Token, st Stats, e error) {
				got, err = toks, e
				sum.ScanCycles += st.ScanCycles
				sum.HandoffCycles += st.HandoffCycles
			}
			rest := in
			for _, n := range sizes {
				add(s.Feed(got, rest[:n]))
				rest = rest[n:]
			}
			if err == nil {
				add(s.Feed(got, rest))
			}
			if err == nil {
				add(s.Finish(got))
			}
			where := fmt.Sprintf("%s chunks %v", c.name, sizes)
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Errorf("%s: tokens %v, reference %v", where, got, want)
			}
			if !reflect.DeepEqual(err, wantErr) {
				t.Errorf("%s: error %v, reference %v", where, err, wantErr)
			}
			if c.err == nil && (sum.ScanCycles != c.cycles || sum.HandoffCycles != c.handoff) {
				t.Errorf("%s: %d scan and %d handoff cycles, want %d and %d",
					where, sum.ScanCycles, sum.HandoffCycles, c.cycles, c.handoff)
			}
		}
	}
}
