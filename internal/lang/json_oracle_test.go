package lang_test

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/stream"
)

var jsonOracleOnce struct {
	sync.Once
	l    *lang.Language
	cm   *compile.Compiled
	prog *engine.Program
	lx   *lexer.Lexer
	err  error
}

func jsonOracleKit(t testing.TB) (*lang.Language, *compile.Compiled, *engine.Program, *lexer.Lexer) {
	k := &jsonOracleOnce
	k.Do(func() {
		k.l = lang.JSON()
		if k.cm, k.err = k.l.Compile(compile.OptAll); k.err != nil {
			return
		}
		if k.prog, k.err = k.cm.Engine(); k.err != nil {
			return
		}
		k.lx, k.err = k.l.Lexer()
	})
	if k.err != nil {
		t.Fatal(k.err)
	}
	return k.l, k.cm, k.prog, k.lx
}

// chunkedVerdict streams doc through p in pieces of 1–9 bytes drawn
// from seed and reports whether the parser accepted it.
func chunkedVerdict(p *stream.Parser, doc []byte, seed uint64) (bool, error) {
	for pos := 0; pos < len(doc); {
		seed = seed*6364136223846793005 + 1442695040888963407
		n := min(1+int((seed>>33)%9), len(doc)-pos)
		if _, err := p.Write(doc[pos : pos+n]); err != nil {
			return false, err
		}
		pos += n
	}
	out, err := p.Close()
	return err == nil && out.Accepted, err
}

// FuzzJSONOracle checks the JSON language against an independent
// oracle, encoding/json.Valid, in both directions: the whole-document
// path (lexer, then the simulator), and a randomly chunked
// stream.Parser on the simulator and on the engine, must each accept
// exactly the documents the oracle accepts.
//
// Two divergences are intended:
//   - A number is three tokens (paper Table III: INT, FRAC, EXP), and
//     whitespace is skipped between tokens, so `[1 .5]` and `[1 e5]`
//     are accepted. The test asserts this case by token offsets: some
//     INT or FRAC token is followed, after a gap, by the FRAC or EXP
//     token of the same number, and closing every such gap yields a
//     document the oracle accepts.
//   - Nesting deeper than the machine's stack is refused with
//     core.ErrStackOverflow, a resource limit rather than a verdict;
//     such documents are skipped.
//
// Run `go test -fuzz=FuzzJSONOracle` to explore; seeds run on plain
// `go test`.
func FuzzJSONOracle(f *testing.F) {
	seeds := []string{
		lang.JSONSample,
		`{"a": [1, -2.5e3, "s\n\u00e9\/", true, false, null]}`,
		`[]`, `{}`, `0`, `-0.0e+0`, `"x"`, ` [ 1 , 2 ] `,
		`{"a":"\x"}`, "\"a\x01b\"", `"\u12"`, `"\u12g4"`, `"\uAbC9"`, "\"\xff\"",
		`[1 .5]`, `[1 e5]`, `[1.5 E-3]`, `[01]`, `[1.]`, `[.5]`, `[-]`, `[1e]`,
		`{"a" 1}`, `[1,]`, `[1`, ``, `tru`, `nul`, `[true false]`,
	}
	for i, s := range seeds {
		f.Add([]byte(s), uint64(i))
	}
	f.Fuzz(func(t *testing.T, doc []byte, seed uint64) {
		l, cm, prog, lx := jsonOracleKit(t)
		whole, err := l.Parse(cm, doc, core.ExecOptions{})
		if errors.Is(err, core.ErrStackOverflow) {
			return
		}
		got := err == nil && whole.Accepted
		sim, err := stream.NewParser(l, cm, core.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := stream.NewParserBackend(l, cm, engine.NewExec(prog, engine.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*stream.Parser{"simulator": sim, "engine": eng} {
			v, err := chunkedVerdict(p, doc, seed)
			if errors.Is(err, core.ErrStackOverflow) {
				t.Fatalf("%s: chunked stack overflow on %q, whole document did not overflow", name, doc)
			}
			if v != got {
				t.Fatalf("%s: chunked verdict %v, whole document %v (doc %q seed %d)", name, v, got, doc, seed)
			}
		}
		want := json.Valid(doc)
		if got == want {
			return
		}
		if !got {
			t.Fatalf("JSON rejected %q, encoding/json accepts it", doc)
		}
		// Accepted against the oracle: only a spaced-out number may do that.
		toks, _, err := lx.Tokenize(doc)
		if err != nil {
			t.Fatalf("accepted %q but it does not lex: %v", doc, err)
		}
		closed := doc[:0:0]
		from, gaps := 0, 0
		for i := 1; i < len(toks); i++ {
			a, b := lx.RuleName(toks[i-1].Rule), lx.RuleName(toks[i].Rule)
			inNumber := (a == "INT" && (b == "FRAC" || b == "EXP")) || (a == "FRAC" && b == "EXP")
			if inNumber && toks[i-1].End < toks[i].Start {
				closed = append(closed, doc[from:toks[i-1].End]...)
				from = toks[i].Start
				gaps++
			}
		}
		closed = append(closed, doc[from:]...)
		if gaps == 0 {
			t.Fatalf("JSON accepted %q, encoding/json rejects it", doc)
		}
		if !json.Valid(closed) {
			t.Fatalf("JSON accepted %q; closing its %d spaced number parts gives %q, which encoding/json rejects",
				doc, gaps, closed)
		}
	})
}
