package lang

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lexer"
	"aspen/internal/xmlgen"
)

var samples = map[string]string{
	"Cool": CoolSample,
	"DOT":  DOTSample,
	"JSON": JSONSample,
	"XML":  XMLSample,
}

func TestAllLanguagesCompile(t *testing.T) {
	for _, l := range All() {
		for _, opts := range []compile.Options{compile.OptNone, compile.OptEpsilonOnly, compile.OptAll} {
			cm, err := l.Compile(opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", l.Name, opts, err)
			}
			if cm.Stats.States == 0 || cm.Stats.ParsingStates == 0 {
				t.Errorf("%s: empty stats %+v", l.Name, cm.Stats)
			}
		}
	}
}

func TestSamplesParse(t *testing.T) {
	for _, l := range All() {
		sample, ok := samples[l.Name]
		if !ok {
			t.Fatalf("no sample for %s", l.Name)
		}
		for _, opts := range []compile.Options{compile.OptNone, compile.OptAll} {
			cm, err := l.Compile(opts)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			out, err := l.Parse(cm, []byte(sample), core.ExecOptions{CollectReports: true})
			if err != nil {
				t.Fatalf("%s %+v: %v", l.Name, opts, err)
			}
			if !out.Accepted {
				t.Fatalf("%s %+v: sample rejected after %d/%d tokens",
					l.Name, opts, out.Result.Consumed, out.Tokens+1)
			}
			if out.Tokens == 0 || len(out.Result.Reports) == 0 {
				t.Errorf("%s: no tokens or reports: %+v", l.Name, out)
			}
		}
	}
}

// Reductions from the hDPDA must match the LR oracle on every sample.
func TestSampleReductionsMatchOracle(t *testing.T) {
	for _, l := range All() {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		lx, err := l.Lexer()
		if err != nil {
			t.Fatal(err)
		}
		toks, _, err := lx.Tokenize([]byte(samples[l.Name]))
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		syms, err := l.Syms(toks)
		if err != nil {
			t.Fatal(err)
		}
		oracle := cm.Table.Parse(syms)
		if !oracle.Accepted {
			t.Fatalf("%s: oracle rejected sample at token %d", l.Name, oracle.ErrPos)
		}
		res, err := cm.ParseTokens(syms, core.ExecOptions{CollectReports: true})
		if err != nil || !res.Accepted {
			t.Fatalf("%s: hDPDA rejected: %+v %v", l.Name, res, err)
		}
		got := compile.Reductions(res)
		if len(got) != len(oracle.Reductions) {
			t.Fatalf("%s: %d reductions vs oracle %d", l.Name, len(got), len(oracle.Reductions))
		}
		for i := range got {
			if got[i] != oracle.Reductions[i] {
				t.Fatalf("%s: reduction %d = %d, oracle %d", l.Name, i, got[i], oracle.Reductions[i])
			}
		}
	}
}

func TestCorruptedSamplesRejected(t *testing.T) {
	corrupt := map[string][]string{
		"JSON": {
			`{"a": 1,}`, `{"a" 1}`, `[1, 2`, `{]}`, `truefalse x`,
		},
		"XML": {
			`<a><b></a></b>x`, // note: tag-name mismatch is semantic, but this also breaks nesting arity? keep syntactic ones below
			`<a attr=>1</a>`,
			`<a`, `</a>`, `<a></a></b>`,
		},
		"DOT": {
			`graph { a -> }`, `digraph`, `graph { [x] }`, `strict { a }`,
		},
		"Cool": {
			`class Main { main() : Object { 1 + } };`,
			`class { };`, `class Main inherits { };`,
		},
	}
	for _, l := range All() {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		for _, doc := range corrupt[l.Name] {
			out, err := l.Parse(cm, []byte(doc), core.ExecOptions{})
			if err == nil && out.Accepted {
				t.Errorf("%s: corrupted doc accepted: %q", l.Name, doc)
			}
		}
	}
}

// Table III shape check: token and production counts are close to the
// paper's figures.
func TestTableIIIShape(t *testing.T) {
	want := map[string][2]int{ // tokens, productions
		"Cool": {42, 60},
		"DOT":  {20, 49},
		"JSON": {13, 21},
		"XML":  {13, 24},
	}
	for _, l := range All() {
		w := want[l.Name]
		if got := l.Grammar.NumTokenTypes(); got != w[0] {
			t.Errorf("%s: %d token types, want %d", l.Name, got, w[0])
		}
		if got := len(l.Grammar.Productions); got != w[1] {
			t.Errorf("%s: %d productions, want %d", l.Name, got, w[1])
		}
	}
}

func TestOptimizationShrinksAllLanguages(t *testing.T) {
	for _, l := range All() {
		none, err := l.Compile(compile.OptNone)
		if err != nil {
			t.Fatal(err)
		}
		all, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		if all.Stats.States >= none.Stats.States {
			t.Errorf("%s: optimized states %d !< raw %d", l.Name, all.Stats.States, none.Stats.States)
		}
		if all.Stats.EpsStates >= none.Stats.EpsStates {
			t.Errorf("%s: optimized ε-states %d !< raw %d", l.Name, all.Stats.EpsStates, none.Stats.EpsStates)
		}
		t.Logf("%s: states %d→%d, ε %d→%d, parsing automaton %d",
			l.Name, none.Stats.States, all.Stats.States,
			none.Stats.EpsStates, all.Stats.EpsStates, all.Stats.ParsingStates)
	}
}

func TestByName(t *testing.T) {
	if ByName("JSON") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
}

func TestXMLLexerTokens(t *testing.T) {
	l := XML()
	lx, err := l.Lexer()
	if err != nil {
		t.Fatal(err)
	}
	toks, _, err := lx.Tokenize([]byte(`<a x="1">hi<br/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tk := range toks {
		got = append(got, lx.RuleName(tk.Rule))
	}
	want := "LT,NAME,NAME,EQ,STRING,GT,TEXT,LT,NAME,SLASHGT,LTSLASH,NAME,GT"
	if strings.Join(got, ",") != want {
		t.Fatalf("tokens = %v", got)
	}
}

func TestJSONLexerNumberForms(t *testing.T) {
	l := JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{`0`, `-12`, `3.5`, `-0.125`, `2e10`, `6.02e-23`, `1E+9`} {
		out, err := l.Parse(cm, []byte(doc), core.ExecOptions{})
		if err != nil || !out.Accepted {
			t.Errorf("JSON number %q rejected: %+v %v", doc, out, err)
		}
	}
}

// A durable session's checkpoint holds the lexer's raw DFA state IDs and
// is refused (410 Gone) by a node whose lexer fingerprint differs, so
// the built-in lexers' fingerprints are pinned: a renumbered table or a
// changed rule must show up here, not across a rolling upgrade. JSON's
// value changed once, when its STRING rule was brought in line with RFC
// 8259.
func TestLexerFingerprintsPinned(t *testing.T) {
	want := map[string]uint64{
		"Cool":  0xb8707aca76065760,
		"DOT":   0x809526479cb6ee1e,
		"JSON":  0x32155c2073455bf6,
		"XML":   0xf75ae685a05ad47d,
		"MiniC": 0xa2f75848f79d531f,
	}
	for _, l := range append(All(), MiniC()) {
		lx, err := l.Lexer()
		if err != nil {
			t.Fatal(err)
		}
		if got := lx.Fingerprint(); got != want[l.Name] {
			t.Errorf("%s lexer fingerprint %#016x, want %#016x", l.Name, got, want[l.Name])
		}
	}
}

// goldenScanDocs are the documents TestScanImagesPinned saves scans
// over: JSON records, a JSON string body long enough to cross many
// chunk boundaries, and generated XML documents at medium and low
// markup density.
func goldenScanDocs() map[string][]byte {
	blob := make([]byte, 8<<10)
	for i := range blob {
		blob[i] = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"[(i*37+i/64)%64]
	}
	return map[string][]byte{
		"JSON":      []byte("[" + strings.TrimSuffix(strings.Repeat(JSONSample+",\n", 12), ",\n") + "]"),
		"JSON-blob": []byte(`{"name": "attachment", "data": "` + string(blob) + `", "ok": true}`),
		"XML":       xmlgen.Generate("golden", 32<<10, 0.4, 3).Data,
		"XML-text":  xmlgen.Generate("golden-text", 16<<10, 0.1, 4).Data,
	}
}

// A durable session's checkpoint embeds the lexer's scan image
// (lexer.Scan.AppendBinary), so the images are pinned as well as the
// fingerprints: a scan saved at every 997-byte boundary of each golden
// document must encode to exactly these bytes, whatever numbering the
// lexer runs on internally.
func TestScanImagesPinned(t *testing.T) {
	want := map[string]string{
		"JSON":      "7468e5d416eb15de476aeebce531126ba80655e3705c42d710d0cba16f1f6afa",
		"JSON-blob": "785006ba9eeadaeacef9b0865987cc9458c6e50a050387173a047b00b742a93f",
		"XML":       "c464b278864aba99cc2a94051150cc084d12296d3de01606961ec18bc6286ee5",
		"XML-text":  "afa12cea82cf903a88ac721a9eba6a2d34557063485bfbd347703e2e803842b0",
	}
	langs := map[string]*Language{"JSON": JSON(), "JSON-blob": JSON(), "XML": XML(), "XML-text": XML()}
	for name, doc := range goldenScanDocs() {
		lx, err := langs[name].Lexer()
		if err != nil {
			t.Fatal(err)
		}
		var s lexer.Scan
		if err := s.Reset(lx, lexer.DefaultMode); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var toks []lexer.Token
		images := 0
		for rest := doc; len(rest) > 0; {
			n := min(997, len(rest))
			if toks, _, err = s.Feed(toks[:0], rest[:n]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rest = rest[n:]
			h.Write(s.AppendBinary(nil))
			images++
		}
		if _, _, err := s.Finish(toks[:0]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: %d scan images hash to %s, want %s", name, images, got, want[name])
		}
	}
}
