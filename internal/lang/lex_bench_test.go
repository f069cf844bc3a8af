package lang

import (
	"bytes"
	"fmt"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lexer"
	"aspen/internal/xmlgen"
)

// lexRecordsDoc is a ≈64 KiB JSON document: an array of records mixing
// strings, numbers, literals and nesting.
func lexRecordsDoc() []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i := 0; b.Len() < 64<<10; i++ {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, `  {"id": %d, "name": "record-%d", "note": "stack automaton in sram, bank %d", `+
			`"score": %d.%03d, "ok": %t, "next": null, "tags": ["sram", "pda"]}`,
			i, i, i%17, i%97, i%1000, i%2 == 0)
	}
	b.WriteString("\n]\n")
	return b.Bytes()
}

// BenchmarkLexBuiltins measures the lexer alone on the built-in
// languages: one reused Scan fed in 32 KiB chunks, the stream parser's
// shape, over JSON records and generated XML at low and high markup
// density.
func BenchmarkLexBuiltins(b *testing.B) {
	for _, c := range []struct {
		name string
		lang *Language
		doc  []byte
	}{
		{"JSON", JSON(), lexRecordsDoc()},
		{"XML-Low", XML(), xmlgen.Generate("lex-low", 64<<10, 0.1, 1).Data},
		{"XML-High", XML(), xmlgen.Generate("lex-high", 64<<10, 0.9, 2).Data},
	} {
		b.Run(c.name, func(b *testing.B) {
			lx, err := c.lang.Lexer()
			if err != nil {
				b.Fatal(err)
			}
			var s lexer.Scan
			var toks []lexer.Token
			b.SetBytes(int64(len(c.doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Reset(lx, lexer.DefaultMode); err != nil {
					b.Fatal(err)
				}
				for off := 0; off < len(c.doc); off += 32 << 10 {
					if toks, _, err = s.Feed(toks[:0], c.doc[off:min(off+32<<10, len(c.doc))]); err != nil {
						b.Fatal(err)
					}
				}
				if toks, _, err = s.Finish(toks[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFeedAllBuiltins measures the engine alone on the documents
// BenchmarkLexBuiltins lexes: each document's codes (encoded once,
// ending with ⊣) run through one reused Exec's FeedAll and the final
// ε-drain. It reports ns and hDPDA steps per code.
func BenchmarkFeedAllBuiltins(b *testing.B) {
	for _, c := range []struct {
		name string
		lang *Language
		doc  []byte
	}{
		{"JSON", JSON(), lexRecordsDoc()},
		{"XML-Low", XML(), xmlgen.Generate("lex-low", 64<<10, 0.1, 1).Data},
		{"XML-High", XML(), xmlgen.Generate("lex-high", 64<<10, 0.9, 2).Data},
	} {
		b.Run(c.name, func(b *testing.B) {
			codes, prog := benchCodes(b, c.lang, c.doc)
			x := engine.NewExec(prog, engine.Options{})
			var steps int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Reset()
				if _, jammed, err := x.FeedAll(codes); err != nil || jammed {
					b.Fatalf("document rejected: jammed %t, %v", jammed, err)
				}
				if _, err := x.DrainEpsilon(); err != nil || !x.InAccept() {
					b.Fatalf("document rejected: %v", err)
				}
				steps = x.Result().Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(codes)), "ns/code")
			b.ReportMetric(float64(steps)/float64(len(codes)), "steps/code")
		})
	}
}

// benchCodes lexes doc and encodes its tokens as the language's machine
// codes, ending with ⊣, and returns them with the lowered program.
func benchCodes(b *testing.B, l *Language, doc []byte) ([]core.Symbol, *engine.Program) {
	b.Helper()
	lx, err := l.Lexer()
	if err != nil {
		b.Fatal(err)
	}
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := cm.Engine()
	if err != nil {
		b.Fatal(err)
	}
	toks, _, err := lx.Tokenize(doc)
	if err != nil {
		b.Fatal(err)
	}
	syms, err := l.Syms(toks)
	if err != nil {
		b.Fatal(err)
	}
	codes, err := cm.Tokens.Encode(syms, true)
	if err != nil {
		b.Fatal(err)
	}
	return codes, prog
}
