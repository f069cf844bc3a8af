package lang

import (
	"bytes"
	"fmt"
	"testing"

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
