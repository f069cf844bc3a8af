package stream

import (
	"bytes"
	"fmt"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/engine"
	"aspen/internal/lang"
	"aspen/internal/xmlgen"
)

// benchJSONDoc is a ≈32 KiB JSON document: an array of records mixing
// strings, integers, fractions, exponents, literals and nesting.
func benchJSONDoc() []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i := 0; b.Len() < 32<<10; i++ {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, `  {"id": %d, "name": "record-%d", "score": %d.%03d, "ratio": %de-%d, `+
			`"tags": ["sram", "pda", "lexeme"], "ok": %t, "next": null, "pos": {"x": %d, "y": -%d}}`,
			i, i, i%97, i%1000, i%9+1, i%5, i%2 == 0, i*7, i*3)
	}
	b.WriteString("\n]\n")
	return b.Bytes()
}

// benchStreamScan streams doc through one reused engine-backed parser,
// the serve pool's shape: Write in 32 KiB chunks, then Close. It reports
// MB/s of document and allocs per document.
func benchStreamScan(b *testing.B, l *lang.Language, doc []byte) {
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := cm.Engine()
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewParserBackend(l, cm, engine.NewExec(prog, engine.Options{}))
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		p.Reset()
		for off := 0; off < len(doc); off += 32 << 10 {
			if _, err := p.Write(doc[off:min(off+32<<10, len(doc))]); err != nil {
				b.Fatal(err)
			}
		}
		out, err := p.Close()
		if err != nil || !out.Accepted {
			b.Fatalf("document rejected: %v", err)
		}
	}
	run() // warm the parser's buffers
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkStreamScanJSON(b *testing.B) {
	benchStreamScan(b, lang.JSON(), benchJSONDoc())
}

func BenchmarkStreamScanXML(b *testing.B) {
	benchStreamScan(b, lang.XML(), xmlgen.Generate("bench", 32<<10, 0.5, 1).Data)
}
