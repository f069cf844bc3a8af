package stream

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/xmlgen"
)

var sampleOf = map[string]string{
	"Cool": lang.CoolSample,
	"DOT":  lang.DOTSample,
	"JSON": lang.JSONSample,
	"XML":  lang.XMLSample,
}

// The central property: chunked parsing is equivalent to whole-input
// parsing for every language, at every chunk size, including size 1.
func TestChunkedEqualsWhole(t *testing.T) {
	for _, l := range lang.All() {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		doc := []byte(sampleOf[l.Name])
		whole, err := l.Parse(cm, doc, core.ExecOptions{CollectReports: true})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		for _, chunk := range []int{1, 2, 3, 7, 23, 64, 1 << 20} {
			p, err := NewParser(l, cm, core.ExecOptions{CollectReports: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(doc); i += chunk {
				end := i + chunk
				if end > len(doc) {
					end = len(doc)
				}
				if _, err := p.Write(doc[i:end]); err != nil {
					t.Fatalf("%s chunk %d: %v", l.Name, chunk, err)
				}
			}
			out, err := p.Close()
			if err != nil {
				t.Fatalf("%s chunk %d: %v", l.Name, chunk, err)
			}
			if out.Accepted != whole.Accepted {
				t.Fatalf("%s chunk %d: accepted %v, whole %v", l.Name, chunk, out.Accepted, whole.Accepted)
			}
			if out.Tokens != whole.Tokens {
				t.Fatalf("%s chunk %d: %d tokens, whole %d", l.Name, chunk, out.Tokens, whole.Tokens)
			}
			if len(out.Result.Reports) != len(whole.Result.Reports) {
				t.Fatalf("%s chunk %d: %d reports, whole %d", l.Name, chunk,
					len(out.Result.Reports), len(whole.Result.Reports))
			}
			for i := range out.Result.Reports {
				if out.Result.Reports[i].Code != whole.Result.Reports[i].Code {
					t.Fatalf("%s chunk %d: report %d differs", l.Name, chunk, i)
				}
			}
		}
	}
}

func TestParseReader(t *testing.T) {
	l := lang.XML()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	doc := xmlgen.Generate("streamed", 64<<10, 0.4, 5)
	out, err := ParseReader(l, cm, bytes.NewReader(doc.Data), 4096, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatal("corpus document rejected by streaming parser")
	}
	if out.Bytes != len(doc.Data) {
		t.Errorf("Bytes = %d, want %d", out.Bytes, len(doc.Data))
	}
	if out.LexStats.ScanCycles < out.Bytes {
		t.Errorf("ScanCycles %d < bytes %d", out.LexStats.ScanCycles, out.Bytes)
	}
}

func TestStreamSyntaxErrorJams(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// `{"a": 1,}` — trailing comma jams the parser at '}'.
	for _, part := range []string{`{"a"`, `: 1`, `,}`} {
		if _, err := p.Write([]byte(part)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted || !out.Result.Jammed {
		t.Errorf("outcome = %+v, want jam", out)
	}
}

func TestStreamLexErrorPosition(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write([]byte(`[1, 2, `)); err != nil {
		t.Fatal(err)
	}
	_, werr := p.Write([]byte(`# 3]`))
	var le *lexer.Error
	if !errors.As(werr, &le) {
		t.Fatalf("err = %v, want lexer.Error", werr)
	}
	if le.Pos != 7 {
		t.Errorf("error position = %d, want absolute offset 7", le.Pos)
	}
	// Further writes fail fast.
	if _, err := p.Write([]byte("x")); err == nil {
		t.Error("write after error should fail")
	}
}

func TestStreamTruncatedInput(t *testing.T) {
	l := lang.XML()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write([]byte(`<a><b>unclosed`)); err != nil {
		t.Fatal(err)
	}
	out, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Error("truncated document accepted")
	}
}

func TestDoubleCloseAndWriteAfterClose(t *testing.T) {
	l := lang.JSON()
	cm, _ := l.Compile(compile.OptAll)
	p, _ := NewParser(l, cm, core.ExecOptions{})
	if _, err := p.Write([]byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if out, err := p.Close(); err != nil || !out.Accepted {
		t.Fatalf("close = %+v, %v", out, err)
	}
	if _, err := p.Close(); err == nil {
		t.Error("double close should fail")
	}
	if _, err := p.Write([]byte("x")); err == nil {
		t.Error("write after close should fail")
	}
}

func TestEmptyStream(t *testing.T) {
	l := lang.JSON()
	cm, _ := l.Compile(compile.OptAll)
	p, _ := NewParser(l, cm, core.ExecOptions{})
	out, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Error("empty stream is not valid JSON")
	}
}

// TestStreamLongLexemeLinear is the streaming re-scan gate: a 4 MiB JSON
// string — unterminated, then terminated — written in 32 KiB chunks
// (the serving layer's copy buffer) costs exactly what one whole Write
// costs: the same tokens, verdict and scan cycles, at most one scan
// cycle per byte plus one per token. Every checkpoint image taken at a
// chunk boundary stays under 4 KiB however long the pending lexeme is,
// because the lexer keeps no byte of a string that has not accepted.
func TestStreamLongLexemeLinear(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("QUJDRGVmZ2hpams0NTY3ODkr/w=="), (4<<20)/28)
	docs := map[string][]byte{
		"unterminated": append([]byte(`"`), body...),
		"terminated":   append(append([]byte(`"`), body...), '"'),
	}
	for name, doc := range docs {
		run := func(chunk int) (Outcome, error) {
			p, err := NewParser(l, cm, core.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var cp Checkpoint
			for rest := doc; len(rest) > 0; {
				n := min(chunk, len(rest))
				if _, err := p.Write(rest[:n]); err != nil {
					return p.outcome(), err
				}
				rest = rest[n:]
				if len(rest) == 0 {
					break
				}
				p.Checkpoint(&cp)
				img, err := cp.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if len(img) >= 4<<10 {
					t.Fatalf("%s: checkpoint image at offset %d is %d bytes, want < 4 KiB", name, cp.End, len(img))
				}
			}
			return p.Close()
		}
		whole, werr := run(len(doc))
		chunked, cerr := run(32 << 10)
		if !errsMatch(werr, cerr) || !reflect.DeepEqual(whole, chunked) {
			t.Fatalf("%s: chunked diverged from whole:\n got %+v (%v)\nwant %+v (%v)", name, chunked, cerr, whole, werr)
		}
		if (name == "terminated") != (werr == nil && whole.Accepted) {
			t.Fatalf("%s: verdict accepted=%v err=%v", name, whole.Accepted, werr)
		}
		if limit := len(doc) + whole.LexStats.Tokens + 1; whole.LexStats.ScanCycles > limit {
			t.Fatalf("%s: %d scan cycles for %d bytes and %d tokens, want ≤ %d",
				name, whole.LexStats.ScanCycles, len(doc), whole.LexStats.Tokens, limit)
		}
	}
}
