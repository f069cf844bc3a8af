package stream

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/telemetry"
)

// writeChunks feeds doc to p using the chunk boundaries in cuts
// (ascending offsets into doc). It returns the first Write error.
func writeChunks(p *Parser, doc []byte, cuts []int) error {
	prev := 0
	for _, c := range cuts {
		if _, err := p.Write(doc[prev:c]); err != nil {
			return err
		}
		prev = c
	}
	if prev < len(doc) {
		if _, err := p.Write(doc[prev:]); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamCheckpointReplay is the stream-level replay-equivalence
// property: checkpoint mid-stream, let the parser run (or diverge), then
// restore and re-write the bytes after the checkpoint — the Outcome,
// including lexer statistics, must equal the uninterrupted parse's.
func TestStreamCheckpointReplay(t *testing.T) {
	const seed = 0x57e4_c4e1
	r := rand.New(rand.NewSource(seed))
	t.Logf("seed %#x", seed)
	for _, l := range lang.All() {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		doc := []byte(sampleOf[l.Name])
		for trial := 0; trial < 12; trial++ {
			// Random ascending chunk boundaries, and a checkpoint after a
			// random prefix of the chunks.
			var cuts []int
			for pos := 0; pos < len(doc); {
				pos += 1 + r.Intn(len(doc)/3+1)
				if pos < len(doc) {
					cuts = append(cuts, pos)
				}
			}
			cpAfter := r.Intn(len(cuts) + 1)

			// Reference: uninterrupted parse over the same chunking.
			ref, err := NewParser(l, cm, core.ExecOptions{CollectReports: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := writeChunks(ref, doc, cuts); err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			want, err := ref.Close()
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}

			// Interrupted parse: checkpoint after cpAfter chunks, finish,
			// then roll back and replay the remainder.
			p, err := NewParser(l, cm, core.ExecOptions{CollectReports: true})
			if err != nil {
				t.Fatal(err)
			}
			var mark int
			if cpAfter < len(cuts) {
				mark = cuts[cpAfter]
			} else {
				mark = len(doc)
			}
			if err := writeChunks(p, doc[:mark], cuts[:cpAfter]); err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			var cp Checkpoint
			p.Checkpoint(&cp)

			rest := doc[mark:]
			var restCuts []int
			for _, c := range cuts {
				if c > mark {
					restCuts = append(restCuts, c-mark)
				}
			}

			// First continuation: run to completion (maximal divergence
			// from the checkpoint).
			if err := writeChunks(p, rest, restCuts); err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			if got, err := p.Close(); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: uninterrupted continuation diverged:\n got %+v (err %v)\nwant %+v", l.Name, got, err, want)
			}

			// Recovery path: restore the closed, finished parser and
			// replay the same chunks — full Outcome equality, lexer
			// statistics included.
			if err := p.Restore(&cp); err != nil {
				t.Fatalf("%s: restore rejected: %v", l.Name, err)
			}
			if err := writeChunks(p, rest, restCuts); err != nil {
				t.Fatalf("%s: replay write: %v", l.Name, err)
			}
			got, err := p.Close()
			if err != nil {
				t.Fatalf("%s: replay close: %v", l.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replay-from-checkpoint diverged:\n got %+v\nwant %+v", l.Name, got, want)
			}

			// Coalesced replay (one Write for all remaining bytes — what
			// the serving layer's replay buffer does): the Outcome is
			// chunking-invariant, lexer statistics included.
			if err := p.Restore(&cp); err != nil {
				t.Fatalf("%s: coalesced restore rejected: %v", l.Name, err)
			}
			if _, err := p.Write(rest); err != nil {
				t.Fatalf("%s: coalesced replay write: %v", l.Name, err)
			}
			got2, err := p.Close()
			if err != nil {
				t.Fatalf("%s: coalesced replay close: %v", l.Name, err)
			}
			if !reflect.DeepEqual(got2, want) {
				t.Fatalf("%s: coalesced replay diverged:\n got %+v\nwant %+v", l.Name, got2, want)
			}
		}
	}
}

// TestStreamRestoreClearsFailure pins that Restore discards a poisoned
// continuation: a parser that hit a lex error after the checkpoint
// replays cleanly.
func TestStreamRestoreClearsFailure(t *testing.T) {
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
	var cp Checkpoint
	p.Checkpoint(&cp)
	if _, err := p.Write([]byte{0x01}); err == nil { // not a JSON byte
		t.Fatal("expected lex error")
	}
	if _, err := p.Write([]byte(`3]`)); err == nil {
		t.Fatal("poisoned parser accepted a write")
	}
	if err := p.Restore(&cp); err != nil {
		t.Fatalf("restore rejected: %v", err)
	}
	if _, err := p.Write([]byte(`3]`)); err != nil {
		t.Fatalf("restored parser: %v", err)
	}
	out, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("restored parse rejected: %+v", out)
	}
}

// TestStreamCheckpointTelemetryMonotone pins that rollback+replay keeps
// the cumulative counters monotone (replayed work counts as work; deltas
// never go negative).
func TestStreamCheckpointTelemetryMonotone(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.EnableTelemetry(reg)
	doc := []byte(lang.JSONSample)
	half := len(doc) / 2
	if _, err := p.Write(doc[:half]); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	p.Checkpoint(&cp)
	tokensBefore := reg.Counter("stream_tokens_total", "").Value()
	if _, err := p.Write(doc[half:]); err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(&cp); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(doc[half:]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	tokensAfter := reg.Counter("stream_tokens_total", "").Value()
	if tokensAfter < tokensBefore {
		t.Fatalf("stream_tokens_total went backwards: %d -> %d", tokensBefore, tokensAfter)
	}
	// The second half was parsed twice; the counter reflects both passes.
	whole, err := l.Parse(cm, doc, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tokensAfter <= int64(whole.Tokens) {
		t.Errorf("replayed work not counted: counter %d, single-pass tokens %d", tokensAfter, whole.Tokens)
	}
}

// TestStreamCheckpointDigestRejectsTamper pins the snapshot integrity
// seal at stream level, under both backends: corrupting either the
// stream fields or the embedded machine checkpoint makes Restore refuse
// with core.ErrCheckpointCorrupt, leaving the parser unpoisoned. So does
// a re-sealed machine snapshot (the unkeyed seals let anyone forge one)
// whose stack is empty, lacks ⊥ at the bottom, or is deeper than the
// execution's stack depth, which once restored and then panicked on the
// next Write.
func TestStreamCheckpointDigestRejectsTamper(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cm.Engine()
	if err != nil {
		t.Fatal(err)
	}
	const depth = 16
	backends := map[string]func() (*Parser, error){
		"sim": func() (*Parser, error) { return NewParser(l, cm, core.ExecOptions{StackDepth: depth}) },
		"engine": func() (*Parser, error) {
			return NewParserBackend(l, cm, engine.NewExec(prog, engine.Options{StackDepth: depth}))
		},
	}
	for name, mk := range backends {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write([]byte(`{"a": [1, [2, `)); err != nil {
			t.Fatal(err)
		}
		var cp Checkpoint
		p.Checkpoint(&cp)

		streamTamper := cp
		streamTamper.Tokens += 5
		if err := p.Restore(&streamTamper); !errors.Is(err, core.ErrCheckpointCorrupt) {
			t.Fatalf("%s, stream-field tamper: Restore = %v, want ErrCheckpointCorrupt", name, err)
		}
		execTamper := cp
		execTamper.Exec.Pos++
		if err := p.Restore(&execTamper); !errors.Is(err, core.ErrCheckpointCorrupt) {
			t.Fatalf("%s, exec-field tamper: Restore = %v, want ErrCheckpointCorrupt", name, err)
		}
		top := cp.Exec.Stack[len(cp.Exec.Stack)-1]
		deep := []core.Symbol{core.BottomOfStack}
		for len(deep) <= depth+1 {
			deep = append(deep, top)
		}
		for forge, stack := range map[string][]core.Symbol{
			"empty":  {},
			"no ⊥":   append([]core.Symbol{top}, cp.Exec.Stack[1:]...),
			"deeper": deep,
		} {
			bad := cp
			bad.Exec.Stack = stack
			bad.Exec.Seal()
			bad.Seal()
			if err := p.Restore(&bad); !errors.Is(err, core.ErrCheckpointCorrupt) {
				t.Fatalf("%s, %s stack: Restore = %v, want ErrCheckpointCorrupt", name, forge, err)
			}
		}

		// The parser survives the refusals and finishes the document.
		if err := p.Restore(&cp); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write([]byte(`3]]}`)); err != nil {
			t.Fatal(err)
		}
		if out, err := p.Close(); err != nil || !out.Accepted {
			t.Fatalf("%s: parse after refused restores: out=%+v err=%v", name, out, err)
		}
	}
}

// TestStreamRestoreRefusesOtherLexer pins the lexer fingerprint: an
// image restored into a parser whose lexer spec differs — same grammar,
// so the same machine — is refused with ErrMachineMismatch, because the
// saved run configuration names states of the other lexer's tables.
func TestStreamRestoreRefusesOtherLexer(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	other := lang.JSON()
	other.LexSpec.Rules = append([]lexer.Rule(nil), other.LexSpec.Rules...)
	for i, r := range other.LexSpec.Rules {
		if r.Name == "WS" {
			other.LexSpec.Rules[i].Pattern = `[ \t\n]+`
		}
	}
	ocm, err := other.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Machine.Fingerprint() != ocm.Machine.Fingerprint() {
		t.Fatal("the variant lexer changed the grammar machine")
	}

	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write([]byte(`{"k": [1, "two`)); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	p.Checkpoint(&cp)
	img, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var loaded Checkpoint
	if err := loaded.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	q, err := NewParser(other, ocm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Restore(&loaded); !errors.Is(err, ErrMachineMismatch) {
		t.Fatalf("restore into a different lexer: %v, want ErrMachineMismatch", err)
	}
	// The same image still resumes on its own lexer.
	if err := p.Restore(&loaded); err != nil {
		t.Fatalf("restore into the original lexer: %v", err)
	}
}
