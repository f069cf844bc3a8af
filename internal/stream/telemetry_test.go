package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/telemetry"
)

// sampleFor maps a grammars/*.g stem to the language and its sample
// document. Enumerating the directory (rather than hard-coding the
// list) makes the test fail loudly if a grammar is added without
// streaming-equivalence coverage.
func sampleFor(t *testing.T, stem string) (*lang.Language, []byte) {
	t.Helper()
	samples := map[string]string{
		"Cool":  lang.CoolSample,
		"DOT":   lang.DOTSample,
		"JSON":  lang.JSONSample,
		"MiniC": lang.MiniCSample,
		"XML":   lang.XMLSample,
	}
	l := lang.ByName(stem)
	if stem == "MiniC" {
		l = lang.MiniC()
	}
	if l == nil {
		t.Fatalf("grammars/%s.g has no matching language constructor", stem)
	}
	sample, ok := samples[stem]
	if !ok {
		t.Fatalf("grammars/%s.g has no sample document for equivalence testing", stem)
	}
	return l, []byte(sample)
}

// invariantTotals are the telemetry series that must not depend on how
// the input is chunked. (Chunk counts, last-chunk gauges and the
// per-chunk latency histogram are chunk-shaped by definition, so those
// are excluded.) The lexer series are in: the lexer resumes its run
// across chunks, so even its scan cycles are chunking-invariant.
var invariantTotals = []string{
	"stream_bytes_total",
	"stream_tokens_total",
	"stream_cycles_total",
	"lexer_bytes_total",
	"lexer_tokens_total",
	"lexer_scan_cycles_total",
	"lexer_handoff_cycles_total",
}

// Streaming any grammar's sample at any chunk size must produce the
// same Outcome and the same chunking-invariant metric totals as
// whole-input parsing (satellite: stream/whole-input equivalence with
// telemetry attached).
func TestStreamTelemetryEquivalence(t *testing.T) {
	ents, err := os.ReadDir(filepath.Join("..", "..", "grammars"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		stem, ok := strings.CutSuffix(ent.Name(), ".g")
		if !ok {
			continue
		}
		t.Run(stem, func(t *testing.T) {
			l, sample := sampleFor(t, stem)
			cm, err := l.Compile(compile.OptAll)
			if err != nil {
				t.Fatal(err)
			}

			// Reference: the whole input as one chunk.
			refReg := telemetry.NewRegistry()
			ref, err := ParseReaderObserved(l, cm, bytes.NewReader(sample), len(sample), core.ExecOptions{}, refReg)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Accepted {
				t.Fatalf("%s sample rejected whole-input", stem)
			}
			refSnap := refReg.Snapshot()

			for _, chunk := range []int{1, 7, 64 << 10} {
				reg := telemetry.NewRegistry()
				out, err := ParseReaderObserved(l, cm, bytes.NewReader(sample), chunk, core.ExecOptions{}, reg)
				if err != nil {
					t.Fatalf("chunk=%d: %v", chunk, err)
				}
				if !reflect.DeepEqual(out, ref) {
					t.Errorf("chunk=%d: outcome %+v differs from whole-input %+v", chunk, out, ref)
				}
				s := reg.Snapshot()
				for _, name := range invariantTotals {
					if s.Counters[name] != refSnap.Counters[name] {
						t.Errorf("chunk=%d: %s = %d, whole-input %d",
							chunk, name, s.Counters[name], refSnap.Counters[name])
					}
				}
				if s.Gauges["stream_stack_high_water"] != refSnap.Gauges["stream_stack_high_water"] {
					t.Errorf("chunk=%d: stream_stack_high_water = %v, whole-input %v",
						chunk, s.Gauges["stream_stack_high_water"], refSnap.Gauges["stream_stack_high_water"])
				}
				// Sanity: the chunk-shaped series did record this chunking.
				if got := s.Counters["stream_chunks_total"]; chunk == 1 && got < int64(len(sample)) {
					t.Errorf("chunk=1: stream_chunks_total = %d, want ≥ %d", got, len(sample))
				}
			}
		})
	}
}
