// Command saxcount is the paper's SAXCount evaluation application: it
// verifies an XML document's syntax and counts elements, attributes and
// content bytes, comparing the Expat-like parser, the Xerces-like
// validating parser, and the ASPEN lexer/parser pipeline.
//
// Usage:
//
//	saxcount file.xml [file2.xml ...]
//	saxcount -gen soap -size 65536
//	saxcount -gen soap -size 8388608 -stream 65536 -pprof-addr :6060
//
// With -stream N the ASPEN pipeline runs incrementally in N-byte chunks;
// combined with -pprof-addr the run can be scraped live at /metrics and
// /debug/vars while it progresses. -metrics writes the final registry
// snapshot as JSON ("-" = stdout) and -trace-out records per-document
// summary events as JSONL.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"aspen"
	"aspen/internal/stream"
	"aspen/internal/telemetry"
	"aspen/internal/xmlgen"
)

var sess *telemetry.Session

func main() {
	var (
		gen     = flag.String("gen", "", "generate a synthetic benchmark instead of reading files (e.g. soap)")
		size    = flag.Int("size", 64<<10, "generated document size in bytes")
		chunkSz = flag.Int("stream", 0, "run the ASPEN pipeline incrementally in chunks of this many bytes")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	reg := telemetry.NewRegistry()
	sess = tf.MustStart("saxcount", reg)
	defer sess.MustClose("saxcount")
	docsMetric := reg.Counter("saxcount_documents_total", "documents processed")
	acceptMetric := reg.Counter("saxcount_accepted_total", "documents accepted by the ASPEN pipeline")
	elemMetric := reg.Counter("saxcount_elements_total", "elements tallied by the hardware report counters")
	attrMetric := reg.Counter("saxcount_attributes_total", "attributes tallied by the hardware report counters")
	charMetric := reg.Counter("saxcount_characters_total", "content bytes from TEXT/CDATA lexemes")

	var docs []struct {
		name string
		data []byte
	}
	if *gen != "" {
		d := xmlgen.Generate(*gen, *size, 0.5, 7)
		docs = append(docs, struct {
			name string
			data []byte
		}{d.Name, d.Data})
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal("%v", err)
		}
		docs = append(docs, struct {
			name string
			data []byte
		}{path, data})
	}
	if len(docs) == 0 {
		fatal("no input: pass XML files or -gen")
	}

	l := aspen.LangXML()
	cm, err := l.Compile(aspen.OptAll)
	if err != nil {
		fatal("%v", err)
	}
	sim, err := aspen.NewSim(cm.Machine, aspen.DefaultArchConfig())
	if err != nil {
		fatal("%v", err)
	}
	sim.EnableTelemetry(reg)
	lx, err := l.Lexer()
	if err != nil {
		fatal("%v", err)
	}

	for _, doc := range docs {
		kb := float64(len(doc.data)) / 1024
		fmt.Printf("== %s (%d bytes)\n", doc.name, len(doc.data))
		docsMetric.Inc()

		for _, p := range []struct {
			name string
			fn   func([]byte) (aspen.SAXCounts, aspen.ParserMetrics, error)
		}{{"expat-like", aspen.ExpatLike}, {"xerces-like", aspen.XercesLike}} {
			start := time.Now()
			c, m, err := p.fn(doc.data)
			el := time.Since(start)
			if err != nil {
				fmt.Printf("  %-12s REJECT: %v\n", p.name, err)
				continue
			}
			fmt.Printf("  %-12s elems=%d attrs=%d chars=%d  %.0f ns/kB  %.2f branches/B\n",
				p.name, c.Elements, c.Attributes, c.Characters,
				float64(el.Nanoseconds())/kb, m.BranchesPerByte(len(doc.data)))
		}

		if *chunkSz > 0 {
			// Streaming pipeline: the lexer boundary state and the hDPDA
			// execution carry across chunks; telemetry updates after every
			// chunk, so a live scrape shows stream_* advancing.
			out, err := stream.ParseReaderObserved(l, cm, bytes.NewReader(doc.data), *chunkSz, aspen.ExecOptions{}, reg)
			if err != nil {
				fmt.Printf("  aspen        STREAM REJECT: %v\n", err)
				continue
			}
			if !out.Accepted {
				fmt.Printf("  aspen        REJECT after %d tokens\n", out.Result.Consumed)
				continue
			}
			acceptMetric.Inc()
			emit(map[string]any{
				"event": "document", "name": doc.name, "bytes": out.Bytes,
				"tokens": out.Tokens, "accepted": out.Accepted,
				"stalls": out.Result.EpsilonStalls, "max_stack": out.Result.MaxStackDepth,
			})
			fmt.Printf("  %-12s accepted  tokens=%d stalls=%d max-stack=%d  (chunks of %d)\n",
				"aspen-mp", out.Tokens, out.Result.EpsilonStalls, out.Result.MaxStackDepth, *chunkSz)
			continue
		}

		toks, lstats, err := lx.Tokenize(doc.data)
		if err != nil {
			fmt.Printf("  aspen        LEX REJECT: %v\n", err)
			continue
		}
		lstats.Observe(reg)
		syms, err := l.Syms(toks)
		if err != nil {
			fatal("%v", err)
		}
		stream, err := cm.Tokens.Encode(syms, true)
		if err != nil {
			fatal("%v", err)
		}
		// SAXCount on ASPEN: element/attribute tallies accumulate in the
		// hardware report counters (§IV-E, four 16-bit counters per
		// way); content bytes come from TEXT/CDATA lexemes.
		codesFor := func(lhs ...string) []int32 {
			want := map[string]bool{}
			for _, n := range lhs {
				want[n] = true
			}
			var out []int32
			for i := range cm.Grammar.Productions {
				if want[cm.Grammar.SymName(cm.Grammar.Productions[i].Lhs)] {
					out = append(out, int32(i))
				}
			}
			return out
		}
		cf, err := aspen.NewCounterFile([]aspen.CounterRule{
			{Name: "elements", Codes: codesFor("STag", "EmptyElem")},
			{Name: "attributes", Codes: codesFor("Attr")},
		}, sim.Ways())
		if err != nil {
			fatal("%v", err)
		}
		opts, cv := cf.Attach(aspen.ExecOptions{})
		chars := 0
		for _, t := range toks {
			if lx.RuleName(t.Rule) == "TEXT" {
				chars += t.End - t.Start
			}
		}
		ps, err := aspen.RunPipeline(sim, aspen.DefaultCacheAutomaton(), lstats, stream, opts)
		if err != nil {
			fatal("%v", err)
		}
		if !ps.Parse.Result.Accepted {
			fmt.Printf("  aspen        REJECT after %d tokens\n", ps.Parse.Result.Consumed)
			continue
		}
		elems, _ := cv.Get("elements")
		attrs, _ := cv.Get("attributes")
		acceptMetric.Inc()
		elemMetric.Add(int64(elems))
		attrMetric.Add(int64(attrs))
		charMetric.Add(int64(chars))
		emit(map[string]any{
			"event": "document", "name": doc.name, "bytes": len(doc.data),
			"elements": elems, "attributes": attrs, "characters": chars,
			"ns_per_kb": ps.NSPerKB(), "stalls": ps.Stalls,
		})
		fmt.Printf("  %-12s elems=%d attrs=%d chars=%d  %.0f ns/kB  %.3f µJ/kB  (%d stalls, %d banks, hw counters)\n",
			"aspen-mp", elems, attrs, chars,
			ps.NSPerKB(), ps.UJPerKB(sim.Cfg), ps.Stalls, sim.NumBanks())
	}
}

// emit sends a per-document summary event to -trace-out, if set.
func emit(ev map[string]any) {
	if sess.Tracing() {
		sess.Sink().Emit(ev)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "saxcount: "+format+"\n", args...)
	if sess != nil {
		sess.Close()
	}
	os.Exit(1)
}
