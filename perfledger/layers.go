package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/stream"
)

// tracedRun is what a workload hands the traced run: its inputs and
// the two end-to-end phases it ran on its own stack, untraced and
// traced (spans kept in memory and written out at the end).
type tracedRun struct {
	name          string
	docs          []doc
	untraced      phase
	traced        phase
	tracedNominal phase // small-open: the traced nominal rung
	routed        bool  // operations go over loopback through the router, not in-process
	sessions      bool  // operations are session chunks
}

// kit is one grammar built the way the server builds it, for calling
// its layers directly.
type kit struct {
	l    *lang.Language
	cm   *compile.Compiled
	lx   *lexer.Lexer
	prog *engine.Program
}

func newKit(l *lang.Language) (*kit, error) {
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		return nil, err
	}
	lx, err := l.Lexer()
	if err != nil {
		return nil, err
	}
	prog, err := cm.Engine()
	if err != nil {
		return nil, err
	}
	return &kit{l: l, cm: cm, lx: lx, prog: prog}, nil
}

// codes lexes data and encodes the tokens to machine codes the way
// stream.Parser does, ending with the end marker.
func (k *kit) codes(data []byte) []core.Symbol {
	toks, _, _, _ := k.lx.TokenizeResumeInto(nil, data, lexer.DefaultMode)
	out := make([]core.Symbol, 0, len(toks)+1)
	for _, tk := range toks {
		rule := k.l.LexSpec.Rules[tk.Rule]
		if rule.Skip {
			continue
		}
		if code, ok := k.cm.Tokens.Code(k.l.Grammar.Lookup(rule.Name)); ok {
			out = append(out, code)
		}
	}
	return append(out, compile.EndCode)
}

// streamParser is a stream.Parser on the engine, with the engine's
// FeedAll as its bulk runner, the shape serve's parser pool uses.
func (k *kit) streamParser() (*stream.Parser, error) {
	x := engine.NewExec(k.prog, engine.Options{})
	p, err := stream.NewParserBackend(k.l, k.cm, x)
	if err != nil {
		return nil, err
	}
	p.SetRunner(x.FeedAll)
	return p, nil
}

// budget runs fn over the documents round-robin until d has passed and
// at least min documents were done; it returns how many were.
func budget(docs []doc, d time.Duration, min int, fn func(d doc)) int {
	t0 := time.Now()
	n := 0
	for n < min || time.Since(t0) < d {
		fn(docs[n%len(docs)])
		n++
	}
	return n
}

// memDelta measures fn's process-wide allocation count and bytes.
func memDelta(fn func()) (mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

func kib(n int) float64 { return float64(n) / 1024 }

// layerTimes are the per-layer measurements of one traced run.
type layerTimes struct {
	docKiB, docs            float64 // documents timed, and their KiB
	lexNS, lexTok           float64
	lexAllocs               float64
	engNS, engSym           float64
	engAllocs               float64
	strNS                   float64
	strAllocB               float64
	ckKiB, ckNS             float64
	saveNS, loadNS          float64
	ckPerDoc                float64 // checkpoints per document (chunk boundaries)
	inprocNS, inprocAllocs  float64 // per serve operation
	opsPerDoc               float64 // serve operations per document
	admitNS                 float64
	directNS                float64 // mean per serve operation over loopback
	hopP50, hopP99, hopMean float64 // router minus direct, ns
}

// traced finishes a traced run: it writes the spans of the traced phase,
// measures every layer on the workload's documents, prints the
// per-layer metrics and the reconciliation line.
func traced(c config, r *report, t *tally, tr tracedRun) error {
	if err := writeSpans(tr, c.seed); err != nil {
		return err
	}
	ls, err := startStack(stackOpts{router: true, stateDir: newStateDir()})
	if err != nil {
		return err
	}
	defer ls.close()
	kits := map[string]*kit{}
	for _, l := range []*lang.Language{lang.JSON(), lang.XML()} {
		if kits[l.Name], err = newKit(l); err != nil {
			return err
		}
	}
	lt, err := measureLayers(c.seconds/2, ls, kits, tr, t)
	if err != nil {
		return err
	}
	reportLayers(r, tr, lt)
	return nil
}

// writeSpans writes the traced phase's operations, one JSON line each,
// under .bench_build/traces.
func writeSpans(tr tracedRun, seed int64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", tr.name, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range tr.traced.samples {
		fmt.Fprintf(w, `{"op":%d,"span":"op","lat_ms":%g,"late_ms":%g,"bytes":%d,"queue_ns":%d,"scan":%d,"ok":%v}`+"\n",
			i, s.latMS, s.lateMS, s.bytes, s.queueNS, s.scan, s.ok)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chunks splits data into serve's 32 KiB reads.
func chunks(data []byte) [][]byte {
	var out [][]byte
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		out = append(out, data[off:end])
	}
	return out
}

// allocDocs is how many documents each allocation count runs over.
const allocDocs = 4

func measureLayers(total time.Duration, ls *stack, kits map[string]*kit, tr tracedRun, t *tally) (layerTimes, error) {
	var lt layerTimes
	docs := tr.docs
	slice := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	codes := make([][]core.Symbol, len(docs))
	for i, d := range docs {
		codes[i] = kits[d.grammar].codes(d.data)
	}
	execs := map[string]*engine.Exec{}
	parsers := map[string]*stream.Parser{}
	dst := map[string][]lexer.Token{}
	for name, k := range kits {
		execs[name] = engine.NewExec(k.prog, engine.Options{})
		p, err := k.streamParser()
		if err != nil {
			return lt, err
		}
		parsers[name] = p
	}
	h := ls.srv.Handler()
	seq := 0

	// One call into each layer for one document. Each returns its time;
	// serve returns the number of requests it made too.
	lex := func(d doc) time.Duration {
		t0 := time.Now()
		toks, _, _, _ := kits[d.grammar].lx.TokenizeResumeInto(dst[d.grammar][:0], d.data, lexer.DefaultMode)
		el := time.Since(t0)
		dst[d.grammar] = toks
		return el
	}
	exec := func(d doc, cs []core.Symbol) time.Duration {
		x := execs[d.grammar]
		x.Reset()
		t0 := time.Now()
		_, _, _ = x.FeedAll(cs)
		return time.Since(t0)
	}
	parse := func(d doc) time.Duration {
		p := parsers[d.grammar]
		p.Reset()
		t0 := time.Now()
		for _, ch := range chunks(d.data) {
			if _, err := p.Write(ch); err != nil {
				break
			}
		}
		out, _ := p.Close()
		el := time.Since(t0)
		if out.Accepted != d.valid {
			t.note(fmt.Errorf("%w: stream layer judged a %s document accepted=%v, oracle says %v", errWrong, d.class, out.Accepted, d.valid))
		}
		return el
	}
	// serveDoc sends the document's requests, built beforehand so that
	// the allocation count around the calls is the server's own.
	serveDoc := func(d doc, count *uint64) (time.Duration, int) {
		seq++
		reqs := serveRequests(d, tr.sessions, fmt.Sprintf("li-%d", seq))
		recs := make([]*httptest.ResponseRecorder, len(reqs))
		for j := range recs {
			recs[j] = httptest.NewRecorder()
		}
		var el time.Duration
		m, _ := memDelta(func() {
			t0 := time.Now()
			for j, req := range reqs {
				h.ServeHTTP(recs[j], req)
			}
			el = time.Since(t0)
		})
		if count != nil {
			*count += m
		}
		last := recs[len(recs)-1]
		var s sample
		if err := finalAnswer(&s, d, last.Code, last.Body.Bytes(), nil); err != nil {
			t.note(err)
		}
		return el, len(reqs)
	}

	// Time: the four nested layers on the same document back to back,
	// the starting layer rotating from one document to the next, so
	// that every layer sees the same documents under the same conditions.
	var inprocOps float64
	ndocs := 0
	budget(docs, slice(0.40), len(docs), func(d doc) {
		i := ndocs % len(docs)
		for j := 0; j < 4; j++ {
			switch (ndocs + j) % 4 {
			case 0:
				lt.lexNS += float64(lex(d).Nanoseconds())
				lt.lexTok += float64(len(dst[d.grammar]))
			case 1:
				lt.engNS += float64(exec(d, codes[i]).Nanoseconds())
				lt.engSym += float64(len(codes[i]))
			case 2:
				lt.strNS += float64(parse(d).Nanoseconds())
			case 3:
				el, n := serveDoc(d, nil)
				lt.inprocNS += float64(el.Nanoseconds())
				inprocOps += float64(n)
			}
		}
		lt.docKiB += kib(len(d.data))
		ndocs++
	})
	lt.opsPerDoc = inprocOps / float64(ndocs)
	lt.docs = float64(ndocs)
	lt.inprocNS /= inprocOps

	// Allocations, counted apart from the timing.
	ad := docs
	if len(ad) > allocDocs {
		ad = ad[:allocDocs]
	}
	perDoc := func(fn func(i int)) (float64, float64) {
		m, b := memDelta(func() {
			for i := range ad {
				fn(i)
			}
		})
		return float64(m) / float64(len(ad)), float64(b) / float64(len(ad))
	}
	lt.lexAllocs, _ = perDoc(func(i int) { lex(ad[i]) })
	lt.engAllocs, _ = perDoc(func(i int) { exec(ad[i], codes[i]) })
	_, lt.strAllocB = perDoc(func(i int) { parse(ad[i]) })
	var serveAllocs uint64
	var serveOps float64
	perDoc(func(i int) {
		_, n := serveDoc(ad[i], &serveAllocs)
		serveOps += float64(n)
	})
	lt.inprocAllocs = float64(serveAllocs) / serveOps

	// Checkpoints at every chunk boundary, saved to and loaded from the
	// node's checkpoint store.
	cs := ls.st.Checkpoints
	var cp, back stream.Checkpoint
	var nck float64
	var serr error
	ckDocs := budget(docs, slice(0.10), 1, func(d doc) {
		p := parsers[d.grammar]
		p.Reset()
		parts := chunks(d.data)
		for _, ch := range parts[:len(parts)-1] {
			if serr != nil {
				return
			}
			if _, err := p.Write(ch); err != nil {
				break
			}
			t0 := time.Now()
			p.Checkpoint(&cp)
			lt.ckNS += float64(time.Since(t0).Nanoseconds())
			img, err := cp.MarshalBinary()
			if err != nil {
				serr = err
				return
			}
			lt.ckKiB += kib(len(img))
			t0 = time.Now()
			if serr = cs.Save("layer-ckpt", &cp); serr != nil {
				return
			}
			lt.saveNS += float64(time.Since(t0).Nanoseconds())
			t0 = time.Now()
			if serr = cs.Load("layer-ckpt", &back); serr != nil {
				return
			}
			lt.loadNS += float64(time.Since(t0).Nanoseconds())
			nck++
		}
		_, _ = p.Close()
	})
	if serr != nil {
		return lt, fmt.Errorf("checkpoint layer: %w", serr)
	}
	lt.ckPerDoc = nck / float64(ckDocs)
	if nck > 0 {
		lt.ckKiB /= nck
		lt.ckNS /= nck
		lt.saveNS /= nck
		lt.loadNS /= nck
	}

	// The admission decision alone.
	var nadm float64
	budget(docs, slice(0.05), 1, func(d doc) {
		size := len(d.data)
		if tr.sessions {
			size = chunkSize
		}
		t0 := time.Now()
		for j := 0; j < 100; j++ {
			if err := ls.srv.BenchAdmitCycle(d.grammar, int64(size)); err != nil && serr == nil {
				serr = err
			}
		}
		lt.admitNS += float64(time.Since(t0).Nanoseconds())
		nadm += 100
	})
	if serr != nil {
		return lt, fmt.Errorf("admission layer: %w", serr)
	}
	lt.admitNS /= nadm

	// Loopback HTTP straight to the node and through the router: the
	// same operations, interleaved, on one connection each.
	direct, routed := newClient(1), newClient(1)
	defer direct.CloseIdleConnections()
	defer routed.CloseIdleConnections()
	var dl, rl []float64
	budget(docs, slice(0.35), 2, func(d doc) {
		seq++
		runDirect := func() {
			dl = append(dl, netOps(direct, ls.nodeURL, d, tr.sessions, fmt.Sprintf("ld-%d", seq), t)...)
		}
		runRouted := func() {
			rl = append(rl, netOps(routed, ls.routerURL, d, tr.sessions, fmt.Sprintf("lr-%d", seq), t)...)
		}
		if seq%2 == 0 {
			runDirect()
			runRouted()
		} else {
			runRouted()
			runDirect()
		}
	})
	ds, rs := summarize(dl, 99), summarize(rl, 99)
	lt.directNS = meanOf(dl) * 1e6
	lt.hopMean = (meanOf(rl) - meanOf(dl)) * 1e6
	lt.hopP50 = (rs.p50 - ds.p50) * 1e6
	lt.hopP99 = (rs.tail - ds.tail) * 1e6
	return lt, nil
}

// serveRequests builds the requests one document takes: one whole-body
// parse, or a session of 32 KiB chunks with final=1 on the last.
func serveRequests(d doc, sessions bool, id string) []*http.Request {
	if !sessions {
		return []*http.Request{httptest.NewRequest(http.MethodPost, "/v1/parse/"+d.grammar, bytes.NewReader(d.data))}
	}
	parts := chunks(d.data)
	out := make([]*http.Request, len(parts))
	for j, ch := range parts {
		url := "/v1/parse/" + d.grammar + "?session=" + id
		if j == len(parts)-1 {
			url += "&final=1"
		}
		out[j] = httptest.NewRequest(http.MethodPost, url, bytes.NewReader(ch))
	}
	return out
}

// netOps runs one document's operations over c and returns their
// latencies in ms.
func netOps(c *http.Client, base string, d doc, sessions bool, id string, t *tally) []float64 {
	var ss []sample
	if sessions {
		ss = sessionOp(netSender(c), base, id, d, t)
	} else {
		ss = []sample{netOp(c, base, d, t)}
	}
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latMS
	}
	return out
}

func meanOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// reportLayers prints the per-layer metrics and the reconciliation line.
func reportLayers(r *report, tr tracedRun, lt layerTimes) {
	a, b := tr.untraced, tr.traced
	bn := tr.tracedNominal
	if bn.samples == nil {
		bn = b
	}
	lexNSKiB := lt.lexNS / lt.docKiB
	engNSKiB := lt.engNS / lt.docKiB
	strNSKiB := lt.strNS / lt.docKiB
	r.add("lexer.ns_kib", lexNSKiB, "ns/KiB", "Lexer.TokenizeResumeInto, whole documents")
	r.add("lexer.tokens_kib", lt.lexTok/lt.docKiB, "tokens/KiB", "")
	r.add("lexer.allocs_op", lt.lexAllocs, "allocs", "per document")

	var scan, scanB float64
	for _, s := range b.samples {
		if s.ok && s.scanB > 0 {
			scan += float64(s.scan)
			scanB += float64(s.scanB)
		}
	}
	r.add("lexer.scan_per_byte", scan/scanB, "cycles/B", "lexScanCycles/bytes of verdict answers, 32 KiB-chunked serve path")
	r.add("engine.ns_kib", engNSKiB, "ns/KiB", "Exec.FeedAll on codes encoded once")
	r.add("engine.symbols_kib", lt.engSym/lt.docKiB, "symbols/KiB", "")
	r.add("engine.allocs_op", lt.engAllocs, "allocs", "per document")
	r.add("stream.ns_kib", strNSKiB, "ns/KiB", "Parser.Write in 32 KiB chunks + Close, engine runner")
	glue := strNSKiB - lexNSKiB - engNSKiB
	r.add("stream.glue_ns_kib", glue, "ns/KiB", "stream - lexer - engine")
	r.add("stream.alloc_bytes_op", lt.strAllocB, "B", "per document")
	r.add("stream.checkpoint_kib", lt.ckKiB, "KiB", fmt.Sprintf("mean image at a chunk boundary, %.3g per document", lt.ckPerDoc))
	r.add("stream.checkpoint_ns_op", lt.ckNS, "ns", "Parser.Checkpoint")
	r.add("store.save_ns_op", lt.saveNS, "ns", "CheckpointStore.Save")
	r.add("store.load_ns_op", lt.loadNS, "ns", "CheckpointStore.Load")

	// Per serve operation (a document, or a session chunk).
	strOp := lt.strNS / lt.docs / lt.opsPerDoc
	self := lt.inprocNS - strOp
	storeOp := 0.0
	if tr.sessions {
		// A session chunk also checkpoints, saves and loads.
		storeOp = (lt.ckNS + lt.saveNS + lt.loadNS) * lt.ckPerDoc / lt.opsPerDoc
		self -= storeOp
	}
	httpNS := lt.directNS - lt.inprocNS
	r.add("serve.inproc_ns_op", lt.inprocNS, "ns", "Handler().ServeHTTP, sequential")
	r.add("serve.self_ns_op", self, "ns", "inproc - stream (- checkpoint/store on sessions)")
	r.add("serve.admit_ns_op", lt.admitNS, "ns", "BenchAdmitCycle")
	r.add("serve.http_ns_op", httpNS, "ns", "loopback direct - inproc")
	qs := make([]float64, 0, len(b.samples))
	for _, s := range b.samples {
		if s.ok {
			qs = append(qs, float64(s.queueNS)/1e3)
		}
	}
	q := summarize(qs, 99)
	r.add("serve.queue_p50_us", q.p50, "us", fmt.Sprintf("queueNs of %d answers", q.n))
	r.add("serve.queue_p99_us", q.tail, "us", fmt.Sprintf("p%.4g", q.tailPct))
	r.add("serve.allocs_op", lt.inprocAllocs, "allocs", "server side only: in-process handler")
	r.add("serve.shed_ratio", shedRatio(b.samples), "ratio", "429/503 answers over the traced run")
	r.add("fleet.hop_p50_us", lt.hopP50/1e3, "us", "router - direct, same operations")
	r.add("fleet.hop_p99_us", lt.hopP99/1e3, "us", "")

	ops := float64(len(b.samples))
	r.add("loadgen.late_p99_ms", summarize(lates(b), 99).tail, "ms", "generator lateness")
	r.add("runtime.gc_per_kop", float64(b.gc)/ops*1000, "count", "")
	r.add("runtime.alloc_kib_op", float64(b.allocB)/ops/1024, "KiB", "whole process")
	r.add("runtime.allocs_op", float64(b.mallocs)/ops, "allocs", "whole process, client included")
	ua := summarize(a.latencies(), 99)
	ta := summarize(bn.latencies(), 99)
	overhead := ta.p50 / ua.p50
	r.add("trace.overhead_ratio", overhead, "ratio", "traced p50 / untraced p50")

	// Reconciliation, in means: percentiles do not add.
	pathMS := lt.inprocNS / 1e6
	pathNote := "in-process"
	if tr.routed {
		pathMS = (lt.directNS + lt.hopMean) / 1e6
		pathNote = "inproc + http + fleet.hop"
	}
	um := a.meanLatMS()
	residual := um - pathMS
	r.add("reconcile.residual_ms", residual, "ms", "untraced mean latency - sum of layers on the path")
	fmt.Printf("reconcile %s: lexer %.0f + engine %.0f + glue %.0f = stream %.0f ns/KiB | stream %.0f + store %.0f + serve.self %.0f = inproc %.0f ns/op | %s = %.4g ms vs untraced mean %.4g ms (p50 %.4g ms): residual %.4g ms (%.1f%%) | trace.overhead_ratio %.4g\n",
		tr.name, lexNSKiB, engNSKiB, glue, strNSKiB, strOp, storeOp, self, lt.inprocNS,
		pathNote, pathMS, um, ua.p50, residual, 100*residual/um, overhead)
}
