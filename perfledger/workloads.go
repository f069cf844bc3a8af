package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"
)

// Run shape shared by the workloads.
const (
	setupRepeats = 25          // set-ups per run; setup_s is their median
	warmupFor    = time.Second // unrecorded load before measuring
	chunkSize    = 32 << 10    // session chunk size, serve's copy-buffer size
)

// small-open's fixed rate ladder and latency limit. The nominal rung is
// where p50_ms and p99_ms are read; it is the lowest rung, where the
// latency is least amplified by queueing on the two connections and so
// least spread by the host's scheduling noise, and it runs longest.
var ladder = []float64{300, 600, 900, 1200}

const (
	nominalRung  = 0
	nominalShare = 0.4 // of the ladder's time; the other rungs share the rest
	limitMS      = 10.0
)

// ladderDurations splits total over the ladder's rungs.
func ladderDurations(total time.Duration) []time.Duration {
	out := make([]time.Duration, len(ladder))
	for k := range out {
		out[k] = time.Duration((1 - nominalShare) / float64(len(ladder)-1) * float64(total))
	}
	out[nominalRung] = time.Duration(nominalShare * float64(total))
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// inprocOp posts d to the node's handler in-process, with no sockets.
func inprocOp(h http.Handler, d doc, t *tally) sample {
	t0 := time.Now()
	code, body := postInproc(h, "/v1/parse/"+d.grammar, d.data)
	s := sample{latMS: ms(time.Since(t0)), bytes: len(d.data)}
	outcome(&s, t, finalAnswer(&s, d, code, body, nil))
	return s
}

// netOp posts d to base over c; the caller times it.
func netOp(c *http.Client, base string, d doc, t *tally) sample {
	t0 := time.Now()
	code, body, err := post(c, base+"/v1/parse/"+d.grammar, d.data)
	s := sample{latMS: ms(time.Since(t0)), bytes: len(d.data)}
	outcome(&s, t, finalAnswer(&s, d, code, body, err))
	return s
}

// finalAnswer decodes a verdict-carrying answer for d into s and checks
// it against the oracle.
func finalAnswer(s *sample, d doc, code int, body []byte, err error) error {
	if err != nil {
		return err
	}
	a, err := decodeAnswer(code, body)
	if err != nil {
		return err
	}
	s.queueNS = a.QueueNS
	s.scan, s.scanB = a.LexScanCycles, *a.Bytes
	return checkVerdict(d, a)
}

// sender posts a body to a URL and returns the answer.
type sender func(url string, body []byte) (int, []byte, error)

// inprocSender posts to h in-process; netSender over c.
func inprocSender(h http.Handler) sender {
	return func(url string, body []byte) (int, []byte, error) {
		code, out := postInproc(h, url, body)
		return code, out, nil
	}
}

func netSender(c *http.Client) sender {
	return func(url string, body []byte) (int, []byte, error) { return post(c, url, body) }
}

// sessionOp sends d as one durable session in serve's 32 KiB chunks,
// the last with final=1, and returns one sample per chunk. Every
// partial answer must acknowledge exactly the bytes sent so far.
func sessionOp(send sender, base, id string, d doc, t *tally) []sample {
	var out []sample
	parts := chunks(d.data)
	end := 0
	last := time.Now()
	for j, ch := range parts {
		end += len(ch)
		url := base + "/v1/parse/" + d.grammar + "?session=" + id
		final := j == len(parts)-1
		if final {
			url += "&final=1"
		}
		t0 := time.Now()
		code, body, err := send(url, ch)
		s := sample{latMS: ms(time.Since(t0)), lateMS: ms(t0.Sub(last)), bytes: len(ch)}
		if final {
			err = finalAnswer(&s, d, code, body, err)
		} else if err == nil {
			var a answer
			if a, err = decodeAnswer(code, body); err == nil {
				s.queueNS = a.QueueNS
				if !a.Partial || *a.Bytes != end {
					err = fmt.Errorf("%w: session %s chunk ending at %d acknowledged partial=%v bytes=%d",
						errWrong, id, end, a.Partial, *a.Bytes)
				}
			}
		}
		outcome(&s, t, err)
		out = append(out, s)
		if err != nil {
			break // the session is broken; abandon the rest of it
		}
		last = time.Now()
	}
	return out
}

// reportClosed prints the end-to-end metrics of a closed-loop phase.
func reportClosed(r *report, setup float64, p phase, op string) {
	n, b := p.okOps()
	sec := p.elapsed.Seconds()
	mibs, ops := p.throughput()
	r.add("setup_s", setup, "s", fmt.Sprintf("median of %d set-ups, construction to first accepted answer", setupRepeats))
	r.add("mib_cpu_s", float64(b)/(1<<20)/p.cpu.Seconds(), "MiB/cpu-s", fmt.Sprintf("accepted input per second of process CPU time, %.3g CPUs busy", p.cpu.Seconds()/sec))
	r.print("mib_s", mibs, "MiB/s", fmt.Sprintf("accepted input per wall second, median over %v windows; whole run %.4g", rateWindow, float64(b)/(1<<20)/sec))
	reportLatency(r, p, op)
	r.print("max_rate_rps", ops, "1/s", fmt.Sprintf("%ss completed per second, median over %v windows (closed loop: the sustained rate); whole run %.4g", op, rateWindow, float64(n)/sec))
	reportSuccess(r, p.samples)
	r.add("heap_peak_mib", p.heapMiB, "MiB", "whole process")
}

// reportLatency prints p50_ms and p99_ms as window medians (see
// windowed), with the whole-run percentiles beside them.
func reportLatency(r *report, p phase, op string) {
	lat := p.latencies()
	p50, tail, pct, w, size := windowed(lat, 99)
	l := summarize(lat, 99)
	r.add("p50_ms", p50, "ms", fmt.Sprintf("per %s: median over %d windows of %d samples; whole run p50 %.4g ms of %d samples", op, w, size, l.p50, l.n))
	r.print("p99_ms", tail, "ms", fmt.Sprintf("median over the windows of their p%.4g (%d beyond); whole run p%.4g %.4g ms (%d beyond), highest supported p%.4g = %.4g ms",
		pct, size-int(math.Ceil(pct/100*float64(size))), l.tailPct, l.tail, l.n-int(math.Ceil(l.tailPct/100*float64(l.n))), l.maxPct, l.maxValue))
}

func reportSuccess(r *report, ss []sample) {
	fails, refused := 0, 0
	for _, s := range ss {
		if !s.ok {
			fails++
		}
		if s.refused {
			refused++
		}
	}
	fr := float64(fails) / float64(len(ss))
	r.add("success_ratio", 1-fr, "ratio", fmt.Sprintf("fail_ratio %.4g: %d of %d failed, %d refused", fr, fails, len(ss), refused))
}

// runDocsInproc: closed loop, 2 goroutines posting 32 KiB documents to
// serve.Server.Handler() in-process.
func runDocsInproc(c config, r *report, t *tally) error {
	docs := docsPool(c.seed)
	setup, s, err := timeSetups(setupRepeats,
		func() (*stack, error) { return startStack(stackOpts{}) },
		func(s *stack) error { return okErr(inprocOp(s.srv.Handler(), firstValid(docs), t), t) })
	if err != nil {
		return err
	}
	defer s.close()
	h := s.srv.Handler()
	op := func(i int) []sample { return []sample{inprocOp(h, docs[i%len(docs)], t)} }
	loop := func(d time.Duration) phase {
		return measure(func() ([]sample, time.Duration) { return closedLoop(2, d, 1, op) })
	}
	loop(warmupFor)
	if !c.trace {
		reportClosed(r, setup, loop(c.seconds), "document")
		return nil
	}
	a := loop(c.seconds / 4)
	b := loop(c.seconds / 4)
	return traced(c, r, t, tracedRun{
		name: "docs-inproc", docs: docs, untraced: a, traced: b,
	})
}

// okErr turns a failed sample into an error for the set-up check.
func okErr(s sample, t *tally) error {
	if !s.ok {
		return fmt.Errorf("operation failed: %v", t.firstErr)
	}
	return nil
}

// runLadder runs the open loop over every rung of the ladder (or only
// the nominal one), dur per rung, with seeded Poisson arrivals.
func runLadder(seed int64, rates []float64, durs []time.Duration, docs []doc, send func(d doc) sample) []rung {
	var out []rung
	base := 0
	for k, rate := range rates {
		dur := durs[k]
		sched := poisson(rand.New(rand.NewSource(seed*7919+int64(k))), rate, dur)
		var g rung
		g.rate, g.dur = rate, dur
		g.p = measure(func() ([]sample, time.Duration) {
			ss, backlog := openLoop(2, sched, dur, func(i int) sample { return send(docs[(base+i)%len(docs)]) })
			g.backlog = backlog
			return ss, dur
		})
		base += len(sched)
		out = append(out, g)
	}
	return out
}

// runSmallOpen: open loop with seeded Poisson arrivals on 2
// connections, through a fleet.Router to one node over loopback, at
// each rate of the ladder.
func runSmallOpen(c config, r *report, t *tally) error {
	docs := smallPoolDocs(c.seed)
	var client *http.Client
	setup, s, err := timeSetups(setupRepeats,
		func() (*stack, error) {
			if client != nil {
				client.CloseIdleConnections()
			}
			client = newClient(2)
			return startStack(stackOpts{router: true})
		},
		func(s *stack) error { return okErr(netOp(client, s.routerURL, firstValid(docs), t), t) })
	if err != nil {
		return err
	}
	defer s.close()
	defer client.CloseIdleConnections()
	send := func(d doc) sample { return netOp(client, s.routerURL, d, t) }
	nominal := ladder[nominalRung : nominalRung+1]
	runLadder(c.seed+1, nominal, []time.Duration{warmupFor}, docs, send)
	if !c.trace {
		rungs := runLadder(c.seed, ladder, ladderDurations(c.seconds), docs, send)
		reportLadder(r, setup, rungs)
		return nil
	}
	a := runLadder(c.seed, nominal, []time.Duration{c.seconds / 4}, docs, send)
	b := runLadder(c.seed+2, ladder, ladderDurations(c.seconds/4), docs, send)
	for _, g := range b {
		fmt.Printf("traced rung %5.0f/s: serve.shed_ratio %.4g\n", g.rate, shedRatio(g.p.samples))
	}
	return traced(c, r, t, tracedRun{
		name: "small-open", docs: docs, untraced: a[0].p, traced: merge(b), tracedNominal: b[nominalRung].p,
		routed: true,
	})
}

// merge concatenates the rungs' phases into one.
func merge(rungs []rung) phase {
	var p phase
	for _, g := range rungs {
		p.samples = append(p.samples, g.p.samples...)
		p.elapsed += g.p.elapsed
		p.gc += g.p.gc
		p.mallocs += g.p.mallocs
		p.allocB += g.p.allocB
		p.cpu += g.p.cpu
		p.heapMiB = math.Max(p.heapMiB, g.p.heapMiB)
	}
	return p
}

func reportLadder(r *report, setup float64, rungs []rung) {
	for _, g := range rungs {
		n, _ := g.p.okOps()
		l := summarize(g.p.latencies(), 99)
		fmt.Printf("rung %5.0f/s: achieved %7.1f/s, p50 %.3f ms, p%.4g %.3f ms (%d samples), backlog %d, generator late p99 %.3f ms, shed %.4g, passes %v\n",
			g.rate, float64(n)/g.dur.Seconds(), l.p50, l.tailPct, l.tail, l.n, g.backlog,
			summarize(lates(g.p), 99).tail, shedRatio(g.p.samples), g.passes(limitMS))
	}
	all := merge(rungs)
	_, b := all.okOps()
	r.add("setup_s", setup, "s", fmt.Sprintf("median of %d set-ups, construction to first routed answer", setupRepeats))
	r.add("mib_cpu_s", float64(b)/(1<<20)/all.cpu.Seconds(), "MiB/cpu-s", "accepted input per second of process CPU time, whole ladder")
	r.print("mib_s", float64(b)/(1<<20)/all.elapsed.Seconds(), "MiB/s", "accepted input per wall second, whole ladder")
	reportLatency(r, rungs[nominalRung].p, fmt.Sprintf("request at the nominal %.0f/s rung", rungs[nominalRung].rate))
	rate, best := maxRate(rungs, limitMS)
	note := fmt.Sprintf("no rung meets p99 <= %g ms", limitMS)
	if best >= 0 {
		note = fmt.Sprintf("achieved rate at the %.0f/s rung, highest meeting p99 <= %g ms with no growing backlog", rungs[best].rate, limitMS)
	}
	r.print("max_rate_rps", rate, "1/s", note)
	reportSuccess(r, all.samples)
	r.add("heap_peak_mib", all.heapMiB, "MiB", "whole process")
}

func lates(p phase) []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.lateMS
	}
	return out
}

func shedRatio(ss []sample) float64 {
	n := 0
	for _, s := range ss {
		if s.refused {
			n++
		}
	}
	return float64(n) / float64(len(ss))
}

// runBlobSessions: closed loop, 1 client sending ~2 MiB JSON documents
// as durable sessions in 32 KiB chunks straight to a node with a
// durable store, through its handler in-process: on loopback, the
// wake-ups of the connection's goroutines on a 2-vCPU virtual machine
// spread the chunk latency more than the work a change would save.
func runBlobSessions(c config, r *report, t *tally) error {
	docs := blobPool(c.seed)
	small := newDoc("JSON", "json", jsonDoc(rand.New(rand.NewSource(c.seed)), 4<<10))
	seq := 0
	nextID := func() string { seq++; return fmt.Sprintf("b%d-%d", c.seed, seq) }
	setup, s, err := timeSetups(setupRepeats,
		func() (*stack, error) { return startStack(stackOpts{stateDir: newStateDir()}) },
		func(s *stack) error {
			ss := sessionOp(inprocSender(s.srv.Handler()), "", nextID(), small, t)
			return okErr(ss[len(ss)-1], t)
		})
	if err != nil {
		return err
	}
	defer s.close()
	send := inprocSender(s.srv.Handler())
	op := func(i int) []sample { return sessionOp(send, "", nextID(), docs[i%len(docs)], t) }
	loop := func(d time.Duration) phase {
		// Stop on an even document count: the pool is ordered in
		// small/large attachment pairs, so every even prefix is balanced.
		return measure(func() ([]sample, time.Duration) { return closedLoop(1, d, 2, op) })
	}
	loop(warmupFor)
	if !c.trace {
		reportClosed(r, setup, loop(c.seconds), "chunk")
		return nil
	}
	a := loop(c.seconds / 4)
	b := loop(c.seconds / 4)
	return traced(c, r, t, tracedRun{
		name: "blob-sessions", docs: docs, untraced: a, traced: b,
		sessions: true,
	})
}
