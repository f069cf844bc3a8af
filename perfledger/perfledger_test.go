package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolsDeterministicPerSeed(t *testing.T) {
	pools := map[string]func(int64) []doc{
		"docs":  docsPool,
		"small": smallPoolDocs,
		"blob":  blobPool,
	}
	for name, pool := range pools {
		a, b, c := pool(7), pool(7), pool(8)
		if len(a) != len(b) {
			t.Fatalf("%s: seed 7 gave %d then %d documents", name, len(a), len(b))
		}
		same := true
		for i := range a {
			if !bytes.Equal(a[i].data, b[i].data) || a[i].valid != b[i].valid || a[i].class != b[i].class {
				t.Fatalf("%s: document %d differs between two generations from seed 7", name, i)
			}
			if i < len(c) && !bytes.Equal(a[i].data, c[i].data) {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same documents", name)
		}
	}
}

func TestPoolShapes(t *testing.T) {
	classes := map[string]int{}
	for _, d := range docsPool(1) {
		classes[d.class]++
		if !d.valid {
			t.Errorf("docs-inproc %s document rejected by the oracle", d.class)
		}
		if len(d.data) < docsSize*7/8 || len(d.data) > docsSize*9/8 {
			t.Errorf("docs-inproc %s document is %d bytes, want about %d", d.class, len(d.data), docsSize)
		}
	}
	for c, want := range map[string]int{"json": 3 * docsPerClass, "xml-Low": docsPerClass, "xml-Medium": docsPerClass, "xml-High": docsPerClass} {
		if classes[c] != want {
			t.Errorf("docs-inproc has %d %s documents, want %d", classes[c], c, want)
		}
	}

	bad := 0
	for _, d := range smallPoolDocs(1) {
		truncated := bytes.HasSuffix([]byte(d.class), []byte("-truncated"))
		if truncated {
			bad++
		}
		if d.valid == truncated {
			t.Errorf("small-open %s document of %d bytes: oracle says valid=%v", d.class, len(d.data), d.valid)
		}
	}
	if bad < smallPool/smallBadEvery/2 || bad > 2*smallPool/smallBadEvery {
		t.Errorf("small-open has %d truncated documents of %d, want about %d", bad, smallPool, smallPool/smallBadEvery)
	}

	blobs := blobPool(1)
	for i, d := range blobs {
		if !d.valid {
			t.Errorf("blob document %d rejected by the oracle", i)
		}
		if len(d.data) < blobDocSize-4096 || len(d.data) > blobDocSize+4096 {
			t.Errorf("blob document %d is %d bytes, want about %d", i, len(d.data), blobDocSize)
		}
	}
}

func TestOracleRejectsTruncation(t *testing.T) {
	for _, d := range docsPool(3)[:4] {
		cut := d.data[:len(d.data)*3/4]
		if oracle(d.grammar, cut) {
			t.Errorf("%s: oracle accepts a proper prefix", d.class)
		}
	}
	if oracle("XML", []byte("<a/><b/>")) {
		t.Error("oracle accepts an XML document with two roots")
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, pct float64
	}{
		{1000, 99, 99},      // exactly 10 samples beyond p99
		{500, 99, 98},       // too few for p99: the highest with 10 beyond
		{5000, 99, 99},      // capped at the percentile asked for
		{20000, 100, 99.95}, // uncapped: the highest the sample supports
		{10, 99, 0},         // no tail at all
	} {
		if got := tailPct(c.n, c.want); got != c.pct {
			t.Errorf("tailPct(%d, %g) = %g, want %g", c.n, c.want, got, c.pct)
		}
	}
	s := make([]float64, 500)
	for i := range s {
		s[i] = float64(i + 1)
	}
	l := summarize(s, 99)
	if l.n != 500 || l.tailPct != 98 || l.tail != 490 {
		t.Errorf("summarize(1..500) = n %d, p%g %g; want n 500, p98 490 (10 samples beyond)", l.n, l.tailPct, l.tail)
	}
	if l.p50 != 250 {
		t.Errorf("p50 of 1..500 = %g, want 250", l.p50)
	}
}

// stallServer answers immediately, except that its first request
// stalls for stall.
func stallServer(stall time.Duration) *httptest.Server {
	var n atomic.Int32
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	srv := stallServer(stall)
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	sched := make([]time.Duration, 10)
	for i := range sched {
		sched[i] = time.Duration(i) * 5 * time.Millisecond
	}
	out, _ := openLoop(1, sched, 50*time.Millisecond, func(i int) sample {
		code, _, err := post(c, srv.URL, nil)
		return sample{ok: err == nil && code == http.StatusOK}
	})
	// Request 1 was due at 5 ms but could only start once the stalled
	// request 0 finished at about 80 ms: its latency carries that wait.
	if got := out[1].latMS; got < ms(stall-sched[1])-1 {
		t.Errorf("request due at 5 ms behind an %v stall took %.1f ms, want at least %.1f", stall, got, ms(stall-sched[1]))
	}
	for i, s := range out {
		if !s.ok {
			t.Errorf("request %d failed", i)
		}
		if s.latMS < 0 {
			t.Errorf("request %d latency %.3f ms is negative", i, s.latMS)
		}
	}
}

func TestMaxRateRejectsGrowingBacklog(t *testing.T) {
	// One connection to a server taking 20 ms per request sustains 50/s;
	// arrivals every 5 ms pile up behind it.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	dur := 300 * time.Millisecond
	var sched []time.Duration
	for d := time.Duration(0); d < dur; d += 5 * time.Millisecond {
		sched = append(sched, d)
	}
	_, backlog := openLoop(1, sched, dur, func(int) sample {
		code, _, err := post(c, srv.URL, nil)
		return sample{ok: err == nil && code == http.StatusOK}
	})
	if backlog < len(sched)/2 {
		t.Fatalf("backlog at 200/s against a 50/s server = %d of %d arrivals, want most of them", backlog, len(sched))
	}

	// Two rungs whose latencies all meet the limit; the faster one ends
	// with that backlog, so only the slower one passes.
	fastLat := make([]sample, 2000)
	for i := range fastLat {
		fastLat[i] = sample{latMS: 1, ok: true}
	}
	rungs := []rung{
		{rate: 100, dur: time.Second, p: phase{samples: fastLat[:100]}},
		{rate: 200, dur: time.Second, p: phase{samples: fastLat}, backlog: backlog},
	}
	if rungs[1].passes(limitMS) {
		t.Errorf("a rung ending with %d arrivals waiting passes", backlog)
	}
	if !rungs[0].passes(limitMS) {
		t.Error("a rung with no backlog and 1 ms latencies fails")
	}
	if rate, best := maxRate(rungs, limitMS); best != 0 || rate != 100 {
		t.Errorf("maxRate = %g (rung %d), want 100 (rung 0)", rate, best)
	}
}
