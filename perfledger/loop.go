package main

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one operation as the client saw it.
type sample struct {
	at      time.Duration // due time (open loop) or send time, from the phase's start
	latMS   float64       // completion minus due time (open loop) or send time
	lateMS  float64       // how late the generator started the send
	bytes   int           // input bytes the operation carried
	queueNS int64         // the answer's queueNs
	scan    int           // the answer's lexScanCycles (verdict-carrying answers)
	scanB   int           // bytes the scan count covers (verdict-carrying answers)
	ok      bool          // answered and verified
	refused bool          // 429/503
}

// outcome fills the success flags of s from an operation's error, and
// counts the operation in t.
func outcome(s *sample, t *tally, err error) {
	t.note(err)
	s.ok = err == nil
	s.refused = errors.Is(err, errRefused)
}

// phase is one measured stretch of a workload.
type phase struct {
	samples []sample
	elapsed time.Duration
	heapMiB float64
	gc      uint32
	mallocs uint64
	allocB  uint64
	cpu     time.Duration // process CPU time, user and system
}

// measure runs fn and records the process-wide heap peak, GC count and
// allocation totals around it.
func measure(fn func() ([]sample, time.Duration)) phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	hp := startHeapPeak()
	s, el := fn()
	p := phase{samples: s, elapsed: el, heapMiB: hp.end(), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&m1)
	p.gc = m1.NumGC - m0.NumGC
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	return p
}

// cpuTime returns the process's CPU time so far. The kernel accounts
// time the hypervisor stole from a vCPU as steal, not to the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencies returns the phase's latencies in ms; failed operations
// count as infinitely slow, so they miss every latency limit.
func (p phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.latMS
		if !s.ok {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func (p phase) okOps() (n int, bytes int64) {
	for _, s := range p.samples {
		if s.ok {
			n++
			bytes += int64(s.bytes)
		}
	}
	return n, bytes
}

// rateWindow is the window closed-loop throughput is read over.
const rateWindow = time.Second

// throughput returns the median over the phase's whole rateWindow
// windows of the accepted input MiB/s and the operations per second
// completed in each, so that one window in which the host did not
// schedule the process moves the figure by at most one rank.
func (p phase) throughput() (mibs, ops float64) {
	n := int(p.elapsed / rateWindow)
	if n < 1 {
		okOps, b := p.okOps()
		return float64(b) / (1 << 20) / p.elapsed.Seconds(), float64(okOps) / p.elapsed.Seconds()
	}
	bytes := make([]float64, n)
	count := make([]float64, n)
	for _, s := range p.samples {
		done := s.at + time.Duration(s.latMS*1e6)
		if k := int(done / rateWindow); s.ok && k < n {
			bytes[k] += float64(s.bytes) / (1 << 20) / rateWindow.Seconds()
			count[k] += 1 / rateWindow.Seconds()
		}
	}
	return median(bytes), median(count)
}

func (p phase) meanLatMS() float64 {
	sum, n := 0.0, 0
	for _, s := range p.samples {
		if s.ok {
			sum += s.latMS
			n++
		}
	}
	return sum / float64(n)
}

// closedLoop runs workers clients, each sending its next operation only
// after the previous one completed, over operations 0, 1, 2, ... until
// dur has passed and the next index is a multiple of stride. op
// performs one operation and returns its samples (several for a chunked
// session); latencies are timed by op.
func closedLoop(workers int, dur time.Duration, stride int, op func(i int) []sample) ([]sample, time.Duration) {
	var next atomic.Int64
	outs := make([][]sample, workers)
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i%stride == 0 && time.Now().After(deadline) {
					return
				}
				late := float64(time.Since(last).Nanoseconds()) / 1e6
				at := time.Since(t0)
				ss := op(i)
				ss[0].lateMS = late
				for j := range ss {
					// An operation's samples (session chunks) ran one
					// after another.
					ss[j].at = at
					at += time.Duration(ss[j].latMS * 1e6)
				}
				outs[w] = append(outs[w], ss...)
				last = time.Now()
			}
		}(w)
	}
	wg.Wait()
	el := time.Since(t0)
	var all []sample
	for _, o := range outs {
		all = append(all, o...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	return all, el
}

// poisson returns seeded arrival offsets at rate per second over dur.
func poisson(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// rung is one open-loop stretch at a fixed offered rate.
type rung struct {
	rate    float64
	p       phase
	backlog int // arrivals due by the rung's end but not yet sent then
	dur     time.Duration
}

// drainCap bounds how long an open-loop rung may run past its end to
// finish requests already due; requests still unsent then fail.
const drainCap = 3 * time.Second

// waitUntil returns at t. It sleeps in the nanosleep system call: the
// runtime's own timers fire up to a millisecond late on Linux, which
// would show as latency, and spinning instead would hold a processor
// the program under test needs, and starve the network poller.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// openLoop sends an operation at each due time in sched, on conns
// connections (one sender goroutine each). A dispatcher hands each
// arrival, in due order and at its due time, to the next free sender;
// when every sender is busy the arrival waits. Latency is timed from
// the due time, so a stall shows as waiting in the requests behind it;
// lateMS is how late a sender started a request it was free to send.
// It returns the samples and the backlog at the schedule's end: the
// arrivals due by dur that had not been sent by then.
func openLoop(conns int, sched []time.Duration, dur time.Duration, send func(i int) sample) ([]sample, int) {
	n := len(sched)
	out := make([]sample, n)
	sent := make([]time.Duration, n)
	work := make(chan int)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Duration(0)
			for i := range work {
				start := time.Since(t0)
				s := send(i)
				done := time.Since(t0)
				ready := sched[i]
				if free > ready {
					ready = free
				}
				s.at = sched[i]
				s.latMS = float64((done - sched[i]).Nanoseconds()) / 1e6
				s.lateMS = float64((start - ready).Nanoseconds()) / 1e6
				out[i] = s
				sent[i] = start
				free = done
			}
		}()
	}
	for i := 0; i < n; i++ {
		if now := time.Since(t0); now > dur+drainCap {
			// Too far behind: the arrival fails without being sent.
			out[i] = sample{at: sched[i], latMS: math.Inf(1)}
			sent[i] = now
			continue
		}
		waitUntil(t0.Add(sched[i]))
		work <- i
	}
	close(work)
	wg.Wait()
	backlog := 0
	for i := range sched {
		if sched[i] <= dur && sent[i] > dur {
			backlog++
		}
	}
	return out, backlog
}

// passes reports whether a rung meets the latency limit at the tail
// percentile (read as the window median, see windowed) with no failed
// operation and no growing backlog: more arrivals waiting at the rung's
// end than arrive within one latency limit means the queue alone would
// break the limit.
func (g rung) passes(limitMS float64) bool {
	if len(g.p.samples) == 0 || float64(g.backlog) > g.rate*limitMS/1000 {
		return false
	}
	for _, s := range g.p.samples {
		if !s.ok {
			return false
		}
	}
	_, tail, _, _, _ := windowed(g.p.latencies(), 99)
	return tail <= limitMS
}

// maxRate returns the achieved rate of the highest rung that passes,
// and that rung's index (-1 and 0 when none does).
func maxRate(rungs []rung, limitMS float64) (float64, int) {
	best := -1
	for i, g := range rungs {
		if g.passes(limitMS) && (best < 0 || g.rate > rungs[best].rate) {
			best = i
		}
	}
	if best < 0 {
		return 0, -1
	}
	n, _ := rungs[best].p.okOps()
	return float64(n) / rungs[best].dur.Seconds(), best
}
