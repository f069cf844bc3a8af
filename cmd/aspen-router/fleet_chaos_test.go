// Fleet chaos harness: these tests drive the real aspen-router binary
// over a real 3-node aspend fleet — build both binaries, boot the
// fleet, stream a durable session through the router, SIGKILL the
// session's owner mid-stream, and pin the tentpole contract end to
// end:
//
//   - the session concludes on a replacement node with a response
//     byte-identical to an uninterrupted whole-document parse;
//   - plain parses for healthy grammars never drop during the loss —
//     every request answers 200 through retries;
//   - the router's membership view reconverges: degraded after the
//     kill, ok again when the node restarts on its old address with
//     its journal intact.
//
// In-process tests (internal/fleet) cannot see any of this: SIGKILL
// semantics, TCP connection severing, and cross-process checkpoint
// durability only exist across real exec boundaries.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspen/internal/lang"
)

var (
	routerBin string
	aspendBin string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fleet-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	routerBin = filepath.Join(dir, "aspen-router")
	aspendBin = filepath.Join(dir, "aspend")
	for bin, pkg := range map[string]string{routerBin: ".", aspendBin: "../aspend"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one running child process (aspend node or the router).
type proc struct {
	t       *testing.T
	cmd     *exec.Cmd
	addr    string
	logPath string
	waitErr chan error
}

var listenRe = regexp.MustCompile(`listening on http://(\S+)`)

// start boots a binary and waits for its address announcement and a
// 200 from /healthz... or any /healthz answer at all (a router over a
// dead fleet answers 503, which is still "up").
func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), filepath.Base(bin)+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatalf("starting %s: %v", bin, err)
	}
	logf.Close()
	p := &proc{t: t, cmd: cmd, logPath: logPath, waitErr: make(chan error, 1)}
	go func() { p.waitErr <- cmd.Wait() }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		select {
		case <-p.waitErr:
		case <-time.After(10 * time.Second):
		}
	})

	deadline := time.Now().Add(30 * time.Second)
	for p.addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("%s never announced its address; log:\n%s", bin, p.log())
		}
		select {
		case err := <-p.waitErr:
			t.Fatalf("%s exited during startup (%v); log:\n%s", bin, err, p.log())
		default:
		}
		if m := listenRe.FindStringSubmatch(p.log()); m != nil {
			p.addr = m[1]
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	for {
		resp, err := http.Get(p.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s /healthz never reachable: %v; log:\n%s", bin, err, p.log())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return p
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

func (p *proc) log() string {
	b, _ := os.ReadFile(p.logPath)
	return string(b)
}

// kill9 SIGKILLs the process and waits for the reap: no drain, no
// goodbye — the node vanishes mid-connection.
func (p *proc) kill9() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatalf("kill -9: %v", err)
	}
	select {
	case <-p.waitErr:
	case <-time.After(10 * time.Second):
		p.t.Fatal("process did not die after SIGKILL")
	}
}

func (p *proc) post(path string, body []byte) (int, []byte) {
	p.t.Helper()
	resp, err := http.Post(p.url(path), "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		p.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		p.t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, out
}

// routerHealth decodes the router's /healthz body.
type routerHealth struct {
	Status            string            `json:"status"`
	ReadyNodes        int               `json:"ready_nodes"`
	RegistryConverged bool              `json:"registry_converged"`
	Sessions          map[string]string `json:"sessions"`
}

func (p *proc) health() routerHealth {
	p.t.Helper()
	resp, err := http.Get(p.url("/healthz"))
	if err != nil {
		p.t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h routerHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		p.t.Fatalf("/healthz: %v", err)
	}
	return h
}

func (p *proc) waitHealth(what string, cond func(routerHealth) bool) routerHealth {
	p.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		h := p.health()
		if cond(h) {
			return h
		}
		if time.Now().After(deadline) {
			raw, _ := json.Marshal(h)
			p.t.Fatalf("timed out waiting for %s; last: %s; router log:\n%s", what, raw, p.log())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// normalize strips fields that legitimately vary between runs
// (timings, session bookkeeping) and re-marshals with sorted keys so
// two answers compare byte for byte.
func normalize(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("normalize: %v: %s", err, body)
	}
	delete(m, "queueNs")
	delete(m, "parseNs")
	delete(m, "session")
	delete(m, "partial")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// startFleet boots n durable aspend nodes and a router over them.
// Each node keeps its state dir and listen address so it can be
// restarted in place.
func startFleet(t *testing.T, n int) (router *proc, nodes []*proc, stateDirs []string) {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		node := start(t, aspendBin, "-addr", "127.0.0.1:0", "-langs", "JSON,XML", "-state-dir", dir)
		nodes = append(nodes, node)
		stateDirs = append(stateDirs, dir)
		addrs[i] = node.addr
	}
	router = start(t, routerBin,
		"-addr", "127.0.0.1:0",
		"-nodes", strings.Join(addrs, ","),
		"-probe-interval", "100ms",
		"-retry-backoff", "10ms",
	)
	router.waitHealth("initial convergence", func(h routerHealth) bool {
		return h.Status == "ok" && h.ReadyNodes == n
	})
	return router, nodes, stateDirs
}

// TestFleetChaosKillOwnerMidStream is the acceptance scenario: a real
// 3-node fleet, a durable session streamed through the router, the
// owner SIGKILLed between chunks. The session must conclude
// byte-identically on a survivor, healthy-grammar traffic must not
// drop a single request, and membership must reconverge — degraded
// after the kill, ok again once the node restarts on its journal.
func TestFleetChaosKillOwnerMidStream(t *testing.T) {
	router, nodes, stateDirs := startFleet(t, 3)
	doc := []byte(lang.JSONSample)
	half := len(doc) / 2

	// Reference answers: an uninterrupted whole-document parse, and an
	// uninterrupted session with the same chunk boundaries the chaos
	// session will use. Both must match the failover conclusion in every
	// field, lexScanCycles included: a chunk seam costs no re-scan.
	status, ref := router.post("/v1/parse/JSON", doc)
	if status != http.StatusOK {
		t.Fatalf("reference parse: status %d: %s", status, ref)
	}
	wantWhole := normalize(t, ref)
	if status, out := router.post("/v1/parse/JSON?session=ref", doc[:half]); status != http.StatusOK {
		t.Fatalf("reference session chunk: status %d: %s", status, out)
	}
	status, refSess := router.post("/v1/parse/JSON?session=ref&final=1", doc[half:])
	if status != http.StatusOK {
		t.Fatalf("reference session conclusion: status %d: %s", status, refSess)
	}
	wantFinal := normalize(t, refSess)

	// Stream half the document as a durable session.
	if status, out := router.post("/v1/parse/JSON?session=chaos", doc[:half]); status != http.StatusOK {
		t.Fatalf("chunk 1: status %d: %s", status, out)
	}
	owner := router.health().Sessions["JSON/chaos"]
	if owner == "" {
		t.Fatalf("router /healthz lists no owner for the session: %+v", router.health())
	}
	var victim *proc
	victimIdx := -1
	for i, n := range nodes {
		if n.addr == owner {
			victim, victimIdx = n, i
		}
	}
	if victim == nil {
		t.Fatalf("session owner %q is not a fleet node", owner)
	}

	// Healthy-grammar background load across the kill: every request
	// must answer 200 — retries absorb the loss, nothing drops.
	var dropped atomic.Int64
	var loadWG sync.WaitGroup
	stopLoad := make(chan struct{})
	for w := 0; w < 3; w++ {
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				resp, err := http.Post(router.url("/v1/parse/XML"), "application/octet-stream",
					bytes.NewReader([]byte(lang.XMLSample)))
				if err != nil {
					dropped.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					dropped.Add(1)
				}
			}
		}()
	}

	victim.kill9()

	// Conclude the session: the router must fail it over and the
	// stitched answer must match the uninterrupted parse byte for byte.
	status, final := router.post("/v1/parse/JSON?session=chaos&final=1", doc[half:])
	if status != http.StatusOK {
		t.Fatalf("post-kill conclusion: status %d: %s\nrouter log:\n%s", status, final, router.log())
	}
	got := normalize(t, final)
	if got != wantFinal {
		t.Fatalf("failover conclusion differs from an uninterrupted identically-chunked session:\n got: %s\nwant: %s", got, wantFinal)
	}
	if got != wantWhole {
		t.Fatalf("failover conclusion differs from the whole-document parse:\n got: %s\nwant: %s", got, wantWhole)
	}

	// Membership reconverges around the loss.
	router.waitHealth("degraded after kill", func(h routerHealth) bool {
		return h.Status == "degraded" && h.ReadyNodes == 2
	})

	// Let the load run a moment against the degraded fleet, then stop.
	time.Sleep(300 * time.Millisecond)
	close(stopLoad)
	loadWG.Wait()
	if n := dropped.Load(); n != 0 {
		t.Fatalf("%d healthy-grammar requests dropped across the node loss; router log:\n%s", n, router.log())
	}

	// Restart the dead node in place (same address, same journal): the
	// fleet reconverges to ok with the registry agreeing everywhere.
	_ = start(t, aspendBin, "-addr", victim.addr, "-langs", "JSON,XML", "-state-dir", stateDirs[victimIdx])
	router.waitHealth("reconvergence after restart", func(h routerHealth) bool {
		return h.Status == "ok" && h.ReadyNodes == 3 && h.RegistryConverged
	})
}

// TestFleetChaosAdminFanout pins the control plane across real
// processes: a mutation through the router lands in every node's
// journal — proven by killing a node afterwards and restarting it on
// its journal alone, expecting the grammar to still be there.
func TestFleetChaosAdminFanout(t *testing.T) {
	router, nodes, stateDirs := startFleet(t, 3)

	body, _ := json.Marshal(map[string]string{"op": "add", "grammar": "DOT"})
	status, out := router.post("/v1/admin/grammars", body)
	if status != http.StatusOK {
		t.Fatalf("admin fanout: status %d: %s", status, out)
	}
	router.waitHealth("convergence after fanout", func(h routerHealth) bool {
		return h.RegistryConverged && h.Status == "ok"
	})

	// Kill node 0 and restart from its journal: DOT must have survived
	// the fanout → journal → replay path without any flag mentioning it.
	nodes[0].kill9()
	revived := start(t, aspendBin, "-addr", nodes[0].addr, "-langs", "JSON,XML", "-state-dir", stateDirs[0])
	if status, out := revived.post("/v1/parse/DOT", []byte(lang.DOTSample)); status != http.StatusOK {
		t.Fatalf("replayed node refused DOT: status %d: %s\nlog:\n%s", status, out, revived.log())
	}
	router.waitHealth("reconvergence", func(h routerHealth) bool {
		return h.Status == "ok" && h.ReadyNodes == 3 && h.RegistryConverged
	})
}

// TestRouterUsageErrors pins flag validation: no -nodes is a one-line
// exit 2, not a crash or a silent empty fleet.
func TestRouterUsageErrors(t *testing.T) {
	out, err := exec.Command(routerBin, "-addr", "127.0.0.1:0").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("router without -nodes: err %v, want exit 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-nodes is required") {
		t.Fatalf("usage error unhelpful: %s", out)
	}
}
